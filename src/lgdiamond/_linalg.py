"""Exact linear algebra over Fraction and CycNum entries.

The generic routines work for any exact field type supporting +, -, *,
/, equality with 0, and multiplication by int (both Fraction and CycNum
qualify).  Matrices are lists of row lists; nothing here mutates its
arguments.  smith_normal_form works over the integers.

The library runs only smith_normal_form (it eliminates over CycNum in
orbits.py); det, inverse, mat_mul and rref serve the test oracles and
the names that the benchmark tracer wraps.
"""

from __future__ import annotations


def mat_mul(a, b):
    """Matrix product of two (possibly empty) row-list matrices."""
    if not a or not b:
        return [[] for _ in a]
    cols = len(b[0])
    inner = len(b)
    out = []
    for row in a:
        acc = [row[0] * 0 for _ in range(cols)]
        for k in range(inner):
            x = row[k]
            if x:
                brow = b[k]
                for j in range(cols):
                    if brow[j]:
                        acc[j] = acc[j] + x * brow[j]
        out.append(acc)
    return out


def det(a):
    """Determinant of a nonempty square matrix over a field, exactly."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    m = [list(row) for row in a]
    one = m[0][0] * 0 + 1
    result = one
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col]), None)
        if pivot_row is None:
            return m[0][0] * 0
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            result = -result
        pivot = m[col][col]
        result = result * pivot
        inv = one / pivot
        # only rows with a nonzero in the pivot column change, and only at
        # the nonzero entries of the pivot row
        row = [(j, m[col][j]) for j in range(col + 1, n) if m[col][j]]
        for r in range(col + 1, n):
            target = m[r]
            if target[col]:
                factor = target[col] * inv
                for j, x in row:
                    target[j] = target[j] - factor * x
    return result


def inverse(a):
    """Inverse of a square matrix over a field; ValueError if singular."""
    n = len(a)
    one = a[0][0] * 0 + 1 if n else 1
    zero = one * 0
    aug = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = one / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def rref(a):
    """Reduced row echelon form and pivot column indices."""
    if not a:
        return [], []
    m = [list(row) for row in a]
    rows, cols = len(m), len(m[0])
    one = m[0][0] * 0 + 1
    pivots = []
    r = 0
    for col in range(cols):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = one / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    return m, pivots


def _snf_swap_rows(s, u, i, j):
    s[i], s[j] = s[j], s[i]
    u[i], u[j] = u[j], u[i]


def _snf_swap_cols(s, v, i, j):
    for row in s:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _snf_add_row(s, u, dst, src, q):
    # row_dst -= q * row_src
    s[dst] = [x - q * y for x, y in zip(s[dst], s[src])]
    u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]


def _snf_add_col(s, v, dst, src, q):
    for row in s:
        row[dst] -= q * row[src]
    for row in v:
        row[dst] -= q * row[src]


def smith_normal_form(a):
    """Smith normal form of an integer matrix.

    Returns (s, u, v) with s = u * a * v, u and v unimodular, s diagonal
    with nonnegative entries satisfying s[i] | s[i+1].
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    s = [list(map(int, row)) for row in a]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    t = 0
    while True:
        # find the smallest nonzero entry in the trailing submatrix
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if s[i][j] and (best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        _snf_swap_rows(s, u, t, best[0])
        _snf_swap_cols(s, v, t, best[1])
        while True:
            moved = False
            for i in range(t + 1, rows):
                if s[i][t]:
                    q = s[i][t] // s[t][t]
                    _snf_add_row(s, u, i, t, q)
                    if s[i][t]:
                        _snf_swap_rows(s, u, t, i)
                        moved = True
            for j in range(t + 1, cols):
                if s[t][j]:
                    q = s[t][j] // s[t][t]
                    _snf_add_col(s, v, j, t, q)
                    if s[t][j]:
                        _snf_swap_cols(s, v, t, j)
                        moved = True
            if not moved:
                break
        # enforce divisibility of later entries by the pivot
        pivot = s[t][t]
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if s[i][j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _snf_add_row(s, u, t, offender, -1)
            continue
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
        if t == min(rows, cols):
            break
    return s, u, v
