"""Job-file parsing, command dispatch, and report rendering.

A job is a plain-text file of assignments separated by newlines or
semicolons, with ``#`` comments:

    f = x1^2*x2 + x2^2 + x2*x3^6 + x4^6 + x1*x3^9
    group = [jf]
    command = diamond

Recognized keys:

    f       polynomial expression (required)
    vars    explicit variable list, e.g. [x1, x2, x3] (optional; inferred)
    group   list of generator expressions (optional; defaults to [jf])
    command analyze | symmetries | jacobian | diamond (default diamond)

A generator expression is a ``*``-product of the atoms ``jf``,
``diag(r1, ..., rN)`` with rationals taken mod 1, and ``perm(c1 c2 ...)``,
a cycle on 1-based variable indices.  The standalone keywords ``Gd``
(the full diagonal symmetry group) and ``SLd`` (its determinant-one
subgroup) expand to generator sets and cannot appear inside products.

Reports render as text or JSON carrying identical numeric content; the
JSON form is versioned and round-trips through the standard parser.

Importing this module imports only the Milnor layer (`errors`,
`cyclotomic`, `polynomial`, `quasihom`, `jacobian`), all that `analyze`
and `jacobian` run, and ends with `gc.freeze()`.  The group layer loads
as soon as `parse_job` has read the command: `symmetries` loads
`symmetry` and `_linalg`, and `diamond` also `orbits` and `statespace`.
`run` loads the same, for a Job built without `parse_job`.  A load that
imports anything before the first job has run ends with `gc.freeze()`
too; a later load freezes nothing, so the rings and other objects of a
caller that runs several jobs stay collectable.  A group-layer name read
from this module before then (`cli.generate_group`) loads its module on
that first access.
"""

from __future__ import annotations

import gc
import json
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import import_module
from pathlib import Path

from .errors import JobSyntaxError, LgError, PreconditionFailed
from .jacobian import poincare_dimensions, quotient_ring
from .polynomial import Polynomial, WeightSystem, _ratio, parse_polynomial
from .quasihom import analyze_weights, classify_invertible, require_variables

COMMANDS = ("analyze", "symmetries", "jacobian", "diamond")

# The group layer, which `analyze` and `jacobian` never run: the names this
# module takes from each of its modules, and the modules each command runs.
# `statespace` imports `symmetry`, `orbits` and `_linalg`; `symmetry`
# imports `_linalg`.
_GROUP_LAYER = {
    "symmetry": (
        "GroupElement",
        "diagonal_symmetries",
        "format_element",
        "generate_group",
        "make_jf",
        "sl_diagonal_symmetries",
    ),
    "statespace": ("StateSpace", "assemble_diamond", "verify_theorem"),
}
_COMMAND_LAYER = {"symmetries": ("symmetry",), "diamond": ("symmetry", "statespace")}
# set by the first `run`; from then on a load freezes nothing
_ran = False


def _load(modules) -> None:
    """Import group-layer modules and bind the names this module takes.

    Idempotent.  A name that is already bound, by an earlier load or by a
    caller that replaced it (a tracer's wrapper), is kept.  What a load
    imports lives as long as the process, so it is frozen as the import
    of this module is, but only before the first job has run: after that
    the heap holds the caller's work too, and a freeze would keep its
    cycles from the collector for good.
    """
    scope = globals()
    unbound = [
        (m, name) for m in modules for name in _GROUP_LAYER[m] if name not in scope
    ]
    if not unbound:
        return
    for module, name in unbound:
        scope[name] = getattr(import_module(f".{module}", __package__), name)
    if not _ran:
        gc.freeze()


def __getattr__(name: str):
    """A group-layer name resolves on first access, by loading its module."""
    for module, names in _GROUP_LAYER.items():
        if name in names:
            _load((module,))
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

# atoms: ("jf",) | ("diag", phases) | ("perm", cycle) | ("Gd",) | ("SLd",)
GenAtom = tuple


@dataclass(frozen=True)
class Job:
    """One parsed job file plus invocation options."""

    f: Polynomial
    names: tuple[str, ...]
    generators: tuple[tuple[GenAtom, ...], ...]
    command: str
    closure_cap: int = 100000
    verify: bool = True


@dataclass(frozen=True)
class Report:
    """Structured command result; `ok` is False on a failed check.

    The checks are the diamond verification and, for `jacobian`, the
    weight-series oracle.
    """

    command: str
    payload: dict
    ok: bool

    def to_json(self) -> str:
        return json.dumps(self.payload, indent=2) + "\n"

    def to_text(self) -> str:
        return render_text(self)


# -- job files ----------------------------------------------------------------


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, col


def _syntax_error(text: str, pos: int, message: str) -> JobSyntaxError:
    line, col = _line_col(text, pos)
    return JobSyntaxError(f"line {line}, column {col}: {message}")


def _blank_comments(text: str) -> str:
    """Replace comments with spaces, preserving every other offset."""
    out = []
    in_comment = False
    for ch in text:
        if ch == "\n":
            in_comment = False
            out.append(ch)
        elif in_comment:
            out.append(" ")
        elif ch == "#":
            in_comment = True
            out.append(" ")
        else:
            out.append(ch)
    return "".join(out)


def _statements(text: str):
    """Yield (start_offset, statement_text) split on newlines/semicolons.

    Bracketed values may span separators, so statements only end at a
    separator outside any open bracket.
    """
    start = 0
    depth = 0
    for pos, ch in enumerate(text):
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth = max(0, depth - 1)
        elif (ch == ";" or ch == "\n") and depth == 0:
            if text[start:pos].strip():
                yield start, text[start:pos]
            start = pos + 1
    if text[start:].strip():
        yield start, text[start:]


def _split_top_level(value: str, sep: str):
    """Split on sep outside parentheses; yields (offset, piece)."""
    start = 0
    depth = 0
    for pos, ch in enumerate(value):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            yield start, value[start:pos]
            start = pos + 1
    yield start, value[start:]


def _strip_span(piece: str, offset: int) -> tuple[str, int]:
    stripped = piece.strip()
    return stripped, offset + len(piece) - len(piece.lstrip())


def _parse_bracket_list(text: str, value: str, offset: int, what: str):
    value_stripped, value_off = _strip_span(value, offset)
    if not (value_stripped.startswith("[") and value_stripped.endswith("]")):
        raise _syntax_error(text, value_off, f"{what} must be a [...] list")
    inner = value_stripped[1:-1]
    inner_off = value_off + 1
    if not inner.strip():
        return []
    return [
        _strip_span(piece, inner_off + off)
        for off, piece in _split_top_level(inner, ",")
    ]


def _parse_rational(text: str, token: str, offset: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise _syntax_error(text, offset, f"expected a rational number, got {token!r}")


def _parse_atom(text: str, atom: str, offset: int, nvars: int) -> GenAtom:
    if atom == "jf":
        return ("jf",)
    if atom in ("Gd", "SLd"):
        return (atom,)
    if atom.startswith("diag(") and atom.endswith(")"):
        inner = atom[5:-1]
        entries = []
        for off, piece in _split_top_level(inner, ","):
            tok, tok_off = _strip_span(piece, offset + 5 + off)
            entries.append(_parse_rational(text, tok, tok_off))
        if len(entries) != nvars:
            raise _syntax_error(
                text,
                offset,
                f"diag takes {nvars} entries for a {nvars}-variable polynomial, "
                f"got {len(entries)}",
            )
        return ("diag", tuple(a % 1 for a in entries))
    if atom.startswith("perm(") and atom.endswith(")"):
        entries = atom[5:-1].split()
        if len(entries) < 2:
            raise _syntax_error(text, offset, "perm needs a cycle of length >= 2")
        cycle = []
        for tok in entries:
            if not tok.isdigit() or not 1 <= int(tok) <= nvars:
                raise _syntax_error(
                    text,
                    offset,
                    f"perm entries must be variable indices 1..{nvars}, got {tok!r}",
                )
            cycle.append(int(tok) - 1)
        if len(set(cycle)) != len(cycle):
            raise _syntax_error(text, offset, "perm cycle repeats an index")
        return ("perm", tuple(cycle))
    raise _syntax_error(
        text,
        offset,
        f"unknown generator atom {atom!r}; expected jf, Gd, SLd, diag(...), "
        "or perm(...)",
    )


def _parse_generator(text: str, piece: str, offset: int, nvars: int):
    atoms = []
    for off, part in _split_top_level(piece, "*"):
        part_stripped, part_off = _strip_span(part, offset + off)
        if not part_stripped:
            raise _syntax_error(text, offset + off, "empty generator factor")
        atoms.append(_parse_atom(text, part_stripped, part_off, nvars))
    if len(atoms) > 1 and any(a[0] in ("Gd", "SLd") for a in atoms):
        raise _syntax_error(
            text, offset, "Gd/SLd expand to generator sets; they cannot be factors"
        )
    return tuple(atoms)


def parse_job(text: str) -> Job:
    """Parse a job file; syntax errors carry line and column."""
    clean = _blank_comments(text)
    seen: dict[str, tuple[int, str]] = {}
    for start, stmt in _statements(clean):
        key_part, eq, value = stmt.partition("=")
        key, key_off = _strip_span(key_part, start)
        if not eq or not key:
            raise _syntax_error(clean, start, "expected an assignment 'key = value'")
        if key not in ("f", "vars", "group", "command"):
            raise _syntax_error(clean, key_off, f"unknown key {key!r}")
        if key in seen:
            raise _syntax_error(clean, key_off, f"duplicate key {key!r}")
        seen[key] = (start + len(key_part) + 1, value)

    if "f" not in seen:
        raise _syntax_error(clean, len(clean), "missing required key 'f'")
    f_off, f_text = seen["f"]

    variables = None
    if "vars" in seen:
        var_off, var_value = seen["vars"]
        entries = _parse_bracket_list(clean, var_value, var_off, "vars")
        variables = [name for name, _ in entries]
        if not variables:
            raise _syntax_error(clean, var_off, "vars list cannot be empty")
        if len(set(variables)) != len(variables):
            raise _syntax_error(clean, var_off, "vars repeats a name")

    try:
        f, names = parse_polynomial(f_text.strip(), variables)
    except (LgError, ZeroDivisionError) as exc:
        raise _syntax_error(clean, f_off, f"bad polynomial: {exc}")
    require_variables(f)

    if "group" in seen:
        grp_off, grp_value = seen["group"]
        pieces = _parse_bracket_list(clean, grp_value, grp_off, "group")
        if not pieces:
            raise _syntax_error(clean, grp_off, "group list cannot be empty")
        generators = tuple(
            _parse_generator(clean, piece, off, f.nvars) for piece, off in pieces
        )
    else:
        generators = ((("jf",),),)

    command = "diamond"
    if "command" in seen:
        cmd_off, cmd_value = seen["command"]
        command, cmd_off = _strip_span(cmd_value, cmd_off)
        if command not in COMMANDS:
            raise _syntax_error(
                clean, cmd_off, f"unknown command {command!r}; expected one of "
                + "|".join(COMMANDS)
            )
    _load(_COMMAND_LAYER.get(command, ()))

    return Job(f=f, names=tuple(names), generators=generators, command=command)


# -- generator resolution ------------------------------------------------------


def _resolve_generators(job: Job, f: Polynomial, w: WeightSystem):
    out = []
    for atoms in job.generators:
        if atoms[0][0] in ("Gd", "SLd"):
            full = atoms[0][0] == "Gd"
            gd = diagonal_symmetries(f) if full else sl_diagonal_symmetries(f)
            out.extend(GroupElement.diagonal(p) for p in gd.generators)
            continue
        g = GroupElement.identity(f.nvars)
        for atom in atoms:
            if atom[0] == "jf":
                factor = make_jf(w)
            elif atom[0] == "diag":
                factor = GroupElement.diagonal(atom[1])
            else:
                cycle = atom[1]
                sigma = list(range(f.nvars))
                for i, j in zip(cycle, cycle[1:] + cycle[:1]):
                    sigma[i] = j
                factor = GroupElement(tuple(sigma), (Fraction(0),) * f.nvars)
            g = g.compose(factor)
        out.append(g)
    if not out:
        out.append(GroupElement.identity(f.nvars))
    return out


# -- payload builders ----------------------------------------------------------


def _frac(x) -> str:
    return str(Fraction(x))


def _weights_payload(w: WeightSystem) -> dict:
    return {"d0": w.d0, "d": list(w.d), "q": [_frac(q) for q in w.q]}


def _run_analyze(f: Polynomial, graph, w: WeightSystem) -> dict:
    cls = classify_invertible(f, graph)
    classification: dict = {"invertible": cls.is_invertible}
    if cls.is_invertible:
        classification["atoms"] = [
            {"kind": kind, "vertices": [v + 1 for v in verts], "exponents": list(exps)}
            for kind, verts, exps in cls.atoms
        ]
    else:
        classification["reason"] = cls.reason
    return {
        "weights": _weights_payload(w),
        "graph": {
            "kappa": [k + 1 for k in graph.kappa],
            "components": [[v + 1 for v in comp] for comp in graph.components],
        },
        "calabi_yau": w.is_calabi_yau,
        "classification": classification,
    }


def _run_symmetries(f: Polynomial, w: WeightSystem) -> dict:
    gd = diagonal_symmetries(f)
    jf = make_jf(w)
    return {
        "weights": _weights_payload(w),
        "diagonal_group": {
            "order": gd.order,
            "invariant_factors": [s for s in gd.invariant_factors if s > 1],
            "generators": [
                "diag(" + ", ".join(_frac(a) for a in p) + ")" for p in gd.generators
            ],
        },
        "jf": {
            "phases": [_frac(a) for a in jf.phase],
            "order": jf.order(),
            "det_one": jf.is_sl(),
        },
        "sl_diagonal_order": sl_diagonal_symmetries(f).order,
    }


def _run_jacobian(f: Polynomial, w: WeightSystem) -> tuple[dict, bool]:
    ring = quotient_ring(f, w)
    agrees = ring.graded == poincare_dimensions(w)
    return {
        "weights": _weights_payload(w),
        "mu": ring.mu,
        "c_hat": _frac(ring.c_hat),
        "graded": [[_ratio(e, w.d0), c] for e, c in ring.graded.items()],
        "oracle_agrees": agrees,
    }, agrees


def _run_diamond(job: Job, w: WeightSystem) -> tuple[dict, bool]:
    f = job.f
    group = generate_group(
        _resolve_generators(job, f, w), f, cap=job.closure_cap
    )
    state = StateSpace(f, w, group, job.names)
    top, table = assemble_diamond(state)
    # N_g, age and mu are class functions, read once at each representative
    per_class = [
        {
            "Ng": state.locus(r).n_g,
            "age": _ratio(group.elements[r].age_num(), 2 * group.den),
            "mu": state.ring(r).mu,
        }
        for r in (cls[0] for cls in group.classes)
    ]
    sectors = [
        {"g": format_element(g), **per_class[group.class_of[i]]}
        for i, g in enumerate(group.elements)
    ]
    payload = {
        "weights": _weights_payload(w),
        "group": {
            "order": group.order,
            "conjugacy_class_count": len(group.classes),
        },
        "sectors": sectors,
        "diamond": {"D": top, "h": table},
        "total_dimension": state.total_dimension(),
        "verification": None,
    }
    ok = True
    if job.verify:
        report = verify_theorem(state)
        payload["verification"] = {
            "all_in_sl": report.all_sl,
            "checks": [
                {"name": c.name, "pass": c.passed, "witness": c.witness}
                for c in report.checks
            ],
        }
        ok = report.passed
    return payload, ok


def run(job: Job) -> Report:
    """Execute a parsed job and return its structured report."""
    global _ran
    _load(_COMMAND_LAYER.get(job.command, ()))
    _ran = True
    f = job.f
    graph, _, w = analyze_weights(f)
    payload: dict = {
        "schema_version": 1,
        "command": job.command,
        "f": f.to_string(job.names),
        "variables": list(job.names),
    }
    ok = True
    if job.command == "analyze":
        payload.update(_run_analyze(f, graph, w))
    elif job.command == "symmetries":
        payload.update(_run_symmetries(f, w))
    elif job.command == "jacobian":
        body, ok = _run_jacobian(f, w)
        payload.update(body)
    else:
        body, ok = _run_diamond(job, w)
        payload.update(body)
    return Report(command=job.command, payload=payload, ok=ok)


# -- text rendering ------------------------------------------------------------


def render_diamond(table: list[list[int]]) -> list[str]:
    """Rows of the diamond, vertex first: a grows down-left, b down-right."""
    top = len(table) - 1
    width = max(len(str(h)) for row in table for h in row)
    half = (width + 2 + 1) // 2
    lines = []
    for k in range(2 * top + 1):
        a_hi = min(k, top)
        entries = [table[a][k - a] for a in range(a_hi, max(0, k - top) - 1, -1)]
        indent = " " * (abs(top - k) * half)
        lines.append((indent + "  ".join(str(h).center(width) for h in entries)).rstrip())
    return lines


def _weights_lines(payload: dict) -> list[str]:
    w = payload["weights"]
    return [
        f"weights: d0 = {w['d0']}, d = ({', '.join(str(x) for x in w['d'])}), "
        f"q = ({', '.join(w['q'])})"
    ]


def render_text(report: Report) -> str:
    p = report.payload
    lines = [f"command: {p['command']}", f"f = {p['f']}"]
    lines += _weights_lines(p)
    if report.command == "analyze":
        kappa = ", ".join(
            f"{i + 1}->{k}" for i, k in enumerate(p["graph"]["kappa"])
        )
        comps = "; ".join(
            "{" + ", ".join(str(v) for v in comp) + "}"
            for comp in p["graph"]["components"]
        )
        lines.append(f"graph: kappa {kappa}; components {comps}")
        lines.append(f"calabi-yau: {'yes' if p['calabi_yau'] else 'no'}")
        cls = p["classification"]
        if cls["invertible"]:
            atoms = ", ".join(
                f"{a['kind']}({' '.join(str(v) for v in a['vertices'])})"
                for a in cls["atoms"]
            )
            lines.append(f"classification: invertible = {atoms}")
        else:
            lines.append(f"classification: not invertible ({cls['reason']})")
    elif report.command == "symmetries":
        gd = p["diagonal_group"]
        factors = " x ".join(f"Z{s}" for s in gd["invariant_factors"]) or "trivial"
        lines.append(f"diagonal symmetries: order {gd['order']} = {factors}")
        for gen in gd["generators"]:
            lines.append(f"  generator {gen}")
        jf = p["jf"]
        lines.append(
            f"jf = diag({', '.join(jf['phases'])}), order {jf['order']}, "
            f"det one: {'yes' if jf['det_one'] else 'no'}"
        )
        lines.append(f"determinant-one diagonal subgroup: order {p['sl_diagonal_order']}")
    elif report.command == "jacobian":
        lines.append(f"mu = {p['mu']}, top degree c-hat = {p['c_hat']}")
        lines.append("graded dimensions:")
        for deg, dim in p["graded"]:
            lines.append(f"  degree {deg}: {dim}")
        lines.append(
            "weight-series oracle: "
            + ("agrees" if p["oracle_agrees"] else "DISAGREES")
        )
    else:
        grp = p["group"]
        lines.append(
            f"group: order {grp['order']}, "
            f"{grp['conjugacy_class_count']} conjugacy classes"
        )
        lines.append("sectors (g, N_g, age, mu):")
        for s in p["sectors"]:
            lines.append(f"  {s['g']}: N_g = {s['Ng']}, age = {s['age']}, mu = {s['mu']}")
        lines.append(f"diamond (D = {p['diamond']['D']}):")
        lines += ["  " + row for row in render_diamond(p["diamond"]["h"])]
        lines.append(f"total dimension: {p['total_dimension']}")
        ver = p["verification"]
        if ver is None:
            lines.append("verification: skipped")
        else:
            lines.append("verification:")
            for c in ver["checks"]:
                mark = "pass" if c["pass"] else "FAIL"
                lines.append(f"  [{mark}] {c['name']}: {c['witness']}")
            failed = sum(1 for c in ver["checks"] if not c["pass"])
            total = len(ver["checks"])
            lines.append(
                "result: all checks passed"
                if not failed
                else f"result: {failed} of {total} checks failed"
            )
    return "\n".join(lines) + "\n"


# -- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    import argparse  # only the command line needs it, not library use

    parser = argparse.ArgumentParser(
        prog="lgdiamond",
        description="Bigraded state spaces and Hodge diamonds of "
        "Landau-Ginzburg orbifolds.",
    )
    parser.add_argument("jobfile", help="path to a job file")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--closure-cap", type=int, default=100000, metavar="N",
                        help="maximum group order during closure")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the diamond verification checks")
    parser.add_argument("--output", metavar="PATH",
                        help="write the report to PATH instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.closure_cap < 1:
        parser.error(f"--closure-cap must be at least 1, not {args.closure_cap}")
    try:
        text = Path(args.jobfile).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        job = parse_job(text)
        job = replace(job, closure_cap=args.closure_cap, verify=not args.no_verify)
        report = run(job)
    except PreconditionFailed as exc:
        print(f"verification precondition failed: {exc}", file=sys.stderr)
        return 2
    except LgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rendered = report.to_json() if args.format == "json" else report.to_text()
    if args.output:
        try:
            Path(args.output).write_text(rendered)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(rendered)
    return 0 if report.ok else 2


# what the command line imported lives as long as its one-job process, so
# the collector's passes during the job walk only the job's own objects
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
