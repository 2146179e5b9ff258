"""Which modules each command loads, and when: checked in fresh interpreters.

`analyze` and `jacobian` run only the Milnor layer, so they never import
the group layer (`symmetry`, `_linalg`, `orbits`, `statespace`).  The
benchmark tracer replaces `cli` names before any job is parsed; those
replacements must survive the layer's load.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import lgdiamond

ROOT = Path(__file__).resolve().parents[1]
GROUP_LAYER = ("symmetry", "_linalg", "orbits", "statespace")

PRELUDE = f"""
import gc, sys
from lgdiamond import cli

GROUP = {["lgdiamond." + m for m in GROUP_LAYER]!r}

def group_loaded():
    return sorted(m for m in GROUP if m in sys.modules)

def job(command):
    return f"f = x1^3 + x2^3 + x3^3\\ncommand = {{command}}\\n"
"""


def fresh(body: str) -> str:
    """Run PRELUDE and body in a new interpreter with the package on its path.

    Returns what it printed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_milnor_commands_never_load_the_group_layer():
    out = fresh("""
    for command in ("analyze", "jacobian"):
        assert cli.run(cli.parse_job(job(command))).ok
        assert group_loaded() == [], (command, group_loaded())
    print(cli.run(cli.parse_job(job("diamond"))).payload["diamond"]["h"])
    """)
    assert out == "[[1, 1], [1, 1]]\n"


def test_group_commands_load_their_layer_at_parse_time():
    out = fresh("""
    frozen = gc.get_freeze_count()
    cli.parse_job(job("symmetries"))
    assert group_loaded() == ["lgdiamond._linalg", "lgdiamond.symmetry"], group_loaded()
    diamond = cli.parse_job(job("diamond"))
    # loaded, and frozen, before the job runs
    assert group_loaded() == sorted(GROUP), group_loaded()
    assert gc.get_freeze_count() > frozen
    print(cli.run(diamond).payload["diamond"]["h"])
    """)
    assert out == "[[1, 1], [1, 1]]\n"


def test_a_load_after_a_job_has_run_freezes_nothing():
    out = fresh("""
    import weakref
    build, built = cli.quotient_ring, []
    cli.quotient_ring = lambda f, w: built.append(build(f, w)) or built[-1]
    assert cli.run(cli.parse_job(job("jacobian"))).ok
    ring, = built
    alive = weakref.ref(ring)
    # a cycle, which reference counts alone never free
    cycle = [ring]
    cycle.append(cycle)
    del ring, built[:]
    frozen = gc.get_freeze_count()
    cli.parse_job(job("diamond"))
    assert group_loaded() == sorted(GROUP), group_loaded()
    assert gc.get_freeze_count() == frozen
    del cycle
    gc.collect()
    print(alive())
    """)
    assert out == "None\n"


def test_run_loads_the_group_layer_for_a_job_built_directly():
    out = fresh("""
    from lgdiamond.polynomial import parse_polynomial
    f, names = parse_polynomial("x1^3 + x2^3 + x3^3")
    direct = cli.Job(f=f, names=tuple(names), generators=((("SLd",),),),
                     command="diamond")
    assert group_loaded() == []
    print(cli.run(direct).payload["diamond"]["h"])
    """)
    assert out == "[[1, 1], [1, 1]]\n"


def _tracer_cli_names() -> list[str]:
    """The `cli` names that perfbench/tracer.py wraps, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    spans = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "SPANS"
    )
    return [attr for owner, attr, _ in ast.literal_eval(spans) if owner == "cli"]


def test_tracer_names_resolve_right_after_import():
    names = _tracer_cli_names()
    assert {"generate_group", "assemble_diamond", "verify_theorem"} <= set(names)
    out = fresh(f"""
    for name in {names!r}:
        assert callable(getattr(cli, name)), name
    print("ok")
    """)
    assert out == "ok\n"


def test_replaced_names_survive_the_load():
    out = fresh("""
    from lgdiamond import statespace, symmetry
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module, name in [(symmetry, "generate_group"),
                         (statespace, "assemble_diamond"),
                         (statespace, "verify_theorem")]:
        setattr(cli, name, spy(name, getattr(module, name)))
    report = cli.run(cli.parse_job(job("diamond")))
    assert report.ok
    print(calls)
    """)
    assert out == "['generate_group', 'assemble_diamond', 'verify_theorem']\n"


def test_package_names_resolve_lazily_to_their_definitions():
    namespace: dict = {}
    exec("from lgdiamond import *", namespace)
    for name in lgdiamond.__all__:
        value = getattr(lgdiamond, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("lgdiamond.")
        assert vars(home)[name] is value, name
        assert namespace[name] is value, name
    assert set(lgdiamond.__all__) <= set(dir(lgdiamond))
    with pytest.raises(AttributeError, match="no_such_name"):
        lgdiamond.no_such_name


def test_dropped_reports_leave_no_ring_alive():
    out = fresh("""
    from lgdiamond.jacobian import JacobianRing
    reports = [cli.run(cli.parse_job(job(command))) for command in ("jacobian", "diamond")]
    assert all(report.ok for report in reports)
    del reports
    gc.collect()
    print(sum(isinstance(o, JacobianRing) for o in gc.get_objects()))
    """)
    assert out == "0\n"
