"""Job parsing, command payloads, text/JSON rendering, exit codes."""

import gc
import json
import weakref
from fractions import Fraction as F

import pytest

from lgdiamond import cli, jacobian
from lgdiamond.cli import (
    COMMANDS,
    Job,
    main,
    parse_job,
    render_diamond,
    run,
)
from lgdiamond.errors import JobSyntaxError
from lgdiamond.polynomial import parse_polynomial
from lgdiamond.quasihom import analyze_weights

MAIN_JOB = """\
# the running four-variable example
f = x1^2*x2 + x2^2 + x2*x3^6 + x4^6 + x1*x3^9
group = [jf]
command = diamond
"""

MAIN_TEXT = """\
command: diamond
f = x1*x3^9 + x2*x3^6 + x4^6 + x1^2*x2 + x2^2
weights: d0 = 144, d = (36, 72, 12, 24), q = (1/4, 1/2, 1/12, 1/6)
group: order 12, 12 conjugacy classes
sectors (g, N_g, age, mu):
  id: N_g = 4, age = 0, mu = 165
  diag(0, 0, 1/3, 2/3): N_g = 2, age = 1, mu = 3
  diag(0, 0, 2/3, 1/3): N_g = 2, age = 1, mu = 3
  diag(1/4, 1/2, 1/12, 1/6): N_g = 0, age = 1, mu = 1
  diag(1/4, 1/2, 5/12, 5/6): N_g = 0, age = 2, mu = 1
  diag(1/4, 1/2, 3/4, 1/2): N_g = 0, age = 2, mu = 1
  diag(1/2, 0, 1/6, 1/3): N_g = 1, age = 1, mu = 1
  diag(1/2, 0, 1/2, 0): N_g = 2, age = 1, mu = 5
  diag(1/2, 0, 5/6, 2/3): N_g = 1, age = 2, mu = 1
  diag(3/4, 1/2, 1/4, 1/2): N_g = 0, age = 2, mu = 1
  diag(3/4, 1/2, 7/12, 1/6): N_g = 0, age = 2, mu = 1
  diag(3/4, 1/2, 11/12, 5/6): N_g = 0, age = 3, mu = 1
diamond (D = 2):
      1
    0   0
  1   20  1
    0   0
      1
total dimension: 24
verification:
  [pass] integer-charges: all 24 invariant classes have integer charges
  [pass] charge-support: all charges lie in [0, 2]^2
  [pass] identity-corners: h^(0,0) = 1, spanned by [1] xi_{id}; h^(2,2) = 1, spanned by [x1*x2^2*x3*x4^4] xi_{id}
  [pass] grading-corners: h^(0,2) = 1, spanned by [1] xi_{diag(1/4, 1/2, 1/12, 1/6)}; h^(2,0) = 1, spanned by [1] xi_{diag(3/4, 1/2, 11/12, 5/6)}
  [pass] transpose-symmetry: inverting group elements transposes the charge table and maps invariants to invariants
  [pass] residue-duality: residue pairings between dual blocks are nondegenerate
result: all checks passed
"""


# -- job files -----------------------------------------------------------------


def test_parse_job_full():
    job = parse_job(
        "f = x1^3 + x2^3; vars = [x1, x2]; "
        "group = [jf, diag(1/3, 2/3)*perm(1 2)]; command = jacobian"
    )
    assert job.names == ("x1", "x2")
    assert job.f == parse_polynomial("x1^3 + x2^3")[0]
    assert job.generators == (
        (("jf",),),
        (("diag", (F(1, 3), F(2, 3))), ("perm", (0, 1))),
    )
    assert job.command == "jacobian"
    assert job.verify and job.closure_cap == 100000


def test_parse_job_defaults():
    job = parse_job("f = x1^3 + x2^3")
    assert job.generators == ((("jf",),),)
    assert job.command == "diamond"


def test_parse_job_multiline_list_and_comments():
    job = parse_job("f = x1^3 + x2^3  # cubic\ngroup = [jf,\n  perm(1 2)]\n")
    assert job.generators == ((("jf",),), (("perm", (0, 1)),))


def test_parse_job_negative_and_reduced_diag():
    job = parse_job("f = x1^3 + x2^3\ngroup = [diag(-1/3, 4/3)]")
    assert job.generators == ((("diag", (F(2, 3), F(1, 3))),),)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("group = [jf]", "missing required key 'f'"),
        ("f = x1^3 + x2^3\nf = x1^3", "duplicate key 'f'"),
        ("f = x1^3 + x2^3\nmode = fast", "unknown key 'mode'"),
        ("f = x1^3 + x2^3\nvars = x1, x2", "must be a [...] list"),
        ("f = x1^3 + x2^3\nvars = []", "vars list cannot be empty"),
        ("f = x1^3 + x2^3\ngroup = []", "cannot be empty"),
        ("f = x1^3 + x2^3\ncommand = render", "unknown command 'render'"),
        ("f = x1^3 + x2^3\ngroup = [spin]", "unknown generator atom 'spin'"),
        ("f = x1^3 + x2^3\ngroup = [Gd*jf]", "cannot be factors"),
        ("f = x1^3 + x2^3\ngroup = [diag(1/3)]", "diag takes 2 entries"),
        ("f = x1^3 + x2^3\ngroup = [diag(1/3, x)]", "expected a rational"),
        ("f = x1^3 + x2^3\ngroup = [perm(1 3)]", "indices 1..2"),
        ("f = x1^3 + x2^3\ngroup = [perm(1 1)]", "repeats an index"),
        ("f = x1^3 + x2^3\ngroup = [perm(1)]", "length >= 2"),
        ("f = x1*x2 + x1^3 + x2^3", "bad polynomial"),
        ("f = 2*x1^3/0 + x2^3", "line 1, column 4: bad polynomial: division by zero"),
        ("just words", "expected an assignment"),
    ],
)
def test_parse_job_errors(text, fragment):
    with pytest.raises(JobSyntaxError, match=r"line \d+, column \d+") as err:
        parse_job(text)
    assert fragment in str(err.value)


def test_syntax_error_location():
    with pytest.raises(JobSyntaxError, match="line 2, column 10"):
        parse_job("f = x1^3 + x2^3\ngroup = [diag(1/3)]")


# -- command payloads ----------------------------------------------------------


def test_run_analyze():
    report = run(parse_job(
        "f = x1^3 + x1*x2^2 + x1*x3^2 + x2^2*x3\ncommand = analyze"
    ))
    p = report.payload
    assert report.ok
    assert p["schema_version"] == 1
    assert p["weights"]["q"] == ["1/3", "1/3", "1/3"]
    assert p["graph"]["kappa"] == [1, 1, 1]
    assert p["calabi_yau"] is True
    assert p["classification"]["invertible"] is False
    assert "4 monomials" in p["classification"]["reason"]


def test_run_analyze_invertible_atoms():
    report = run(parse_job("f = x1^3 + x2^2*x3 + x3^4\ncommand = analyze"))
    cls = report.payload["classification"]
    assert cls["invertible"] is True
    kinds = sorted(a["kind"] for a in cls["atoms"])
    assert kinds == ["chain", "fermat"]


def test_run_symmetries():
    report = run(parse_job("f = x1^3 + x2^3\ncommand = symmetries"))
    p = report.payload
    assert p["diagonal_group"]["order"] == 9
    assert p["diagonal_group"]["invariant_factors"] == [3, 3]
    assert p["jf"] == {"phases": ["1/3", "1/3"], "order": 3, "det_one": False}
    assert p["sl_diagonal_order"] == 3


def test_run_jacobian():
    report = run(parse_job(
        "f = x1^5 + x2^5 + x3^5 + x4^5 + x5^5\ncommand = jacobian"
    ))
    p = report.payload
    assert p["mu"] == 1024
    assert p["c_hat"] == "3"
    assert p["oracle_agrees"] is True
    assert ["1", 101] in p["graded"]


def test_run_diamond_payload():
    report = run(parse_job(MAIN_JOB))
    p = report.payload
    assert report.ok
    assert p["diamond"] == {"D": 2, "h": [[1, 0, 1], [0, 20, 0], [1, 0, 1]]}
    assert p["total_dimension"] == 24
    assert p["group"] == {"order": 12, "conjugacy_class_count": 12}
    assert len(p["sectors"]) == 12
    assert p["sectors"][0] == {"g": "id", "Ng": 4, "age": "0", "mu": 165}
    assert all(c["pass"] for c in p["verification"]["checks"])


def test_run_diamond_sl_keyword():
    report = run(parse_job(
        "f = x1^3 + x2^3 + x3^3\ngroup = [SLd]\ncommand = diamond"
    ))
    p = report.payload
    assert p["group"]["order"] == 9
    assert p["diamond"] == {"D": 1, "h": [[1, 1], [1, 1]]}
    assert p["total_dimension"] == 4
    assert report.ok


def test_run_diamond_gd_keyword_skips_verify():
    job = parse_job("f = x1^3 + x2^3 + x3^3\ngroup = [Gd]\ncommand = diamond")
    report = run(Job(**{**job.__dict__, "verify": False}))
    p = report.payload
    assert p["group"]["order"] == 27
    assert p["verification"] is None
    assert p["total_dimension"] == 1
    assert report.ok


@pytest.mark.parametrize("command", COMMANDS)
def test_job_parses_f_once(command, monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return parse_polynomial(*args)

    monkeypatch.setattr(cli, "parse_polynomial", spy)
    run(parse_job(f"f = x1^3 + x2^3 + x3^3\ncommand = {command}"))
    assert len(calls) == 1


def test_json_round_trip():
    report = run(parse_job(MAIN_JOB))
    assert json.loads(report.to_json()) == report.payload


# -- rendering -----------------------------------------------------------------


def test_render_diamond_rows():
    assert render_diamond([[1, 0, 1], [0, 20, 0], [1, 0, 1]]) == [
        "    1",
        "  0   0",
        "1   20  1",
        "  0   0",
        "    1",
    ]
    assert render_diamond([[1, 0, 0, 0], [0, 37, 2, 0], [0, 2, 37, 0], [0, 0, 0, 1]]) == [
        "      1",
        "    0   0",
        "  0   37  0",
        "0   2   2   0",
        "  0   37  0",
        "    0   0",
        "      1",
    ]


def test_main_text_golden(tmp_path, capsys):
    jobfile = tmp_path / "main.job"
    jobfile.write_text(MAIN_JOB)
    assert main([str(jobfile)]) == 0
    assert capsys.readouterr().out == MAIN_TEXT


# -- exit codes and flags ------------------------------------------------------


def run_cli(tmp_path, capsys, job_text, *flags):
    jobfile = tmp_path / "job.job"
    jobfile.write_text(job_text)
    code = main([str(jobfile), *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_syntax_error_exit_code(tmp_path, capsys):
    code, out, err = run_cli(
        tmp_path, capsys, "f = x1^4 + x2^4 + x3^4 + x4^2\ngroup = [diag(1/2)]\n"
    )
    assert code == 1 and not out
    assert "diag takes 4 entries" in err


def test_cli_precondition_exit_code(tmp_path, capsys):
    code, out, err = run_cli(
        tmp_path, capsys, "f = x1^3 + x2^3 + x3^3\ngroup = [Gd]\n"
    )
    assert code == 2 and not out
    assert "determinant" in err


def test_cli_computation_error_exit_code(tmp_path, capsys):
    # non-CY polynomial: fractional charges surface as a computation error
    code, out, err = run_cli(tmp_path, capsys, "f = x1^3 + x2^3\ngroup = [SLd]\n")
    assert code == 1 and not out
    assert "non-integer charge" in err


def test_cli_one_variable_diamond(tmp_path, capsys):
    # D = N - 2 is negative, so there is no charge table to fill
    code, out, err = run_cli(tmp_path, capsys, "f = x1^3\ncommand = diamond\n")
    assert code == 1 and not out
    assert "needs N >= 2 variables (D = N - 2)" in err


@pytest.mark.parametrize("command", ["analyze", "symmetries", "jacobian", "diamond"])
@pytest.mark.parametrize(
    "constant",
    [
        "5",
        "0",
        pytest.param("0\ngroup = [perm(1 2)]", id="0-perm"),
        pytest.param("0\ngroup = [diag(1/2)]", id="0-diag"),
    ],
)
def test_cli_constant_polynomial(tmp_path, capsys, constant, command):
    # a constant is rejected before its generators are read against no variables
    code, out, err = run_cli(tmp_path, capsys, f"f = {constant}\ncommand = {command}\n")
    assert code == 1 and not out
    assert err == "error: f has no variables; a constant defines no singularity\n"


def test_cli_jacobian_oracle_exit_code(tmp_path, capsys, monkeypatch):
    job = "f = x1^3 + x2^3 + x3^3\ncommand = jacobian\n"
    code, out, _ = run_cli(tmp_path, capsys, job)
    assert code == 0 and "DISAGREES" not in out
    # a weight-series oracle that disagrees fails the job like a failed check
    monkeypatch.setattr("lgdiamond.cli.poincare_dimensions", lambda w: {})
    code, out, _ = run_cli(tmp_path, capsys, job)
    assert code == 2
    assert "DISAGREES" in out


def test_cli_closure_cap(tmp_path, capsys):
    code, out, err = run_cli(
        tmp_path, capsys,
        "f = x1^3 + x2^3 + x3^3\ngroup = [Gd]\n",
        "--closure-cap", "5",
    )
    assert code == 1
    assert "cap" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_cli_closure_cap_below_one_is_a_usage_error(tmp_path, capsys, cap):
    jobfile = tmp_path / "job.job"
    jobfile.write_text("f = x1^3 + x2^3 + x3^3\n")
    with pytest.raises(SystemExit) as exc:
        main([str(jobfile), "--closure-cap", cap])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert f"--closure-cap must be at least 1, not {cap}" in captured.err
    # a cap equal to the order of <J> lets its closure finish
    code, out, _ = run_cli(tmp_path, capsys, "f = x1^3 + x2^3 + x3^3\n", "--closure-cap", "3")
    assert code == 0 and "group: order 3," in out


def test_cli_milnor_bound(tmp_path, capsys):
    # mu = 19999^2 is read from the weights and refused before any Groebner work
    code, out, err = run_cli(
        tmp_path, capsys, "f = x1^20000 + x2^20000\ncommand = jacobian\n"
    )
    assert code == 1 and not out
    assert err == "error: the weights give Milnor number 399960001, over the bound 10000000\n"


def test_cli_no_verify_and_json(tmp_path, capsys):
    code, out, err = run_cli(
        tmp_path, capsys,
        "f = x1^3 + x2^3 + x3^3\ngroup = [Gd]\n",
        "--format", "json", "--no-verify",
    )
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["verification"] is None
    assert payload["diamond"]["h"] == [[1, 0], [0, 0]]


def test_cli_output_file(tmp_path, capsys):
    jobfile = tmp_path / "job.job"
    jobfile.write_text(MAIN_JOB)
    outfile = tmp_path / "report.json"
    code = main([str(jobfile), "--format", "json", "--output", str(outfile)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(outfile.read_text())["total_dimension"] == 24


def test_cli_missing_file(tmp_path, capsys):
    code = main([str(tmp_path / "absent.job")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_unwritable_output(tmp_path, capsys):
    jobfile = tmp_path / "job.job"
    jobfile.write_text(MAIN_JOB)
    code = main([str(jobfile), "--output", str(tmp_path / "absent" / "out.txt")])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "absent" in captured.err


def test_cli_job_file_not_utf8(tmp_path, capsys):
    jobfile = tmp_path / "job.job"
    jobfile.write_bytes(b"\xff\xfe")
    code = main([str(jobfile)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err == (
        "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


def test_cli_import_freezes_the_heap_and_later_rings_are_collected(monkeypatch):
    # importing lgdiamond.cli froze what it imported
    assert gc.get_freeze_count() > 0
    monkeypatch.setattr(jacobian, "_RING_CACHE", {})
    f, _ = parse_polynomial("x1^3 + x2^5")
    ring = jacobian.quotient_ring(f, analyze_weights(f)[2])
    assert ring.standard  # listed, so the ring holds all it can
    ref = weakref.ref(ring)
    del ring
    jacobian._RING_CACHE.clear()
    gc.collect()
    assert ref() is None
