"""Command-line reports against the golden files in tests/golden/.

Each job runs in every mode of make_golden.py (text and JSON, with and
without verification); stdout, stderr and the exit code must match the
recorded bytes.
"""

import json

import pytest

from make_golden import GOLDEN, JOBS, MODES, job_path, run_cli

STATUS = json.loads((GOLDEN / "status.json").read_text())


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("name", list(JOBS))
def test_report_matches_golden(name, mode):
    out, err, code = run_cli([job_path(name), *MODES[mode]])
    assert out == (GOLDEN / f"{name}.{mode}.out").read_text()
    assert {"exit": code, "stderr": err} == STATUS[f"{name}.{mode}"]


def test_golden_job_files_match_the_job_list():
    for name, (f, group) in JOBS.items():
        assert job_path(name).read_text() == f"f = {f}\ngroup = {group}\n"
