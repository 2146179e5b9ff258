"""Command-line reports against the golden files in tests/golden/.

Each diamond job runs in every mode of make_golden.py (text and JSON,
with and without verification), each jacobian, analyze and symmetries
job in text and JSON; stdout, stderr and the exit code must match the
recorded bytes.
"""

import json

import pytest

from make_golden import (
    COMMAND_JOBS,
    GOLDEN,
    JACOBIAN_JOBS,
    JACOBIAN_MODES,
    JOBS,
    MODES,
    golden_runs,
    job_path,
    job_text,
    run_cli,
)

STATUS = json.loads((GOLDEN / "status.json").read_text())


def assert_matches_golden(name, mode):
    out, err, code = run_cli([job_path(name), *MODES[mode]])
    assert out == (GOLDEN / f"{name}.{mode}.out").read_text()
    assert {"exit": code, "stderr": err} == STATUS[f"{name}.{mode}"]


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("name", list(JOBS))
def test_report_matches_golden(name, mode):
    assert_matches_golden(name, mode)


@pytest.mark.parametrize("mode", JACOBIAN_MODES)
@pytest.mark.parametrize("name", list(JACOBIAN_JOBS))
def test_jacobian_report_matches_golden(name, mode):
    assert_matches_golden(name, mode)


@pytest.mark.parametrize("mode", JACOBIAN_MODES)
@pytest.mark.parametrize("name", list(COMMAND_JOBS))
def test_command_report_matches_golden(name, mode):
    assert_matches_golden(name, mode)


def test_golden_job_files_match_the_job_list():
    for name in [*JOBS, *JACOBIAN_JOBS, *COMMAND_JOBS]:
        assert job_path(name).read_text() == job_text(name)
    assert set(STATUS) == {f"{name}.{mode}" for name, mode in golden_runs()}
