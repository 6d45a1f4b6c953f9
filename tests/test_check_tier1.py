"""The CI ledger check: synthetic JUnit reports against a small ledger."""

import subprocess
import sys
from pathlib import Path

import pytest

CHECK = Path(__file__).resolve().parents[1] / ".github" / "check_tier1.py"

LISTED = "tests/test_acceptance.py::TestCell::test_cell[k0]"
LEDGER = f"# one cell that fails by design\n{LISTED}\n"


def case(classname: str, name: str, outcome: str = "passed") -> str:
    body = "" if outcome == "passed" else f'<{outcome} message="m"/>'
    return f'<testcase classname="{classname}" name="{name}">{body}</testcase>'


LISTED_FAILS = case("tests.test_acceptance.TestCell", "test_cell[k0]", "failure")
OTHER_PASSES = case("tests.test_kernels.TestSpec", "test_order_cap")


def run_check(tmp_path: Path, *cases: str) -> tuple[int, list[str]]:
    """Exit status and finding lines (the lines after the summary)."""
    report = tmp_path / "tier1.xml"
    report.write_text('<testsuites><testsuite name="pytest">'
                      + "".join(cases) + "</testsuite></testsuites>")
    ledger = tmp_path / "ledger.txt"
    ledger.write_text(LEDGER)
    done = subprocess.run([sys.executable, str(CHECK), str(report), str(ledger)],
                          capture_output=True, text=True, check=False)
    return done.returncode, done.stdout.splitlines()[1:]


def test_listed_failure_alone_passes(tmp_path):
    assert run_check(tmp_path, LISTED_FAILS, OTHER_PASSES) == (0, [])


@pytest.mark.parametrize("cases, finding", [
    ((LISTED_FAILS, case("tests.test_kernels.TestSpec", "test_order_cap", "failure")),
     "tests.test_kernels.TestSpec::test_order_cap: failure"),
    ((LISTED_FAILS, case("tests.test_kernels.TestSpec", "test_order_cap", "error")),
     "tests.test_kernels.TestSpec::test_order_cap: error"),
    ((LISTED_FAILS, case("tests.test_kernels.TestSpec", "test_order_cap", "skipped")),
     "tests.test_kernels.TestSpec::test_order_cap: skipped"),
    ((case("tests.test_acceptance.TestCell", "test_cell[k0]"), OTHER_PASSES),
     f"{LISTED}: listed as failing by design, but passed"),
    ((OTHER_PASSES,),
     f"{LISTED}: listed as failing by design, but missing from the run"),
], ids=["unlisted-failure", "unlisted-error", "skipped", "listed-passes",
        "listed-missing"])
def test_each_problem_is_one_finding(tmp_path, cases, finding):
    status, lines = run_check(tmp_path, *cases)
    assert status == 1
    assert len(lines) == 1 and lines[0].startswith(finding)


def test_every_problem_is_reported(tmp_path):
    status, lines = run_check(
        tmp_path,
        case("tests.test_kernels.TestSpec", "test_order_cap", "failure"),
        case("tests.test_kernels.TestSpec", "test_bad_width", "skipped"))
    assert status == 1
    assert len(lines) == 3
    assert lines[0].startswith(f"{LISTED}: listed as failing by design, but missing")
