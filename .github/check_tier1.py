"""Compare a Tier-1 JUnit report with the ledger of by-design failures.

Usage: python .github/check_tier1.py REPORT.xml LEDGER.txt

REPORT.xml comes from ``pytest --junitxml``.  LEDGER.txt lists one pytest
node ID per line (``#`` starts a comment); each is an acceptance cell that
``DECISIONS.md`` explains.  Exit status 1, with one line per finding, when
a test outside the ledger fails or errors, when any test is skipped, or
when a ledger cell passes or is missing from the run: a mended cell has to
leave the ledger and ``DECISIONS.md`` in the same change.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET


def junit_key(node_id: str) -> tuple[str, str]:
    """(classname, name) under which pytest's JUnit report files a node ID."""
    path, *scopes, name = node_id.split("::")
    return ".".join([path.removesuffix(".py").replace("/", "."), *scopes]), name


def outcomes(report: str) -> dict[tuple[str, str], str]:
    found = {}
    for case in ET.parse(report).iter("testcase"):
        kinds = [child.tag for child in case
                 if child.tag in ("failure", "error", "skipped")]
        found[case.get("classname"), case.get("name")] = kinds[0] if kinds else "passed"
    return found


def main(report: str, ledger: str) -> int:
    with open(ledger) as fh:
        listed = [line.split("#")[0].strip() for line in fh]
    expected = {junit_key(node): node for node in listed if node}
    run = outcomes(report)
    problems = [f"{node}: listed as failing by design, but missing from the run"
                for key, node in expected.items() if key not in run]
    for key, kind in sorted(run.items()):
        name = "::".join(key)
        if key in expected:
            if kind != "failure":
                problems.append(f"{expected[key]}: listed as failing by design, "
                                f"but {kind}; update the ledger and DECISIONS.md")
        elif kind != "passed":
            problems.append(f"{name}: {kind}")
    print(f"{len(run)} tests, {len(expected)} listed as failing by design, "
          f"{len(problems)} problems")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.splitlines()[2])
    sys.exit(main(*sys.argv[1:]))
