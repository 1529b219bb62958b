"""Gate a tier-1 pytest run on its junit XML report.

Usage: python tools/check_tier1.py REPORT.xml

The tier-1 suite has one test that fails on purpose,
``test_criterion_3_closed_form_micro_oracle``: its expected value contradicts
the closed form every solver keeps (see ROADMAP.md). So the run's exit code
says nothing, and this script reads its report instead. It exits 0 when
every other test passed or was skipped and that one test failed; it exits 1
when any other test failed or errored (collection errors included), when
that test passed, errored or is missing, or when the report holds no tests.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURE = "test_criterion_3_closed_form_micro_oracle"


# Outcomes from best to worst; a test reported twice keeps its worst.
OUTCOMES = ("passed", "skipped", "failed", "error")
TAGS = {"skipped": "skipped", "failure": "failed", "error": "error"}


def outcomes(path: str) -> dict[str, str]:
    """Test id -> "passed", "skipped", "failed" or "error"."""
    found: dict[str, str] = {}
    for case in ET.parse(path).getroot().iter("testcase"):
        test_id = f"{case.get('classname', '')}::{case.get('name', '')}"
        seen = [found.get(test_id, "passed")]
        seen += [TAGS[child.tag] for child in case if child.tag in TAGS]
        found[test_id] = max(seen, key=OUTCOMES.index)
    return found


def problems(found: dict[str, str]) -> list[str]:
    if not found:
        return ["the report holds no tests"]
    out = []
    expected = [t for t in found if t.rsplit("::", 1)[-1] == EXPECTED_FAILURE]
    if len(expected) != 1:
        out.append(f"{EXPECTED_FAILURE}: found {len(expected)} times, not once")
    for test_id in expected:
        if found[test_id] != "failed":
            out.append(f"{test_id}: {found[test_id]}, but it must fail")
    for test_id, outcome in found.items():
        if test_id not in expected and outcome in ("failed", "error"):
            out.append(f"{test_id}: {outcome}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    found = outcomes(argv[0])
    bad = problems(found)
    kinds = list(found.values())
    print(", ".join(f"{kinds.count(k)} {k}" for k in OUTCOMES))
    for line in bad:
        print(f"tier-1: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
