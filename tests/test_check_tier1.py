"""tools/check_tier1.py passes a report only when the one test that fails
on purpose fails and nothing else fails or errors."""

import importlib.util

import pytest

from conftest import REPO

spec = importlib.util.spec_from_file_location(
    "check_tier1", REPO / "tools" / "check_tier1.py"
)
check_tier1 = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_tier1)


def case(name, outcome=None, classname="tests.test_a"):
    body = f'<{outcome} message="x" />' if outcome else ""
    return f'<testcase classname="{classname}" name="{name}">{body}</testcase>'


ORACLE = "test_criterion_3_closed_form_micro_oracle"


@pytest.mark.parametrize(
    "cases, code",
    [
        ([case("ok"), case("skip", "skipped"), case(ORACLE, "failure")], 0),
        ([case("ok"), case(ORACLE)], 1),
        ([case("ok"), case(ORACLE, "error")], 1),
        ([case("ok")], 1),
        ([case(ORACLE, "failure"), case("bad", "failure")], 1),
        ([case(ORACLE, "failure"), case("tests.test_broken", "error", classname="")], 1),
        ([case(ORACLE, "failure"), case("ok"), case("ok", "error")], 1),
        ([], 1),
    ],
    ids=["expected", "oracle-passes", "oracle-errors", "oracle-missing", "other-fails",
         "collection-error", "reported-twice", "empty"],
)
def test_gate(tmp_path, capsys, cases, code):
    path = tmp_path / "junit.xml"
    path.write_text(
        f'<testsuites><testsuite name="pytest">{"".join(cases)}</testsuite></testsuites>'
    )
    assert check_tier1.main([str(path)]) == code
