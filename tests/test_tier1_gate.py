import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "tier1_gate.py"
_SPEC = importlib.util.spec_from_file_location("tier1_gate", _PATH)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)

_3A, _4B, _6B = sorted(gate.EXPECTED)


def _report(tmp_path, cases):
    """A JUnit XML report of (classname, name, child tag or None) test cases."""
    body = "".join(
        f'<testcase classname="{cls}" name="{name}">' + (f'<{tag} message="m"/>' if tag else "") + "</testcase>"
        for cls, name, tag in cases)
    path = tmp_path / "report.xml"
    path.write_text(f'<testsuites><testsuite name="pytest">{body}</testsuite></testsuites>')
    return path


def _case(key, tag):
    return (*key.split("::"), tag)


def test_exactly_the_expected_failures_pass_the_gate(tmp_path):
    cases = [_case(key, "failure") for key in (_3A, _4B, _6B)]
    cases += [("tests.test_cli", "test_ok", None), ("tests.test_cli", "test_skipped", "skipped")]
    assert gate.verdict(gate.outcomes(_report(tmp_path, cases))) == ([], [])


def test_other_failures_and_missing_expected_ones_fail_the_gate(tmp_path):
    # a failure, a collection error and a teardown error elsewhere; 3a passes and 6b does not run
    cases = [_case(_3A, None), _case(_4B, "failure"), ("tests.test_cli", "test_bad", "failure"),
             ("", "tests.test_broken", "error"), ("tests.test_cli", "test_torn", None),
             ("tests.test_cli", "test_torn", "error")]
    cases_read = gate.outcomes(_report(tmp_path, cases))
    assert gate.verdict(cases_read) == (["::tests.test_broken", "tests.test_cli::test_bad",
                                         "tests.test_cli::test_torn"], [_3A, _6B])
