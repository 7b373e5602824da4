"""Run the tier-1 test suite and pass only when it fails exactly where it is expected to.

    python3 tools/tier1_gate.py

runs the tier-1 command of ROADMAP.md,

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

from the repository root, and reads the JUnit XML report it writes to a
temporary directory.  README.md lists three acceptance clauses under
"Expected acceptance failures" (3a, 4b and 6b): published claims that the
model's measured behaviour disproves, kept as stated.  The gate exits 0 only
when the failed and errored tests are exactly those three.  Otherwise it
prints every other failure or error (a collection error included), and each
of the three that passed or did not run, and exits 1.  It changes no test
and no marker.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = {
    "tests.test_acceptance::test_criterion_3a_condensate_fraction",
    "tests.test_acceptance::test_criterion_4b_excited_cloud_ft",
    "tests.test_acceptance::test_criterion_6b_shape_function_slope",
}


def outcomes(report):
    """{'classname::name': failed} for every test case of a JUnit XML report; an error counts as a failure."""
    cases = {}
    for case in ElementTree.parse(report).iter("testcase"):
        key = f"{case.get('classname', '')}::{case.get('name', '')}"
        failed = case.find("failure") is not None or case.find("error") is not None
        cases[key] = cases.get(key, False) or failed
    return cases


def verdict(cases):
    """The failures outside EXPECTED, and the EXPECTED tests that passed or did not run."""
    failed = {key for key, bad in cases.items() if bad}
    return sorted(failed - EXPECTED), sorted(EXPECTED - failed)


def main():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                   f"--junitxml={report}"]
        subprocess.run(command, cwd=ROOT, env=env, check=False)
        if not report.exists():
            print("tier-1 gate: pytest wrote no report")
            return 1
        cases = outcomes(report)
    unexpected, missing = verdict(cases)
    for key in unexpected:
        print(f"tier-1 gate: unexpected failure: {key}")
    for key in missing:
        state = "passed" if key in cases else "did not run"
        print(f"tier-1 gate: expected failure {state}: {key}")
    ok = not unexpected and not missing
    print(f"tier-1 gate: {len(cases)} tests, {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
