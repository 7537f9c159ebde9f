import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# The CLI tests start Python subprocesses; they import hyperstat from this
# checkout as the test process does (pyproject.toml's pythonpath).
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")))
)

_ACCEPTANCE_RESULTS = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and "test_acceptance" in str(item.fspath):
        _ACCEPTANCE_RESULTS.append((item.name, report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in _ACCEPTANCE_RESULTS:
        mark = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"[{mark}] {name}")
