import os
from pathlib import Path

import pytest

# tests also run the CLI in child processes: give them the package's source
# tree, as pyproject's pytest pythonpath gives this process
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

_criterion_lines: list[str] = []


@pytest.fixture(scope="session")
def acceptance_report():
    """Collector for per-criterion result lines, echoed after the run."""
    return _criterion_lines.append


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)
