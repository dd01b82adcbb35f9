"""Session guard: a test run leaves the git tree as it found it.

The porcelain status (untracked files listed one by one) is recorded when
the session starts and compared when it ends; any difference fails the
session and names the entries that changed.  Without git or outside a git
work tree the guard does nothing.
"""

import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git_status():
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"],
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout if proc.returncode == 0 else None


def pytest_sessionstart(session):
    session.config._git_status_before = _git_status()


def pytest_sessionfinish(session, exitstatus):
    before = getattr(session.config, "_git_status_before", None)
    if before is None:
        return
    after = _git_status()
    if after is None or after == before:
        return
    changed = sorted(set(before.splitlines()) ^ set(after.splitlines()))
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line("")  # ends the progress line
        reporter.write_sep("=", "the test run changed the git tree", red=True)
        for line in changed:
            reporter.write_line(line)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
