"""Session guard: a test run leaves the git tree as it found it.

The porcelain status (untracked files listed one by one) is recorded when
the session starts and compared when it ends; any difference fails the
session and names the entries that changed.  Without git or outside a git
work tree the guard does nothing.

The `one_blas_thread` fixture runs a test with numpy's OpenBLAS set to one
thread, so that it can compare a result with the one at the default count.
"""

import ctypes
import os
import subprocess
from pathlib import Path

import numpy as np

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


def _openblas_threads():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype = ctypes.c_int
                set_.argtypes = [ctypes.c_int]
                return get, set_
    return None


@pytest.fixture
def one_blas_thread():
    """Yields a context that sets OpenBLAS to one thread; the default count is
    restored when the context ends and again after the test."""
    api = _openblas_threads()
    if api is None:
        pytest.skip("numpy ships no OpenBLAS whose thread count can be set")
    get, set_ = api
    default = get()

    class OneThread:
        def __enter__(self):
            set_(1)
            assert get() == 1

        def __exit__(self, *exc):
            set_(default)

    try:
        yield OneThread()
    finally:
        set_(default)
