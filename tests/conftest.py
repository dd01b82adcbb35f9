"""Session guard: a test run leaves the git tree as it found it.

The porcelain status (untracked files listed one by one) is recorded when
the session starts and compared when it ends; any difference fails the
session and names the entries that changed.  Without git or outside a git
work tree the guard does nothing.

The `other_blas_threads` fixture runs a test with numpy's OpenBLAS set to a
thread count other than its default, one thread or two when the default is
one, so that it can compare a result at two real thread counts.  That
OpenBLAS is the only BLAS a run loads, so the fixture sets the threads of
every matrix product and factorization the package runs.

The `max_processes` fixture caps the processes that `core.fork_map` deals
its items over, whatever the machine's CPU count: 1 runs everything in the
calling process, where a test's spies see every call.
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
def other_blas_threads():
    """Yields a context that sets numpy's OpenBLAS, the package's only BLAS, to
    one thread, or to two when its default is one; the default count is
    restored when the context ends and again after the test.  Skips when
    OpenBLAS cannot be set to that count."""
    api = _openblas_threads()
    if api is None:
        pytest.skip("numpy ships no OpenBLAS whose thread count can be set")
    get, set_ = api
    default = get()
    other = 2 if default == 1 else 1

    class OtherThreads:
        def __enter__(self):
            set_(other)

        def __exit__(self, *exc):
            set_(default)

    try:
        with OtherThreads():
            if get() != other:
                pytest.skip(f"OpenBLAS stays at {get()} threads when set to {other}")
        yield OtherThreads()
    finally:
        set_(default)


@pytest.fixture
def max_processes(monkeypatch):
    """A function p -> None that makes `core.fork_map` use min(p, items)
    processes until the test ends."""
    from innovlab import core

    def cap(p):
        monkeypatch.setattr(core, "_fork_processes", lambda items: min(p, items))
    return cap
