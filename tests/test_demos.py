import glob
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import innovlab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=[os.path.basename(d)[:-3] for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # run from an empty directory so that a demo cannot leave files in the tree
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_demos_found():
    assert len(DEMOS) == 7


def test_every_exported_name_resolves():
    for name in innovlab.__all__:
        assert hasattr(innovlab, name), name
    for info in pkgutil.iter_modules(innovlab.__path__):
        mod = importlib.import_module(f"innovlab.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"innovlab.{info.name}.{name}"
