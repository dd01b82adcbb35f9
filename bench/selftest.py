"""Fast self-test of the benchmark at reduced size (about a minute).

    python3 bench/selftest.py        # from the root of a source checkout

Runs every workload with ``--scale 0.05`` once untraced and once traced and
asserts that the last output line is the result object with every metric
named in BENCHMARK.json, with its unit; that a forced wrong expectation is
counted as a failed check; that the benchmark refuses to run without the
innovlab sources; and that no file outside bench/.work/ is created or
changed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"
SKIP = {".git", ".work", "__pycache__", ".pytest_cache", ".hypothesis"}
SCALE = "0.05"


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--scale", SCALE, "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(*args) -> dict:
    proc = bench(*args)
    assert proc.returncode == 0, f"{args}: exit {proc.returncode}\n{proc.stderr}"
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert isinstance(out["failed"], int) and 0 <= out["failed"] <= out["attempted"]
    assert out["correct"] == (out["failed"] == 0)
    return out


def assert_metrics(out: dict, spec: list[dict], label: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == want, f"{label}: metrics {got} differ from BENCHMARK.json {want}"
    for name, m in out["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name} = {m['value']!r}"


def tree_state() -> dict:
    state = {}
    for path in ROOT.rglob("*"):
        rel = path.relative_to(ROOT)
        if path.is_file() and not SKIP.intersection(rel.parts):
            st = path.stat()
            state[str(rel)] = (st.st_size, st.st_mtime_ns)
    return state


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = tree_state()

    for w in spec["workloads"]:
        name = w["name"]
        plain = result("--workload", name, "--trace", "0")
        assert_metrics(plain, spec["end_to_end"], f"{name} trace 0")
        traced = result("--workload", name, "--trace", "1")
        assert_metrics(traced, spec["per_layer"], f"{name} trace 1")
        print(f"selftest {name}: metrics ok, checks {plain['failed']}/{plain['attempted']} failed")

    # --seconds 0 runs one workload process, so exactly one check turns wrong
    name = spec["workloads"][0]["name"]
    plain = result("--workload", name)
    forced = result("--workload", name, "--force-wrong")
    assert forced["attempted"] == plain["attempted"], (plain, forced)
    assert forced["failed"] == plain["failed"] + 1, (plain, forced)
    assert forced["metrics"]["check_pass_frac"]["value"] < plain["metrics"]["check_pass_frac"]["value"]
    print(f"selftest {name}: forced wrong expectation counted "
          f"({plain['failed']} -> {forced['failed']} of {forced['attempted']})")

    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*"):
        if path.is_file():
            shutil.copy(path, bare / "bench")
    proc = bench("--workload", name, cwd=bare)
    assert proc.returncode != 0, "benchmark ran without the innovlab sources"
    assert not proc.stdout.strip(), f"printed output without sources: {proc.stdout!r}"
    shutil.rmtree(bare)
    print("selftest: refuses to run without sources")

    after = tree_state()
    changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    assert not changed, f"files outside bench/.work changed: {changed}"
    print("selftest ok: no file outside bench/.work changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
