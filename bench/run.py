"""innovlab benchmark: run experiment workloads, check them, print metrics.

Run from the root of a source checkout (it imports innovlab from ./src):

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--scale F] [--force-wrong] [--record-ref]

Every measurement is a fresh `child.py` process, one at a time, with
``workers = 1`` and OpenBLAS at its default thread count.  With ``--trace 0``
a run alternates a set-up-only process and a workload process for as long
as another pair still fits in ``--seconds`` (at least once), fills the rest
of the window with set-up-only processes (at least SETUP_SAMPLES in all),
and reports medians of the end-to-end metrics.  A slow machine gets fewer
runs rather than a longer benchmark.  With ``--trace 1`` it alternates an untraced and a traced run and reports
the per-layer metrics of `tracing.py` plus the tracing overhead.

Every output goes under bench/.work/<workload>/.  The last stdout line is
one JSON object: correct, attempted and failed count the output checks of
`workloads.py` and the results.csv digest agreement between runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracing import LAYER_METRICS, median_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"
SETUP_SAMPLES = 3
DEADLINE_S = 170  # every child is stopped before the whole run reaches this

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "check_pass_frac": "ratio"}


def steal_s() -> float:
    """CPU time the hypervisor took from this machine, summed over its CPUs."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def env_record() -> dict:
    """Machine and source facts stored with every output."""
    commit = None
    if (ROOT / ".git").exists():  # a plain source copy has no commit of its own
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "innovlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": src.hexdigest(), "nproc": os.cpu_count(),
            "load1_at_start": os.getloadavg()[0]}


class Runner:
    def __init__(self, args, env: dict):
        self.args = args
        self.env = env
        self.started = time.monotonic()

    def child(self, workload: str, seed: int, mode: str, outdir: Path) -> dict:
        cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
               "--seed", str(seed), "--scale", str(self.args.scale),
               "--outdir", str(outdir), "--mode", mode, "--env", json.dumps(self.env)]
        if self.args.force_wrong:
            cmd.append("--force-wrong")
        env = dict(os.environ, INNOVLAB_OUTDIR=str(outdir))
        budget = DEADLINE_S - (time.monotonic() - self.started)
        t0, steal0 = time.monotonic(), steal_s()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(budget, 1.0))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{workload} {mode} child failed with code {proc.returncode}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["wall_s"] = time.monotonic() - t0
        out["steal_s"] = steal_s() - steal0
        return out


def run_workload(runner: Runner, name: str) -> dict:
    args = runner.args
    workload = WORKLOADS[name]
    seed = workload.default_seed if args.seed is None else args.seed
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    t0 = time.monotonic()

    def fits(unit_s):
        return time.monotonic() - t0 + unit_s <= args.seconds

    setup_only, runs, traced = [], [], []

    def setup_sample():
        i = len(setup_only)
        setup_only.append(runner.child(name, seed, "setup", workdir / f"setup{i}"))

    while True:
        i = len(runs)
        if not args.trace:
            setup_sample()
        runs.append(runner.child(name, seed, "run", workdir / f"run{i}"))
        unit = median(r["wall_s"] for r in runs)
        if args.trace:
            traced.append(runner.child(name, seed, "traced", workdir / f"traced{i}"))
            unit += median(t["wall_s"] for t in traced)
        else:
            unit += median(s["wall_s"] for s in setup_only)
        if not fits(unit):
            break
    # the rest of the window, too short for another workload run, samples set-up
    while not args.trace and (len(setup_only) < SETUP_SAMPLES
                              or fits(median(s["wall_s"] for s in setup_only))):
        setup_sample()
    setups = [s["setup_s"] for s in setup_only + runs]

    outputs = runs + traced
    digests = sorted({o["results_sha256"] for o in outputs})
    check_rows = [c for o in outputs for c in o["checks"]]
    check_rows.append({"name": "results.csv digest identical across runs",
                       "observed": len(digests), "expected": 1, "ok": len(digests) == 1})
    failed = [c for c in check_rows if not c["ok"]]
    passed = len(check_rows) - len(failed)

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref = reference.get(name, {}).get(str(seed)) if args.scale == 1.0 else None
    match_ref = None if ref is None else digests == [ref]
    if args.record_ref and args.scale == 1.0 and len(digests) == 1:
        reference.setdefault(name, {})[str(seed)] = digests[0]
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")

    if args.trace:
        layers = median_metrics([t["layers"] for t in traced])
        run_s = median(r["run_s"] for r in runs)
        layers["harness.trace_overhead_frac"] = layers["harness.traced_total_s"] / run_s - 1.0
        metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_METRICS.items()}
    else:
        values = {
            "run_s": median(r["run_s"] for r in runs),
            "setup_s": median(setups),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in runs),
            "check_pass_frac": passed / len(check_rows),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    summary = {
        "workload": name, "seed": seed, "scale": args.scale, "trace": args.trace,
        "env": {**runner.env, **runs[0]["env"]},
        "runs": len(runs), "traced_runs": len(traced), "setup_samples": len(setups),
        "results_sha256": digests, "results_match_ref": match_ref,
        "checks_attempted": len(check_rows), "checks_failed": len(failed),
        "check_fail_frac": len(failed) / len(check_rows),
        "failed_checks": failed, "metrics": metrics,
        "samples": {"run_s": [r["run_s"] for r in runs], "setup_s": setups,
                    "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
                    "steal_s": [o["steal_s"] for o in outputs],
                    "traced_total_s": [t["layers"]["harness.traced_total_s"] for t in traced]},
    }
    (workdir / "summary.json").write_text(json.dumps(summary, indent=1, default=str) + "\n")
    report(summary)
    return summary


def report(s: dict) -> None:
    env = s["env"]
    blas = env["blas"]
    print(f"== {s['workload']} seed={s['seed']} scale={s['scale']} trace={s['trace']} "
          f"runs={s['runs']} traced_runs={s['traced_runs']} setup_samples={s['setup_samples']}")
    print(f"   env commit={env['commit']} src_sha256={env['src_sha256'][:16]} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={blas['name']} {blas['version']} "
          f"threads={blas['threads']} load1={env['load1_at_start']:.2f} "
          f"steal_s={sum(s['samples']['steal_s']):.2f}")
    for c in s["failed_checks"]:
        print(f"   FAILED {c['name']}: observed {c['observed']!r}, expected {c['expected']!r}")
    print(f"   check_fail_frac={s['checks_failed']}/{s['checks_attempted']}"
          f"={s['check_fail_frac']:.4g} results_match_ref={json.dumps(s['results_match_ref'])} "
          f"results_sha256={','.join(d[:16] for d in s['results_sha256'])}")
    for k, m in s["metrics"].items():
        print(f"   {k} = {m['value']:.6g} {m['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=None,
                    help="experiment seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply the workload's path count (self-test uses < 1)")
    ap.add_argument("--force-wrong", action="store_true",
                    help="give the first check of every run a wrong expectation")
    ap.add_argument("--record-ref", action="store_true",
                    help="store this run's results.csv digest as the reference")
    args = ap.parse_args()
    # exit through SystemExit, so that a running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "innovlab" / "__init__.py").is_file():
        print(f"no innovlab sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    env = env_record()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = [run_workload(Runner(args, env), n) for n in names]
    attempted = sum(s["checks_attempted"] for s in summaries)
    failed = sum(s["checks_failed"] for s in summaries)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}/{k}": m for s in summaries for k, m in s["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
