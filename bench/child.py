"""One fresh-process measurement: set up, optionally run one experiment.

Run from the root of a source checkout; imports innovlab from ./src only.

    python3 bench/child.py --workload NAME --seed N --scale F --outdir DIR \
        --mode setup|run|traced [--force-wrong] [--env JSON]

Prints one JSON object on its last stdout line.  ``setup`` times importing
innovlab, parsing the config and resolving the model; ``run`` also times
`harness.run_experiment` with tracing off; ``traced`` runs it with the spans
of `tracing.py` installed and writes them to DIR/spans.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, checks, force_wrong

SRC = Path.cwd() / "src"


def blas_info() -> dict:
    """BLAS library name and the thread count it would use."""
    import ctypes
    import glob
    import os

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    ap.add_argument("--force-wrong", action="store_true")
    ap.add_argument("--env", default="{}", help="JSON record stored with the spans")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    outdir = Path(args.outdir)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from innovlab import harness

    cfg = harness.parse_config(workload.config,
                               **workload.overrides(args.seed, args.scale, str(outdir)))
    harness.resolve_model(cfg.model, cfg.model_params)
    setup_s = time.perf_counter() - t0
    if not Path(harness.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"innovlab imported from {harness.__file__}, not {SRC}", file=sys.stderr)
        return 2
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer(run_id=f"{args.workload}-s{args.seed}-{outdir.name}")
        tracer.install()
        with tracer.span("harness.run_experiment"):
            record = harness.run_experiment(cfg)
    else:
        t1 = time.perf_counter()
        record = harness.run_experiment(cfg)
        out["run_s"] = time.perf_counter() - t1
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    import numpy
    import scipy

    out["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas_info()}
    out["results_sha256"] = hashlib.sha256((outdir / "results.csv").read_bytes()).hexdigest()
    triples = checks(args.workload, record)
    if args.force_wrong:
        triples = force_wrong(triples)
    out["checks"] = [{"name": n, "observed": o, "expected": e, "ok": o == e}
                     for n, o, e in triples]
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        tracer.dump(outdir / "spans.jsonl",
                    {"run_id": tracer.run_id, **json.loads(args.env), **out["env"]})
    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
