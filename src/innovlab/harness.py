"""Experiment orchestration: configs, runs, persistence, reports, suites.

A run is described by a flat key = value text file.  Results land in the
output directory as

* ``results.csv``  -- fixed column order, one row per localization level,
  byte-stable for a fixed (config, seed);
* ``run.jsonl``    -- one machine-readable record per run (appended);
* ``config.txt``   -- the exact canonical configuration that produced them;
* ``paths.csv``    -- optional per-path summaries.

Modes: ``continuous`` runs the Gaussian pipeline; ``crosscheck`` runs the
quantized pipeline (`criterion.plugin_level`) and checks its Monte Carlo
estimates against exact enumeration.  Both modes write their level rows
from `criterion.LevelReport`s.  Three stages share their pieces among one
process per CPU through `core.fork_map`, one contiguous run of pieces per
process: a continuous run's front end its row blocks and its criterion
its weight sets, and a crosscheck run's front end, which draws each
path's atom, its row blocks, each run of them as one row range.  Every
other stage runs in the calling process alone, one after another; a
crosscheck's filter, innovation, observation classes and log-weights run
there once per sampled atom, and its plug-in level reads those per-atom
values with each path's atom row.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path as FsPath
from typing import Optional

import numpy as np

from . import __version__
from .core import PATH_BLOCK, RandomStream, TimeGrid, fork_map, mapped_array
from .criterion import (
    DEFAULT_LEVELS,
    GAP_FLOOR,
    LevelReport,
    criterion_levels,
    criterion_verdict,
    inequality_check,
    plugin_level,
)
from .errors import ConfigurationError, InnovlabError, NumericalError, StageError, UsageError
from .filtering import BasisSpec, ensemble_conditional_drift, innovation_values
from .girsanov import MIN_DIAGNOSTIC_MEMBERS, log_weights_ensemble
from .lingauss import gaussian_path_kl, is_linear_model
from .models import (
    MODEL_NAMES,
    DriftModel,
    WitnessDrift,
    make_model,
    simulate_ensemble,
    workspace,
)
from .oracle import (
    FiniteLaw,
    canonical_labels,
    conditional_energy_by_grouping,
    dpi_verdict,
    enumerate_atoms,
    estimator_crosscheck,
    filter_deviation,
    finite_bayes_filter,
    gauss_quantized,
    sample_atoms,
    system_battery,
    witness_labels,
)

__all__ = [
    "ExperimentConfig",
    "ResultRecord",
    "parse_config",
    "load_config",
    "run_experiment",
    "continuous_front_end",
    "report",
    "suite",
    "resolve_outdir",
    "OUTDIR_ENV",
]

OUTDIR_ENV = "INNOVLAB_OUTDIR"

RESULT_COLUMNS = ["model", "n", "H_hat", "H_se", "E_hat", "E_se", "gap",
                  "ess", "norm_mean", "norm_se", "verdict"]

# width of the model column in printed tables: the longest name and a blank
MODEL_COLUMN = max(len(name) for name in MODEL_NAMES) + 1

# pipeline stages in run order; `report` prints their timings in this order
STAGES = ("configure", "enumerate", "oracle", "simulate", "sample", "filter",
          "innovation", "weights", "criterion", "crosscheck")


# the one mode that reads each key not every mode reads (None: no mode
# does); both modes read every other key.  A key set off its default in a
# mode that does not read it is a configuration error, so a config says
# nothing its run ignores.
READ_ONLY_IN = {
    **dict.fromkeys(("levels", "basis_window", "basis_cubes", "basis_ema", "ridge",
                     "write_paths"), "continuous"),
    **dict.fromkeys(("noise_nodes", "aux_values", "aux_probs", "erasure", "crosscheck_tol"),
                    "crosscheck"),
    "workers": None,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment."""

    model: str = "zero"
    model_params: dict = field(default_factory=dict)
    grid_n: int = 128
    horizon: float = 1.0
    paths: int = 20000
    levels: tuple = DEFAULT_LEVELS
    basis_window: int = 8
    basis_cubes: bool = False
    basis_ema: tuple = ()
    ridge: float = 1e-8
    gap_floor: float = GAP_FLOOR
    seed: int = 20260808
    outdir: str = "runs/out"
    mode: str = "continuous"
    noise_nodes: int = 3
    aux_values: tuple = ()
    aux_probs: tuple = ()
    erasure: str = "none"
    crosscheck_tol: float = 0.05
    workers: int = 1  # 1 only; kept while the three configs of bench/workloads.py set it
    write_paths: bool = False

    def __post_init__(self):
        if self.mode not in ("continuous", "crosscheck"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.paths < MIN_DIAGNOSTIC_MEMBERS:  # every mode runs the diagnostic
            raise ConfigurationError(f"{self.mode} mode needs at least "
                                     f"{MIN_DIAGNOSTIC_MEMBERS} paths, got {self.paths}")
        if self.erasure not in ("none", "sign-terminal"):
            raise ConfigurationError(f"unknown erasure {self.erasure!r}")
        if not (self.levels and all(lv > 0 for lv in self.levels)):  # NaN fails `> 0`
            raise ConfigurationError(f"levels must be a non-empty list of positive numbers "
                                     f"(inf allowed), got {_fmt(self.levels) or 'none'}")
        for name in ("gap_floor", "crosscheck_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be finite and positive, got {value}")
        self.basis()  # a basis the regressions cannot use fails here, before sampling
        for name, reader in READ_ONLY_IN.items():
            value = getattr(self, name)
            if reader != self.mode and value != _DEFAULTS[name]:
                raise ConfigurationError(
                    f"{name} = {_fmt(value)} would be ignored: {self.mode} mode does not "
                    f"read it ({f'only {reader} mode does' if reader else 'no mode does'})")

    def basis(self) -> BasisSpec:
        return BasisSpec(window=self.basis_window, include_cubes=self.basis_cubes,
                         ema_rates=tuple(self.basis_ema), ridge=self.ridge)

    def grid(self) -> TimeGrid:
        return TimeGrid(steps=self.grid_n, horizon=self.horizon)

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "model_params":
                for k in sorted(v):
                    lines.append(f"model.{k} = {_fmt(v[k])}")
                continue
            lines.append(f"{f.name} = {_fmt(v)}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


def _fmt(v) -> str:
    if isinstance(v, (tuple, list)):
        return ", ".join(_fmt(x) for x in v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(val: str) -> bool:
    try:
        return _BOOLEANS[val.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {val!r}") from None


def _converter(default):
    """Parser of a config value, from the type of its field's default; None
    for a field no key sets directly (model_params)."""
    if isinstance(default, tuple):
        return lambda val: tuple(float(x) for x in val.replace(",", " ").split())
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, (int, float, str)):
        return type(default)
    return None


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}

_CONVERTERS = {f.name: conv for f in fields(ExperimentConfig)
               if (conv := _converter(f.default)) is not None}


def parse_config(text: str, **overrides) -> ExperimentConfig:
    """Parse the flat key = value format; overrides win over file values."""
    values: dict = {"model_params": {}}
    first_line: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key in first_line:
            raise ConfigurationError(f"line {lineno}: {key} is given again "
                                     f"(first on line {first_line[key]})")
        first_line[key] = lineno
        if key.startswith("model."):
            values["model_params"][key[6:]] = _parse_scalar(val)
        elif key in _CONVERTERS:
            try:
                values[key] = _CONVERTERS[key](val)
            except ValueError:
                raise ConfigurationError(f"line {lineno}: bad value for {key}: {val!r}") from None
        else:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
    # overrides join the file values before validation, so a flag can
    # replace a file value that would fail it
    return ExperimentConfig(**{**values, **overrides})


def _parse_scalar(val: str):
    try:
        return int(val)
    except ValueError:
        pass
    try:
        return float(val)
    except ValueError:
        pass
    if val.lower() in ("true", "false"):
        return val.lower() == "true"
    return val


def load_config(path, **overrides) -> ExperimentConfig:
    return parse_config(FsPath(path).read_text(), **overrides)


@dataclass(frozen=True)
class ResultRecord:
    """Flattened outcome of one run, as persisted to run.jsonl."""

    config_digest: str
    model: str
    mode: str
    verdict: str
    levels: list
    diagnostics: dict
    wall_clock: float
    version: str = __version__

    def to_json(self) -> str:
        def clean(x):
            if isinstance(x, float):
                if math.isinf(x):
                    return str(x)  # "inf" or "-inf"; JSON has no infinities
                if math.isnan(x):
                    return None
                return x
            if isinstance(x, dict):
                return {k: clean(v) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return [clean(v) for v in x]
            return x

        return json.dumps(clean(asdict(self)), sort_keys=True)


def resolve_model(name: str, params: dict) -> DriftModel:
    return make_model(name, **params)


def resolve_outdir(config: ExperimentConfig) -> FsPath:
    env = os.environ.get(OUTDIR_ENV)
    return FsPath(env) if env else FsPath(config.outdir)


def continuous_front_end(model: DriftModel, grid: TimeGrid, size: int,
                         stream: RandomStream, stages: Optional[dict] = None,
                         front_end: Optional[dict] = None):
    """Innovation Z (size, N+1), filtered drift uhat (size, N), both
    column-major, and the filter method of a continuous ensemble,
    simulated, filtered and innovated one row block [lo, lo + PATH_BLOCK)
    at a time from substreams stream.substream + lo..  Every step acts row
    by row, so the blocks move no number.

    Z and uhat live in anonymous shared memory, and `core.fork_map` deals
    the blocks out over one process per CPU, a contiguous run of blocks
    each, every process writing its rows in place: a block's observation
    and drift are simulated in its rows of Z and uhat, and the innovation
    and the filter overwrite them there.  The rest of a block's simulation
    fills the process's workspace (`models.workspace`), made at the top of
    its run, after the fork.  Each stage's seconds and peak rises are
    summed over the caller's blocks in `stages`; `front_end`, when given,
    receives the record `fork_map` returns, whose children carry their own
    stage entries.  A stage that fails in a child raises here as the same
    `StageError`.
    """
    stages = {} if stages is None else stages
    Z = mapped_array((size, grid.steps + 1), shared=True)
    uhat = mapped_array((size, grid.steps), shared=True)

    def run_blocks(starts, entries):
        work = workspace(model, grid, min(PATH_BLOCK, size - starts[0]))
        methods = []
        for lo in starts:
            hi = min(lo + PATH_BLOCK, size)
            work.update(U=Z[lo:hi], drift=uhat[lo:hi])
            sim = _stage(entries, "simulate", simulate_ensemble, model, grid, hi - lo,
                         RandomStream(stream.seed, stream.substream + lo), work)
            methods.append(_stage(entries, "filter", lambda: ensemble_conditional_drift(
                model, sim, sim.drift).method))
            _stage(entries, "innovation", lambda: innovation_values(sim.U, uhat[lo:hi],
                                                                    grid.dt, out=sim.U))
        return methods

    methods, record = fork_map(run_blocks, range(0, size, PATH_BLOCK), stages)
    if front_end is not None:
        front_end.update(record)
    return Z, uhat, methods[0]


def _peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _stage(stages, name, fn, *args, **kwargs):
    """Run one pipeline stage; record in `stages` its wall seconds, the
    process's peak resident set size so far (MB) and how far the stage
    raised that peak (MB).  A stage run again adds its seconds and rise to
    its entry and keeps the larger peak; a stage that fails records them
    too."""
    before = _peak_rss_mb()
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    except InnovlabError as exc:
        raise StageError(name, exc) from exc
    finally:
        peak = _peak_rss_mb()
        entry = stages.setdefault(name, {"seconds": 0.0, "max_rss_mb": 0.0,
                                         "peak_rise_mb": 0.0})
        entry["seconds"] += time.perf_counter() - t0
        entry["max_rss_mb"] = max(entry["max_rss_mb"], peak)
        entry["peak_rise_mb"] += peak - before


def _configure(config):
    model, grid = resolve_model(config.model, config.model_params), config.grid()
    model.validate(grid)  # a grid the model cannot use fails before anything forks
    if (config.aux_values or config.aux_probs) and not model.aux_dim:
        raise ConfigurationError(f"aux_values and aux_probs would be ignored: model "
                                 f"{config.model} has no auxiliary variable")
    return model, grid, RandomStream(seed=config.seed)


def _level_row(r: LevelReport, model: str) -> dict:
    return {
        "model": model,
        "n": r.level,
        "H_hat": r.entropy, "H_se": r.entropy_se,
        "E_hat": r.energy, "E_se": r.energy_se,
        "gap": r.gap, "gap_se": r.gap_se,
        "ess": r.ess,
        "norm_mean": r.norm_mean, "norm_se": r.norm_se,
        "norm_passed": r.norm_passed,
        "verdict": r.verdict,
        "ridge_escalations": r.ridge_escalations,
    }


def run_experiment(config: ExperimentConfig, persist: bool = True) -> ResultRecord:
    """Execute one experiment end to end and, when `persist`, write its
    files (`paths.csv` too when the config asks for it)."""
    t0 = time.time()
    stages: dict = {}
    model, grid, stream = _stage(stages, "configure", _configure, config)
    if config.mode == "continuous":
        record = _run_continuous(config, model, grid, stream, stages, persist)
    else:
        record = _run_quantized(config, model, grid, stream, stages)

    record = replace(record, wall_clock=time.time() - t0,
                     diagnostics={**record.diagnostics, "stages": stages})
    if persist:
        _persist(config, record)
    return record


def _run_continuous(config, model, grid, stream, stages, persist) -> ResultRecord:
    diagnostics = {"paths": config.paths, "grid_n": config.grid_n, "seed": config.seed}
    if is_linear_model(model):
        try:
            kl = _stage(stages, "oracle", gaussian_path_kl, model, grid)
        except StageError as exc:
            if not isinstance(exc.cause, NumericalError):
                raise
            # a tilt the grid cannot integrate is what the localized levels
            # are for: keep them, and say why the exact values are missing
            diagnostics["gaussian_oracle_error"] = str(exc.cause)
        else:
            diagnostics["gaussian_path_kl"] = kl

    front_end: dict = {}
    Z, uhat, method = continuous_front_end(model, grid, config.paths, stream, stages, front_end)
    criterion: dict = {}
    reports = _stage(stages, "criterion", criterion_levels, Z, uhat, grid,
                     config.levels, config.basis(), config.gap_floor, criterion)
    verdict = criterion_verdict(reports)
    diagnostics.update(filter_method=method, estimator=f"jensen[{config.basis().describe()}]",
                       front_end=front_end, criterion=criterion)
    if config.write_paths and persist:
        diagnostics["paths_file"] = "paths.csv"
        _write_paths_csv(config, uhat, Z, grid)

    rows = [_level_row(r, config.model) for r in reports]
    return ResultRecord(config.digest(), config.model, config.mode, verdict,
                        rows, diagnostics, 0.0)


def _run_quantized(config, model, grid, stream, stages) -> ResultRecord:
    # every step runs inside a stage, so a failure names its stage; the
    # caller's wait for its front-end child (`wait_s`) is the one time
    # outside them
    noise, aux = _stage(stages, "configure", lambda: (
        gauss_quantized(config.noise_nodes, grid.dt),
        FiniteLaw(config.aux_values, config.aux_probs or None) if model.aux_dim else None))
    relabel = witness_labels if config.erasure == "sign-terminal" else None
    space = _stage(stages, "enumerate", enumerate_atoms, model, grid, noise, aux)
    exact = _stage(stages, "enumerate", lambda: dpi_verdict(space.system(relabel=relabel)))

    atom, front_end = _quantized_front_end(config.paths, stream, space, stages)
    # a path's filter, innovation, class and log-weight are those of its
    # atom: each is formed once per sampled atom, and the plug-in level
    # reads them with each path's atom row
    sampled, path_row, sim = _stage(stages, "sample", _sampled_rows, space, atom)
    filt = _stage(stages, "filter", finite_bayes_filter, model, sim, noise, aux)
    deviation = _stage(stages, "filter", filter_deviation, space, sampled, filt.values)
    Z = _stage(stages, "innovation", innovation_values, sim.U, filt.values, grid.dt)
    labels = _stage(stages, "weights", lambda: canonical_labels(
        Z[:, 1:] if relabel is None else relabel(Z)))
    log_weights, energies = _stage(stages, "weights", log_weights_ensemble, filt.values, Z,
                                   grid.dt)
    level, energy_mc = _stage(stages, "criterion", plugin_level, log_weights, energies, labels,
                              path_row, config.gap_floor)
    crosscheck = _stage(stages, "crosscheck", lambda: {
        **asdict(estimator_crosscheck(exact, deviation, level.entropy, energy_mc,
                                      config.crosscheck_tol)),
        "conditional_energy_exact": conditional_energy_by_grouping(space)})

    diagnostics = {
        "filter_method": filt.method,
        "estimator": f"plugin[{config.erasure}]",
        "atoms": space.atoms,
        "atoms_sampled": len(sampled),
        "exact_base_entropy": exact.base_entropy,
        "exact_pushforward_entropy": exact.pushforward_entropy,
        "exact_gap": exact.gap,
        "exact_energy": exact.energy,
        "density_z_measurable": exact.density_z_measurable,
        "u_recoverable_from_z": exact.u_recoverable_from_z,
        "energy_mc": energy_mc,
        "paths": config.paths,
        "seed": config.seed,
        "front_end": front_end,
        "crosscheck": crosscheck,
    }
    return ResultRecord(config.digest(), config.model, config.mode, level.verdict,
                        [_level_row(level, config.model)], diagnostics, 0.0)


def _quantized_front_end(size, stream, space, stages):
    """The atom of `space` of each of `size` quantized paths, drawn from
    substreams stream.substream + i.. (`oracle.sample_atoms`), and the
    `core.fork_map` record.

    `fork_map` deals the PATH_BLOCK row blocks, one contiguous run of them
    per process, and a process's run is one row range: a block has a fixed
    cost that a range pays once.  A range draws its rows' atom indices
    (`sample`) and returns them as one integer array; the draws are row by
    row, so the ranges move no number.  The caller's stage entries are its
    one range's.
    """
    def run_range(starts, entries):
        lo, hi = starts[0], min(starts[-1] + PATH_BLOCK, size)
        return [_stage(entries, "sample", sample_atoms, space, hi - lo,
                       RandomStream(stream.seed, stream.substream + lo))]

    ranges, record = fork_map(run_range, range(0, size, PATH_BLOCK), stages)
    return _stage(stages, "sample", np.concatenate, ranges), record


def _sampled_rows(space, atom):
    """The atoms of `space` that the paths' atoms `atom` hit, in index
    order, the position among them of each path's atom, and their rows of
    `space.sim`."""
    hit = np.bincount(atom, minlength=space.atoms) > 0
    sampled = np.flatnonzero(hit)
    sim = replace(space.sim, **{name: getattr(space.sim, name)[sampled]
                                for name in ("dB", "dU", "drift", "aux", "U")})
    return sampled, (np.cumsum(hit) - 1)[atom], sim


def _fmt_cell(v) -> str:
    return "" if v is None or (isinstance(v, float) and math.isnan(v)) else _fmt(v)


def _persist(config: ExperimentConfig, record: ResultRecord) -> None:
    outdir = resolve_outdir(config)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.txt").write_text(config.to_text())
    lines = [",".join(RESULT_COLUMNS)]
    for row in record.levels:
        lines.append(",".join(_fmt_cell(row.get(c)) for c in RESULT_COLUMNS))
    (outdir / "results.csv").write_text("\n".join(lines) + "\n")
    with (outdir / "run.jsonl").open("a") as fh:
        fh.write(record.to_json() + "\n")


def _write_paths_csv(config, uhat, Z, grid):
    outdir = resolve_outdir(config)
    outdir.mkdir(parents=True, exist_ok=True)
    lw, e = log_weights_ensemble(uhat, Z, grid.dt)
    with (outdir / "paths.csv").open("w") as fh:
        fh.write("path,log_weight,drift_energy,terminal_innovation\n")
        for i in range(len(Z)):
            fh.write(f"{i},{_fmt_cell(float(lw[i]))},{_fmt_cell(float(e[i]))},"
                     f"{_fmt_cell(float(Z[i, -1]))}\n")


# ------------------------------------------------------------------- reporting

def report(in_dir) -> str:
    """Human-readable table; writes the plot-ready columns to curves.csv."""
    in_dir = FsPath(in_dir)
    jl = in_dir / "run.jsonl"
    if not jl.exists():
        raise UsageError(f"no run.jsonl under {in_dir}")
    records = [json.loads(line) for line in jl.read_text().splitlines() if line.strip()]
    if not records:
        raise UsageError(f"run.jsonl under {in_dir} is empty")

    header = ["model", "n", "H_hat", "E_hat", "gap", "gap_se", "ess", "verdict"]
    widths = [MODEL_COLUMN, 6, 11, 11, 11, 11, 9, 20]
    out = [" ".join(h.ljust(w) for h, w in zip(header, widths))]

    def cell(v, w):
        if v is None:
            s = "—"
        elif isinstance(v, float):
            s = f"{v:.6f}"
        else:
            s = str(v)
        return s.ljust(w)

    curve_rows = []
    for rec in records:
        for row in rec["levels"]:
            vals = [row.get("model"), row.get("n"), row.get("H_hat"), row.get("E_hat"),
                    row.get("gap"), row.get("gap_se"), row.get("ess"), row.get("verdict")]
            vals = [float(v) if isinstance(v, (int, float)) else v for v in vals]
            out.append(" ".join(cell(v, w) for v, w in zip(vals, widths)))
            curve_rows.append(row)
    for i, rec in enumerate(records):
        for forked in ("front_end", "criterion"):
            if forked in rec["diagnostics"]:
                out.append(f"{forked}[{i}] {rec['model']}: "
                           f"{_children_line(rec['diagnostics'][forked])}")
        out.append(f"stages[{i}] {rec['model']}: {_stage_line(rec['diagnostics'])}")
        if "gaussian_oracle_error" in rec["diagnostics"]:
            out.append(f"oracle[{i}] {rec['model']}: Gaussian oracle failed: "
                       f"{rec['diagnostics']['gaussian_oracle_error']}")
    text = "\n".join(out)

    cols = ["model", "n", "H_hat", "H_se", "E_hat", "E_se", "gap", "gap_se", "ess"]
    lines = [",".join(cols)]
    for row in curve_rows:
        lines.append(",".join(_fmt_cell(_as_float(row.get(c))) if c != "model"
                              else str(row.get(c)) for c in cols))
    (in_dir / "curves.csv").write_text("\n".join(lines) + "\n")
    return text


def _stage_line(diagnostics) -> str:
    stages = diagnostics.get("stages")
    if not stages:
        return "not recorded"
    peak = max(s["max_rss_mb"] for s in stages.values())
    return f"{', '.join(_stage_cells(stages))}; peak RSS {peak:.0f} MB"


def _children_line(record) -> str:
    """A forked stage's process count, the caller's wait for its children
    and, per child, its item count, its seconds, its stage cells and its
    peak RSS."""
    cells = [f"processes {record['processes']}, wait {record['wait_s']:.3f}s"]
    for i, child in enumerate(record["children"], 1):
        cells.append(", ".join([f"child {i}: items {child['items']}", f"{child['seconds']:.3f}s",
                                *_stage_cells(child["stages"]),
                                f"peak RSS {child['peak_rss_mb']:.0f} MB"]))
    return "; ".join(cells)


def _stage_cells(stages) -> list:
    """Per recorded stage, in run order, its seconds and how far it raised
    the peak RSS."""
    return [f"{name} {stages[name]['seconds']:.3f}s +{stages[name]['peak_rise_mb']:.0f} MB"
            for name in STAGES if name in stages]


def _as_float(v):
    """A run.jsonl value, with the infinities it stores as strings read back."""
    return float(v) if v in ("inf", "-inf") else v


# ---------------------------------------------------------------------- suites

def _suite_smoke(outdir: FsPath, seed: int) -> int:
    ok = True
    for name, n in [("zero", 64), ("deterministic", 128)]:
        cfg = ExperimentConfig(model=name, grid_n=n, paths=1000, seed=seed,
                               outdir=str(outdir / name))
        rec = run_experiment(cfg)
        good = rec.verdict == "EQUALITY-CONSISTENT"
        ok &= good
        print(f"smoke {name:14s} verdict={rec.verdict:20s} "
              f"H={rec.levels[-1]['H_hat']:.4f} E={rec.levels[-1]['E_hat']:.4f} "
              f"{'ok' if good else 'FAIL'}")
    return 0 if ok else 1


PAPER_RUNS = [
    ("zero", {}, 128),
    ("deterministic", {}, 128),
    ("linear-feedback", {"a": 1.0}, 128),
    ("independent", {}, 128),
    ("kalman-bucy", {"beta": 1.0, "sigma": 1.0}, 512),
    ("tsirelson", {"levels": 8}, 512),
]


def _suite_paper(outdir: FsPath, seed: int) -> int:
    ok = True
    for name, params, n in PAPER_RUNS:
        cfg = ExperimentConfig(model=name, model_params=params, grid_n=n,
                               paths=20000, seed=seed, outdir=str(outdir / name))
        rec = run_experiment(cfg)
        last = rec.levels[-1]
        gated = name != "tsirelson"
        good = (rec.verdict == "EQUALITY-CONSISTENT") if gated else True
        ineq = all(inequality_check(r["H_hat"], r["H_se"], r["E_hat"], r["E_se"])
                   for r in rec.levels)
        ok &= good and ineq
        tag = "gated" if gated else "exploratory"
        print(f"paper {name:16s} verdict={rec.verdict:20s} "
              f"gap={last['gap']:+.5f}+-{last['gap_se']:.5f} ({tag}) "
              f"{'ok' if good and ineq else 'FAIL'}")
        if name == "tsirelson":
            print("      tsirelson: on the grid this gap is the default basis's projection "
                  "residual (0.04107 -> 3.3e-9 with the drift as a feature, 4000 paths)")
            for r in rec.levels:
                lo, hi = r["gap"] - 3 * r["gap_se"], r["gap"] + 3 * r["gap_se"]
                print(f"      tsirelson n={r['n']}: gap={r['gap']:+.5f} "
                      f"CI3=[{lo:+.5f}, {hi:+.5f}]")
    return 0 if ok else 1


def _suite_oracle(outdir: FsPath, seed: int) -> int:
    battery = system_battery(100, seed=7)
    dpi_ok = equiv_ok = 0
    equal_cnt = strict_cnt = 0
    for s in battery:
        v = dpi_verdict(s)
        if v.pushforward_entropy <= v.base_entropy + 1e-12:
            dpi_ok += 1
        if (abs(v.gap) <= 1e-12) == v.density_z_measurable:
            equiv_ok += 1
        if abs(v.gap) <= 1e-12:
            equal_cnt += 1
        elif v.gap > 1e-12:
            strict_cnt += 1
    battery_ok = dpi_ok == 100 and equiv_ok == 100 and equal_cnt >= 10 and strict_cnt >= 10
    print(f"oracle battery: dpi {dpi_ok}/100, equivalence {equiv_ok}/100, "
          f"equality {equal_cnt}, strict {strict_cnt} {'ok' if battery_ok else 'FAIL'}")

    # the witness run enumerates the witness's atoms: its diagnostics hold
    # the exact verdict that `oracle.witness_space` would give
    cfg = ExperimentConfig(model=WitnessDrift.name, mode="crosscheck", grid_n=2,
                           paths=20000, noise_nodes=2, erasure="sign-terminal",
                           seed=seed, outdir=str(outdir / "witness"))
    rec = run_experiment(cfg)
    d = rec.diagnostics
    witness_ok = (d["exact_gap"] > 1e-6 and not d["density_z_measurable"]
                  and not d["u_recoverable_from_z"])
    print(f"oracle witness: exact gap={d['exact_gap']:.6f} "
          f"measurable={d['density_z_measurable']} "
          f"recoverable={d['u_recoverable_from_z']} {'ok' if witness_ok else 'FAIL'}")
    mc_ok = rec.verdict == "POSITIVE-GAP"
    print(f"oracle witness MC: verdict={rec.verdict} gap={rec.levels[0]['gap']:.5f} "
          f"(exact {d['exact_gap']:.5f}) crosscheck passed={d['crosscheck']['passed']} "
          f"{'ok' if mc_ok else 'FAIL'}")
    return 0 if battery_ok and witness_ok and mc_ok else 1


def suite(name: str, outdir: Optional[str] = None, seed: int = 20260808) -> int:
    """Run a named suite; returns a process exit status."""
    base = FsPath(outdir) if outdir else FsPath("runs") / name
    if name == "smoke":
        return _suite_smoke(base, seed)
    if name == "paper":
        return _suite_paper(base, seed)
    if name == "oracle":
        return _suite_oracle(base, seed)
    raise UsageError(f"unknown suite {name!r}; known: smoke, paper, oracle")
