"""Exact finite oracle: finite laws, atom enumeration, entropy identities.

Replacing Gaussian increments by a moment-matched finite quadrature, and
the auxiliary variable by a finite one, makes the whole pipeline exactly
enumerable.  Both are a `FiniteLaw` (distinct values, positive
probabilities summing to one), which also draws from itself and maps
sampled values back to their positions.  Every (noise sequence, auxiliary
value) combination is an atom with a known probability, conditional
expectations are probability-weighted group means over shared prefixes,
and relative entropies are finite sums.  The enumeration validates every
Monte Carlo estimator, all of which live in `criterion`.  An atom's
density is the exact, unshifted exponential of its log-weight, and its
energy the one that log-weight contains.

A sampled quantized path is a draw of an atom, and every value of the
pipeline is a function of the atom: `sample_atoms` draws the atom
indices that `sample_quantized_ensemble`'s paths land on, from the same
uniforms, so the Monte Carlo side can run the per-path pipeline once per
sampled atom.

A structural fact shapes what the oracle can and cannot exhibit: on a
discrete grid the map from the observation to its innovation is always
invertible (reconstruct U step by step from Z and the known filter
functions), so systems built from exact filters always satisfy the
entropy equality, and they are asserted to.  Strict-gap instances need an
observation map that genuinely erases information; the bundled witness
erases the sign of the terminal innovation of a one-sided feedback drift,
the finite stand-in for the information loss that, in continuous time,
only pathological drifts can produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import LANE_AUX, LANE_NOISE, RandomStream, TimeGrid, philox_chunks
from .errors import (
    AbsoluteContinuityError,
    ConfigurationError,
    DegeneracyError,
    UsageError,
)
from .filtering import EnsembleFilter, innovation_values
from .girsanov import log_weights_ensemble
from .models import (
    DeterministicDrift,
    DriftModel,
    EnsembleSimulation,
    LinearFeedback,
    WitnessDrift,
    run_euler,
)

__all__ = [
    "ROUND_DECIMALS",
    "FiniteLaw",
    "AtomSpace",
    "FiniteSystem",
    "DiscreteVerdict",
    "CrosscheckReport",
    "gauss_quantized",
    "canonical_labels",
    "enumerate_atoms",
    "estimator_crosscheck",
    "match_atoms",
    "filter_deviation",
    "exact_relative_entropy",
    "dpi_verdict",
    "conditional_energy_by_grouping",
    "sample_quantized_ensemble",
    "sample_atoms",
    "finite_bayes_filter",
    "WitnessDrift",
    "witness_space",
    "witness_labels",
    "random_finite_system",
    "system_battery",
]

# rounding that defines trajectory-value equivalence classes
ROUND_DECIMALS = 12

MAX_ATOMS = 1_000_000

# the most Gauss-Hermite nodes whose probabilities numpy 2.4's `hermegauss`
# still gives finite and positive (371 gives NaN); the quadrature builds an
# m x m companion matrix, so a larger count is refused before it is formed
MAX_NOISE_NODES = 370


@dataclass(frozen=True)
class FiniteLaw:
    """A finite random variable: distinct values (in any order) with positive
    probabilities summing to one; ``probs=None`` is the uniform law.

    Stands in for a Wiener increment (`gauss_quantized`) and for a model's
    auxiliary variable.  A malformed law is a configuration error.
    """

    values: np.ndarray
    probs: Optional[np.ndarray] = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or len(values) == 0:
            raise ConfigurationError("a finite law needs a non-empty list of values")
        n = len(values)
        probs = (np.full(n, 1.0 / n) if self.probs is None
                 else np.asarray(self.probs, dtype=float))
        if probs.shape != values.shape:
            raise ConfigurationError(f"{n} values but {probs.size} probabilities")
        ordered = np.sort(values)
        if not np.all(np.isfinite(values)) or np.any(ordered[1:] == ordered[:-1]):
            raise ConfigurationError("the values of a finite law must be finite and distinct")
        if not np.all(probs > 0):
            raise ConfigurationError("probabilities must be positive")
        if abs(math.fsum(probs) - 1.0) > 1e-12:
            raise ConfigurationError("probabilities must sum to one")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    @property
    def count(self) -> int:
        return len(self.values)

    def draw_index(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF draw: the position in `values` of the law's value for
        each uniform in u; a u above the rounded sum of the probabilities
        draws the last position."""
        return np.searchsorted(np.cumsum(self.probs)[:-1], u)

    def draw(self, u: np.ndarray) -> np.ndarray:
        """The law's value for each uniform in u (`draw_index`)."""
        return self.values[self.draw_index(u)]

    def index(self, x: np.ndarray) -> np.ndarray:
        """Position in `values` of each entry of x, which must all be values."""
        order = np.argsort(self.values)
        ordered = self.values[order]
        pos = np.minimum(np.searchsorted(ordered, x), self.count - 1)
        if not np.array_equal(ordered[pos], x):
            raise UsageError("a sampled value lies outside the finite law")
        return order[pos]


def gauss_quantized(m: int, dt: float) -> FiniteLaw:
    """Moment-matched m-point quantization of an N(0, dt) increment: the
    Gauss-Hermite nodes scaled by sqrt(dt) match Gaussian moments up to
    order 2m-1."""
    if not 2 <= m <= MAX_NOISE_NODES:
        raise ConfigurationError(f"need between 2 and {MAX_NOISE_NODES} nodes, got {m}")
    x, w = np.polynomial.hermite_e.hermegauss(m)
    probs = w / w.sum()
    return FiniteLaw(x * np.sqrt(dt), probs)


@dataclass(frozen=True)
class FiniteSystem:
    """A finite probability space with a density and an observation map.

    probs: base probabilities P(a); density: the normalized tilt dnu/dP;
    z_labels: observation classes; u_labels: trajectory classes of the
    quantity whose recoverability is being asked about; energy_terms:
    per-atom energy functional entering the energy field of the verdict.
    A density whose total mass is off one by more than 1e-9 is a
    configuration error; it is never rescaled.
    """

    probs: np.ndarray
    density: np.ndarray
    z_labels: np.ndarray
    u_labels: np.ndarray
    energy_terms: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        rho = np.asarray(self.density, dtype=float)
        if abs(math.fsum(p) - 1.0) > 1e-12:
            raise ConfigurationError("atom probabilities must sum to one")
        if np.any(rho < 0):
            raise ConfigurationError("density must be nonnegative")
        mass = math.fsum(p * rho)
        if abs(mass - 1.0) > 1e-9:
            raise ConfigurationError(f"density must have total mass one, got {mass:.12g}")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "density", rho)


@dataclass(frozen=True)
class DiscreteVerdict:
    """Exact entropies and measurability booleans of a finite system."""

    base_entropy: float
    pushforward_entropy: float
    energy: float
    density_z_measurable: bool
    u_recoverable_from_z: bool

    @property
    def gap(self) -> float:
        return self.base_entropy - self.pushforward_entropy


@dataclass(frozen=True)
class AtomSpace:
    """Exhaustive pipeline enumeration over (noise sequence, aux) atoms.

    aux is the finite auxiliary law, None for a model without one;
    energies are the per-atom drift energies inside the density.
    """

    grid: TimeGrid
    noise: FiniteLaw
    aux: Optional[FiniteLaw]
    probs: np.ndarray
    sim: EnsembleSimulation
    uhat: np.ndarray
    Z: np.ndarray
    density: np.ndarray
    energies: np.ndarray
    z_labels: np.ndarray
    u_labels: np.ndarray

    @property
    def atoms(self) -> int:
        return len(self.probs)

    def system(self, relabel: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> FiniteSystem:
        """View as a FiniteSystem, optionally through a lossy observation map.

        relabel receives the stacked innovation values (atoms, N+1) and
        returns one label per atom; the default keeps the full innovation
        trajectory classes.
        """
        z_labels = self.z_labels if relabel is None else canonical_labels(relabel(self.Z))
        return FiniteSystem(self.probs, self.density, z_labels, self.u_labels,
                            self.energies)


def canonical_labels(keys: np.ndarray) -> np.ndarray:
    """Class index per row of keys (atoms, ...) after rounding, the rank of
    its rounded row among the distinct rounded rows; 1-D keys are one column."""
    keys = np.asarray(keys)
    return _row_classes(np.round(keys.reshape(len(keys), -1), ROUND_DECIMALS))


def _refine_labels(labels: np.ndarray, column: np.ndarray) -> np.ndarray:
    """Refine a partition by one more (rounded) coordinate."""
    col = np.round(column, ROUND_DECIMALS)
    return _row_classes(np.stack([labels.astype(float), col], axis=1))


def _row_classes(rows: np.ndarray) -> np.ndarray:
    """Class index of each row of a 2-D array, the rank of its value among
    the distinct rows in lexicographic order: the labels that
    ``np.unique(rows, axis=0, return_inverse=True)`` gives.

    One lexsort of the columns, then one pass over each column in sorted
    order, which reads a column-major array a column at a time;
    np.unique(axis=0) argsorts a structured view of the rows instead, which
    is several times slower.
    """
    order = np.lexsort(rows.T[::-1])  # the first column is the primary key
    starts = np.zeros(len(rows), dtype=bool)
    starts[:1] = True
    for column in rows.T:
        ordered = column[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    labels = np.empty(len(rows), dtype=np.intp)
    labels[order] = np.cumsum(starts) - 1
    return labels


def _group_mean_safe(labels: np.ndarray, weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Probability-weighted group means, broadcast back onto members.

    A group without weight gets mean 0.
    """
    wsum = np.bincount(labels, weights=weights)
    vsum = np.bincount(labels, weights=weights * values)
    out = np.zeros_like(wsum)
    good = wsum > 0
    out[good] = vsum[good] / wsum[good]
    return out[labels]


def _prefix_group_means(columns: np.ndarray, weights: np.ndarray,
                        values: np.ndarray) -> np.ndarray:
    """Exact conditional expectations given a growing prefix.

    Column k of the result is the weighted mean of values[:, k] over the
    atoms that agree on columns[:, 1..k] (rounded); at k = 0 every atom
    shares the empty prefix.  columns is (atoms, N+1), values (atoms, N).
    """
    out = np.empty(values.shape)
    labels = np.zeros(len(values), dtype=np.int64)
    for k in range(values.shape[1]):
        labels = _refine_labels(labels, columns[:, k]) if k > 0 else labels
        out[:, k] = _group_mean_safe(labels, weights, values[:, k])
    return out


def _check_aux_law(model: DriftModel, aux: Optional[FiniteLaw]) -> None:
    """A finite aux law stands in for the model's auxiliary variable, so it
    is given exactly when the model has one."""
    if model.aux_dim and aux is None:
        raise ConfigurationError(f"model {model.name} needs a finite aux law")
    if not model.aux_dim and aux is not None:
        raise ConfigurationError(f"model {model.name} has no auxiliary variable "
                                 f"for a finite aux law to replace")


def enumerate_atoms(model: DriftModel, grid: TimeGrid, noise: FiniteLaw,
                    aux: Optional[FiniteLaw] = None,
                    max_atoms: int = MAX_ATOMS) -> AtomSpace:
    """Enumerate the quantized pipeline exactly.

    The model's auxiliary randomness is replaced by the finite law aux,
    given exactly when the model has an auxiliary variable.  The filtered
    drift is the exact conditional expectation, computed by grouping atoms
    on identical observation prefixes and probability-averaging the drift.
    """
    if model.needs_hidden():
        raise ConfigurationError(f"model {model.name} has a continuous hidden signal; "
                                 "enumeration needs finitely many scenarios")
    _check_aux_law(model, aux)
    n_aux = aux.count if aux is not None else 1
    N = grid.steps
    atoms = noise.count**N * n_aux
    if atoms > max_atoms:
        raise ConfigurationError(f"{atoms} atoms exceed the bound {max_atoms}")

    node_grids = np.meshgrid(*([noise.values] * N), indexing="ij")
    dB = np.stack([g.reshape(-1) for g in node_grids], axis=1)
    prob_grids = np.meshgrid(*([noise.probs] * N), indexing="ij")
    p_noise = np.prod([g.reshape(-1) for g in prob_grids], axis=0)

    if aux is not None:
        dB = np.repeat(dB, n_aux, axis=0)
        aux_draws = np.tile(aux.values, noise.count**N)[:, None]
        probs = np.repeat(p_noise, n_aux) * np.tile(aux.probs, noise.count**N)
    else:
        aux_draws = np.empty((atoms, 0))
        probs = p_noise

    sim = run_euler(model, grid, dB, aux_draws)
    uhat = _prefix_group_means(sim.U, probs, sim.drift)
    Z = innovation_values(sim.U, uhat, grid.dt)

    lw, energies = log_weights_ensemble(uhat, Z, grid.dt)
    raw = np.exp(lw)  # exact and unshifted: the density is normalized against probs
    density = raw / math.fsum(probs * raw)

    z_labels = canonical_labels(Z[:, 1:])
    u_labels = canonical_labels(sim.U[:, 1:])
    return AtomSpace(grid, noise, aux, probs, sim, uhat, Z, density, energies,
                     z_labels, u_labels)


def exact_relative_entropy(p: np.ndarray, q: np.ndarray) -> float:
    """sum p log(p/q) over aligned finite laws, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise UsageError("laws must be aligned on the same support")
    if np.any((p > 0) & (q <= 0)):
        raise AbsoluteContinuityError("p puts mass where q vanishes")
    mask = p > 0
    return float(math.fsum(p[mask] * np.log(p[mask] / q[mask])))


def dpi_verdict(system: FiniteSystem) -> DiscreteVerdict:
    """Exact entropies of the tilt before and after the observation map.

    The pushforward entropy can never exceed the base entropy, with
    equality exactly when the density is constant on observation classes;
    both sides of that equivalence are computed independently and reported.
    """
    p, rho = system.probs, system.density
    nz = rho > 0
    base = float(math.fsum(p[nz] * rho[nz] * np.log(rho[nz])))

    labels = system.z_labels
    p_push = np.bincount(labels, weights=p)
    q_push = np.bincount(labels, weights=p * rho)
    push = exact_relative_entropy(q_push, p_push)

    energy = 0.5 * float(math.fsum(p * rho * system.energy_terms))

    cls_min = np.full(labels.max() + 1, np.inf)
    cls_max = np.full(labels.max() + 1, -np.inf)
    np.minimum.at(cls_min, labels, rho)
    np.maximum.at(cls_max, labels, rho)
    spread = cls_max - cls_min
    measurable = bool(np.all(spread <= 1e-9 * np.maximum(1.0, cls_max)))

    # u is recoverable iff no observation class holds two u classes; bincount
    # counts sparse labels too, without np.unique's import of numpy.ma
    pairs = _row_classes(np.stack([labels, system.u_labels], axis=1))
    recoverable = bool(pairs.max() + 1 == np.count_nonzero(np.bincount(labels)))

    return DiscreteVerdict(base, push, energy, measurable, recoverable)


def conditional_energy_by_grouping(space: AtomSpace) -> float:
    """Exact half-energy of the innovation-conditional filtered drift.

    Conditions on the exact innovation-prefix classes under the tilted
    probabilities; for pipeline systems this equals the plain tilted
    energy, because the innovation prefix determines the observation
    prefix on a discrete grid.
    """
    nu = space.probs * space.density
    if nu.sum() <= 0:
        raise DegeneracyError("tilted measure has no mass")
    cond = _prefix_group_means(space.Z, nu, space.uhat)
    total = 0.0
    for k in range(space.grid.steps):
        total += float(math.fsum(nu * cond[:, k]**2)) * space.grid.dt
    return 0.5 * total


# --------------------------------------------------------------------- MC side

def sample_quantized_ensemble(model: DriftModel, grid: TimeGrid, size: int,
                              stream: RandomStream, noise: FiniteLaw,
                              aux: Optional[FiniteLaw] = None) -> EnsembleSimulation:
    """Monte Carlo sampling of the quantized pipeline (same Euler recursion);
    aux is given exactly when the model has an auxiliary variable.  Path i
    is on atom i of `sample_atoms` for the same stream and size."""
    _check_aux_law(model, aux)
    aux_draws = np.empty((size, model.aux_dim))
    if aux is not None:
        aux_draws[:] = aux.draw(stream.uniforms(LANE_AUX, size, 1))
    dB = noise.draw(stream.uniforms(LANE_NOISE, size, grid.steps))
    return run_euler(model, grid, dB, aux_draws)


def sample_atoms(space: AtomSpace, size: int, stream: RandomStream) -> np.ndarray:
    """Atom index of each of `size` quantized paths drawn from substreams
    stream.substream + i..: the atoms of the paths
    `sample_quantized_ensemble` draws from the same uniforms, with no Euler
    recursion.  A path's values are the rows of its atom in `space`.

    The uniforms, their draw positions and the atom indices are formed one
    chunk of rows at a time, the chunks `RandomStream.uniforms` forms its
    own in (`core.philox_chunks`), so each lane's draw of a chunk is one
    Philox kernel call and only the returned indices span every row.
    """
    atoms = np.empty(size, dtype=np.intp)
    for rows in philox_chunks(size, space.grid.steps):
        chunk, n = RandomStream(stream.seed, stream.substream + rows.start), rows.stop - rows.start
        noise = space.noise.draw_index(chunk.uniforms(LANE_NOISE, n, space.grid.steps))
        aux = (None if space.aux is None
               else space.aux.draw_index(chunk.uniforms(LANE_AUX, n, 1)[:, 0]))
        atoms[rows] = _atom_index(space, noise, aux)
    return atoms


def _atom_index(space: AtomSpace, noise: np.ndarray, aux: Optional[np.ndarray]) -> np.ndarray:
    """Flat index, in `enumerate_atoms`'s order, of the atoms with noise
    positions noise (m, N) and aux positions aux (m,), None without an aux
    law: the first step is the most significant digit, the aux position
    the least."""
    flat = np.zeros(len(noise), dtype=np.intp)
    for k in range(space.grid.steps):
        flat = flat * space.noise.count + noise[:, k]
    return flat if aux is None else flat * space.aux.count + aux


def finite_bayes_filter(model: DriftModel, sim: EnsembleSimulation,
                        noise: FiniteLaw, aux: Optional[FiniteLaw]) -> EnsembleFilter:
    """Exact per-path conditional drift of a quantized ensemble.

    An observation-adapted drift is its own conditional expectation.
    Otherwise the drift must be a function of (aux, time) alone; the
    posterior over the finite aux variable given the observation prefix
    then follows from the quantized-noise likelihood of the residual
    increments.
    """
    if model.observation_adapted:
        return EnsembleFilter(sim.drift, "identity-feedback")
    if model.reads_observation or model.needs_hidden():
        raise UsageError("finite Bayes filter needs an exogenous finite-aux drift")
    grid = sim.grid
    N, m = grid.steps, sim.size

    # hypothesis drift tables (aux.count, N): exogenous, so path-independent
    hypo = run_euler(model, grid, np.zeros((aux.count, N)), aux.values[:, None]).drift

    log_pmf = {round(float(n), ROUND_DECIMALS): math.log(p)
               for n, p in zip(noise.values, noise.probs)}

    def loglik(residual):
        key = np.round(residual, ROUND_DECIMALS)
        out = np.full(residual.shape, -np.inf)
        for node, lp in log_pmf.items():
            out = np.where(np.isclose(key, node, rtol=0, atol=10.0**-ROUND_DECIMALS), lp, out)
        return out

    # log posterior (aux.count, m): reductions along rows, not the short axis
    post = np.tile(np.log(aux.probs)[:, None], (1, m))
    out = np.empty((m, N))
    for k in range(N):
        w = np.exp(post - post.max(axis=0))
        w /= w.sum(axis=0)
        # an (m, aux.count) gemv operand: `hypo[:, k] @ w` or `w.T @ hypo[:, k]`
        # takes another BLAS kernel and can differ in the last bit
        out[:, k] = np.ascontiguousarray(w.T) @ hypo[:, k]
        residual = sim.dU[:, k] - hypo[:, k][:, None] * grid.dt
        post = post + loglik(residual)
        if not np.all(np.isfinite(post.max(axis=0))):
            raise DegeneracyError(f"no aux hypothesis explains an observed increment at step {k}")
    return EnsembleFilter(out, "finite-bayes")


def match_atoms(space: AtomSpace, sim: EnsembleSimulation) -> np.ndarray:
    """Atom index of each sampled quantized path (exact lattice lookup)."""
    aux = None if space.aux is None else space.aux.index(sim.aux[:, 0])
    return _atom_index(space, space.noise.index(sim.dB), aux)


@dataclass(frozen=True)
class CrosscheckReport:
    """Monte Carlo estimates against their enumeration counterparts."""

    entropy_rel_error: float
    energy_rel_error: float
    filter_deviation: float
    tolerance: float
    passed: bool


def filter_deviation(space: AtomSpace, atoms: np.ndarray, uhat: np.ndarray) -> float:
    """Largest deviation of the filter values uhat (m, N) of paths on the
    atoms `atoms` (m,) from the grouped conditional expectations of those
    atoms."""
    return float(np.max(np.abs(uhat - space.uhat[atoms])))


def estimator_crosscheck(exact: DiscreteVerdict, filter_dev: float,
                         mc_push: float, mc_energy: float,
                         tolerance: float = 0.05) -> CrosscheckReport:
    """Deviation report of a quantized Monte Carlo run against enumeration.

    exact is the verdict of the observation the Monte Carlo estimates were
    computed for (``space.system()``, or a lossy view of it).  Compares the
    plug-in pushforward entropy and the weighted energy with its values,
    both within `tolerance`, and requires `filter_dev`, the
    `filter_deviation` of the sampled paths' filter values, below 1e-8.
    """
    rel = lambda got, want: abs(got - want) / max(abs(want), 1e-12)
    push_rel = rel(mc_push, exact.pushforward_entropy)
    energy_rel = rel(mc_energy, exact.energy)
    passed = bool(push_rel < tolerance and energy_rel < tolerance
                  and filter_dev < 1e-8)
    return CrosscheckReport(push_rel, energy_rel, filter_dev, tolerance, passed)


# --------------------------------------------------------------------- witness

def witness_labels(Z: np.ndarray) -> np.ndarray:
    """Information-erasing observation: keep only |Z(1)|, forget its sign."""
    return np.abs(Z[:, -1])


def witness_space(kick: float = 1.0) -> tuple[AtomSpace, FiniteSystem]:
    """The bundled strict-gap witness: two-step one-sided feedback drift on
    two-point noise, observed only through the magnitude of the terminal
    innovation.

    Colliding atoms carry different densities (the one-sided kick breaks
    the symmetry), so the erased observation strictly loses entropy.
    """
    grid = TimeGrid(steps=2)
    noise = gauss_quantized(2, grid.dt)
    space = enumerate_atoms(WitnessDrift(kick), grid, noise)
    return space, space.system(relabel=witness_labels)


# --------------------------------------------------------------------- battery

def random_finite_system(rng: np.random.Generator, kind: str) -> FiniteSystem:
    """One random instance for the data-processing battery.

    kind "pipeline": an enumerated drift model (density is an observation
    functional; equality must hold).  kind "erasure": the same but observed
    through a lossy map (strict gap unless symmetries align).  kind
    "abstract": random density and random observation classes.
    """
    if kind == "pipeline":
        space = _random_pipeline_space(rng)
        return space.system()
    if kind == "erasure":
        space = _random_pipeline_space(rng, force_drift=True)
        keep = rng.integers(1, space.grid.steps + 1)
        sign_blind = bool(rng.integers(0, 2))

        def relabel(Z, keep=keep, sign_blind=sign_blind):
            vals = Z[:, keep]
            return np.abs(vals) if sign_blind else np.round(vals, 1)

        return space.system(relabel=relabel)
    if kind == "abstract":
        atoms = int(rng.integers(6, 40))
        probs = rng.dirichlet(np.ones(atoms) * 2.0)
        classes = int(rng.integers(2, max(3, atoms // 2)))
        labels = rng.integers(0, classes, size=atoms)
        if rng.integers(0, 2):
            # density constant on classes: equality instance
            class_rho = rng.uniform(0.2, 3.0, size=classes)
            rho = class_rho[labels]
        else:
            rho = rng.uniform(0.2, 3.0, size=atoms)
        rho = rho / np.sum(probs * rho)
        u_labels = np.arange(atoms)
        return FiniteSystem(probs, rho, labels, u_labels, np.zeros(atoms))
    raise UsageError(f"unknown battery kind {kind!r}")


def _random_pipeline_space(rng: np.random.Generator, force_drift: bool = False) -> AtomSpace:
    N = int(rng.integers(2, 4))
    grid = TimeGrid(steps=N)
    m = int(rng.integers(2, 4))
    noise = gauss_quantized(m, grid.dt)
    choice = rng.integers(0 if not force_drift else 1, 3)
    if choice == 0:
        model = DeterministicDrift(shape="constant", value=float(rng.uniform(-1.5, 1.5)))
    elif choice == 1:
        model = LinearFeedback(a=float(rng.uniform(0.2, 2.0)))
    else:
        model = WitnessDrift(kick=float(rng.uniform(0.5, 2.0)))
    return enumerate_atoms(model, grid, noise)


def system_battery(count: int = 100, seed: int = 7) -> list[FiniteSystem]:
    """Deterministic battery mixing equality and strict-gap instances."""
    rng = np.random.default_rng(seed)
    kinds = (["pipeline"] * (count * 2 // 5)
             + ["erasure"] * (count * 3 // 10)
             + ["abstract"] * (count - count * 2 // 5 - count * 3 // 10))
    return [random_finite_system(rng, k) for k in kinds]
