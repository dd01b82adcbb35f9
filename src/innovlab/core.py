"""Discretized Wiener space: grids, counter-based random streams, energies.

Conventions used throughout the package:

* uniform grids on [0, horizon] with N steps, t_k = k * horizon / N;
* observations are scalar, and an ensemble of m paths is stacked: path
  values are (m, N+1) arrays whose column 0 is 0, one value per grid
  point; a single path is m = 1;
* adapted integrands are (m, N) arrays, one value per subinterval,
  column k being the value on [t_k, t_{k+1}) (left-point convention);
* ensemble arrays are column-major (order="F"), so the column of one time
  step is contiguous for every pass that walks the steps: the Euler
  recursion, the filters, the innovation and the feature builder;
* per-path reductions over time (log-weights, energies) run on row-major
  copies of a few rows at a time (`row_chunks`): an einsum over
  column-major rows adds in another order and moves the last bit;
* every stochastic integral is the non-anticipating left-point sum.

Randomness follows a counter-based contract: a (seed, substream) pair maps
to an independent Philox4x64-10 stream, substream index = path index, so
ensembles are reproducible bit-for-bit regardless of how paths are split
into row blocks or how the blocks are shared among processes.  Lane l of
substream s is the stream with key [seed, 0] and stream index
j = 16*s + l held in counter words 2-3, i.e.
`Philox(key=seed).jumped(j)`.  Like numpy's Philox, a stream increments
counter word 0 before each block, so block b = 1, 2, ... is the Philox
image of counter [b, 0, j mod 2^64, j >> 64]; its four output words are
used in order.

* Uniform lanes are computed for many paths at once by `philox4x64_10`
  (`RandomStream.uniforms`): a uniform is (word >> 11) * 2^-53, numpy's
  `Generator.random`.
* Gaussian lanes keep numpy's ziggurat.  One generator per call is
  re-seated (`RandomStream.seat`) before each draw to counter
  [0, 0, j mod 2^64, j >> 64], key [seed, 0], with an empty buffer
  (buffer_pos = 4, has_uint32 = 0), which is the state of a fresh
  `Philox(key=seed).jumped(j)`.

Independent pieces of work (the front end's row blocks, the criterion's
weight sets) are dealt over one forked process per CPU by `fork_map`, the
package's one place that forks and reaps and that builds the record of
what each child did.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import time
from dataclasses import dataclass

import numpy as np

from .errors import ChildProcessLost, ConfigurationError

__all__ = [
    "TimeGrid",
    "RandomStream",
    "philox4x64_10",
    "path_energies",
    "PATH_BLOCK",
    "row_chunks",
    "shared_array",
    "fork_map",
]

#: rows in one block of the continuous front end (simulation, filter and
#: innovation); each of its processes holds one block at a time
PATH_BLOCK = 1024

#: values in one chunk of rows copied between a column-major ensemble array
#: and a row-major buffer: a block's draws, the Girsanov layer's sums
CHUNK_VALUES = 2**15

# Lane indices carving one substream into independent channels.  Lane 3 is
# unused; renumbering would move every quantized draw.
LANE_AUX = 0
LANE_BROWNIAN = 1
LANE_HIDDEN = 2
LANE_NOISE = 4
_LANES = 16


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with `steps` subintervals of [0, horizon]."""

    steps: int
    horizon: float = 1.0

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigurationError(f"grid needs at least one step, got {self.steps}")
        if not (self.horizon > 0):
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        """Grid points t_0 = 0, ..., t_N = horizon, length steps + 1."""
        return np.linspace(0.0, self.horizon, self.steps + 1)

    @property
    def left_times(self) -> np.ndarray:
        """Left endpoints t_0, ..., t_{N-1}, one per subinterval."""
        return self.times[:-1]


_WORD = 2**64
# the stream index 16*s + l must fit counter words 2-3
_SUBSTREAMS = 2**128 // _LANES

_U64 = np.uint64
_LO32 = _U64(0xFFFFFFFF)
_PHILOX_M = (_U64(0xD2E7470EE14C6C93), _U64(0xCA5A826395121157))
_PHILOX_W = (_U64(0x9E3779B97F4A7C15), _U64(0xBB67AE8584CAA73B))


def _mulhilo(a, b):
    """Low and high 64-bit words of the 128-bit product a * b (uint64)."""
    a_lo, a_hi = a & _LO32, a >> _U64(32)
    b_lo, b_hi = b & _LO32, b >> _U64(32)
    ll = a_lo * b_lo
    lh = a_lo * b_hi
    # no overflow: the terms are < 2^32, < 2^32 and <= (2^32 - 1)^2
    cross = (ll >> _U64(32)) + (lh & _LO32) + a_hi * b_lo
    return a * b, a_hi * b_hi + (lh >> _U64(32)) + (cross >> _U64(32))


def philox4x64_10(counter, key):
    """Philox4x64-10 block function (Salmon et al., SC'11), vectorized.

    counter is four uint64 arrays (or scalars) that broadcast together, key
    two; returns the four output words.  Each round multiplies words 0 and 2
    by the Philox constants and mixes the high halves with the key, which
    the Weyl constants bump between rounds.  Bit-equal to numpy's Philox.
    """
    c0, c1, c2, c3 = (np.asarray(c, dtype=_U64) for c in counter)
    k0, k1 = (_U64(k) for k in key)
    with np.errstate(over="ignore"):
        for r in range(10):
            if r:
                k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
            lo0, hi0 = _mulhilo(_PHILOX_M[0], c0)
            lo1, hi1 = _mulhilo(_PHILOX_M[1], c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def _stream_index(substream: int, lane: int) -> int:
    """Index j = 16*substream + lane of one lane; counter words 2-3 hold it."""
    if not 0 <= lane < _LANES:
        raise ConfigurationError(f"lane must be in [0, {_LANES}), got {lane}")
    if not 0 <= substream < _SUBSTREAMS:
        raise ConfigurationError(f"substream must be in [0, 2**124), got {substream}")
    return substream * _LANES + lane


@dataclass(frozen=True)
class RandomStream:
    """Pure (seed, substream) -> byte stream map built on Philox counters.

    Substreams are mutually independent; `lane` splits one substream into
    independent channels (aux draws, Brownian increments, hidden noise, ...)
    so that the draw order inside one channel never perturbs another.

    Lane l of substream s draws Philox4x64-10 blocks under key [seed, 0]
    from counters [b, 0, j mod 2^64, j >> 64], b = 1, 2, ..., where
    j = 16*s + l; this is `Philox(key=seed).jumped(j)`, which pre-increments
    word 0 before each block.  `uniforms` computes uniform lanes of many
    substreams at once; `seat` points one shared generator at a Gaussian
    lane.  Both give the draws of `generator()` bit for bit.
    """

    seed: int
    substream: int = 0
    lane_index: int = LANE_BROWNIAN

    def __post_init__(self):
        if not 0 <= self.seed < _WORD:
            raise ConfigurationError(f"seed must be in [0, 2**64), got {self.seed}")
        _stream_index(self.substream, self.lane_index)  # raises when out of range

    def lane(self, lane_index: int) -> "RandomStream":
        return RandomStream(self.seed, self.substream, lane_index)

    def generator(self) -> np.random.Generator:
        """Fresh generator; same (seed, substream, lane) -> same draws."""
        bg = np.random.Philox(key=np.uint64(self.seed))
        return np.random.Generator(bg.jumped(_stream_index(self.substream, self.lane_index)))

    def seat(self, rng: np.random.Generator, lane: int, offset: int = 0) -> np.random.Generator:
        """Re-seat a Philox-backed generator at the start of `lane` of substream
        `substream + offset`; returns rng, which then draws exactly what
        `RandomStream(seed, substream + offset).lane(lane).generator()` does.
        """
        j = _stream_index(self.substream + offset, lane)
        rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, j % _WORD, j // _WORD], "key": [self.seed, 0]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return rng

    def uniforms(self, lane: int, m: int, n: int) -> np.ndarray:
        """(m, n) uniforms on [0, 1): row i equals, bit for bit,
        `RandomStream(seed, substream + i).lane(lane).generator().random(n)`.
        """
        j = _stream_index(self.substream, lane)
        _stream_index(self.substream + max(m - 1, 0), lane)  # the last row fits too
        # stream index of each row as counter words 2 (low) and 3 (high, plus carry)
        low = _U64(j % _WORD) + _U64(_LANES) * np.arange(m, dtype=_U64)
        high = _U64(j // _WORD) + (low < _U64(j % _WORD))
        blocks = -(-n // 4)
        counter = (np.arange(1, blocks + 1, dtype=_U64), 0, low[:, None], high[:, None])
        words = np.stack(np.broadcast_arrays(*philox4x64_10(counter, (self.seed, 0))), axis=-1)
        return (words.reshape(m, 4 * blocks)[:, :n] >> _U64(11)) * 2.0**-53


def row_chunks(m: int, n: int) -> list[slice]:
    """Slices of about CHUNK_VALUES values (at least a row) over m rows of n."""
    rows = max(CHUNK_VALUES // max(n, 1), 1)
    return [slice(lo, min(lo + rows, m)) for lo in range(0, m, rows)]


def path_energies(x: np.ndarray, dt: float) -> np.ndarray:
    """Per-member energy  sum_k x_k^2 dt  of stacked integrands (m, N)."""
    return np.einsum("mk,mk->m", x, x) * dt



def shared_array(shape) -> np.ndarray:
    """A column-major float64 array in anonymous shared memory, so that the
    rows a forked child writes are the caller's rows too."""
    return np.ndarray(shape, order="F", buffer=mmap.mmap(-1, 8 * math.prod(shape)))


def _fork_processes(items: int) -> int:
    """Processes that share `items` independent items: one per CPU this
    process may run on, and no more than there are items."""
    return min(len(os.sched_getaffinity(0)), items)


def fork_map(fn, items, stages=None) -> tuple[list, dict]:
    """`[fn(item, stages) for item in items]`, the items dealt over
    P = `_fork_processes(len(items))` processes.

    The caller runs items 0, P, 2P, .. with `stages`, and each of P - 1
    forked children runs items i, i + P, .. with a dict of its own.  A
    child sends back, pickled on a pipe, its results, its stages, its
    seconds and the error it raised; so a result must pickle, and an item's
    result must not depend on which process ran it.

    Returns the results in item order and the stage's fork record:
    `{"processes": P, "children": [...]}`, per child its item count
    (`items`), its `seconds`, its `stages` dict and its peak RSS in MB
    (`peak_rss_mb`).  A child's error is raised here as itself, and a child
    that ended without a report as a `ChildProcessLost`.  Every child is
    reaped before this returns or raises, and killed first when the
    caller's own items raise.  With P = 1 nothing forks.
    """
    items = list(items)
    stages = {} if stages is None else stages
    processes = max(_fork_processes(len(items)), 1)
    children = []
    try:
        for i in range(1, processes):
            children.append(_fork(fn, items[i::processes]))
        own = [fn(item, stages) for item in items[::processes]]
    except BaseException:
        import signal  # only a failed run needs it; a run's set-up does not load it

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        reports = [_reap(*child) for child in children]

    results = [None] * len(items)
    results[::processes] = own
    record = {"processes": processes, "children": []}
    for i, ((pid, _), (report, status, peak)) in enumerate(zip(children, reports), 1):
        try:
            values, child_stages, seconds, error = pickle.loads(report)
        except Exception:  # empty or cut short: the child died before it reported
            code = os.waitstatus_to_exitcode(status)
            how = f"exit status {code}" if code >= 0 else f"killed by signal {-code}"
            raise ChildProcessLost(f"forked child {pid} ended without a report ({how})") from None
        if error is not None:
            raise error
        results[i::processes] = values
        record["children"].append({"items": len(values), "seconds": seconds,
                                   "stages": child_stages, "peak_rss_mb": peak})
    return results, record


def _fork(fn, items):
    """Fork a child that runs `fn(item, stages)` on each of `items` and
    sends back, pickled on a pipe, its results, its `stages`, its seconds
    and the error it raised, or None.  The child always leaves by
    `os._exit`, with status 0 once its report is sent.  Returns (pid, read
    end)."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            t0 = time.perf_counter()
            os.close(read)
            stages: dict = {}
            results = []
            try:
                results = [fn(item, stages) for item in items]
                error = None
            except BaseException as exc:  # sent to the caller, which raises it
                error = exc
            with os.fdopen(write, "wb") as fh:
                pickle.dump((results, stages, time.perf_counter() - t0, error), fh)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _reap(pid, read):
    """Read a child's whole report, then wait for it; returns the report,
    the child's wait status and its peak RSS in MB."""
    with os.fdopen(read, "rb") as fh:
        report = fh.read()
    _, status, usage = os.wait4(pid, 0)
    return report, status, usage.ru_maxrss * 1024 / 1e6
