"""Ground sets, counted set-function oracles, and continuous extensions.

Subsets are bitmask ints over element ids 0..n-1 (bit u set means element u
is in the set). Python ints are unbounded, so masks stay valid for any ground
set size; the exact enumeration routines enforce their own caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroundSet",
    "SetFunctionOracle",
    "SampleConfig",
    "SizeLimitError",
    "mask_of",
    "ids_of",
    "indicator",
    "mask_from_indicator",
    "multilinear_exact",
    "multilinear_sampled",
]

EXACT_MULTILINEAR_LIMIT = 20
# Oracles on at most this many elements keep the states seeded runs share
# (`_states`): at n = 50 sharing raised a sweep's peak memory by about 2%
# for no clear gain in time.
_STATE_MAX_N = 20
_EXACT_CHUNK = 1 << 12  # masks per batch of a 2^n table
# Float bytes one kernel step may gather: bounds the (rows, L, n) block an
# `ids_fn` builds for rows of set size L.
_KERNEL_BLOCK_BYTES = 1 << 18


class SizeLimitError(ValueError):
    """Raised when an exact enumeration is asked for a too-large ground set."""


def mask_of(ids) -> int:
    """Bitmask of an iterable of element ids."""
    m = 0
    for u in ids:
        m |= 1 << u
    return m


def ids_of(mask: int) -> list[int]:
    """Sorted element ids of a bitmask (a non-negative int)."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative; a set is a non-negative bitmask")
    out = []
    while mask:
        low = mask & -mask  # lowest set bit
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def indicator(mask: int, n: int) -> np.ndarray:
    """Characteristic vector in [0,1]^n of the set `mask`."""
    if mask >> n:  # nonzero for a negative mask too
        raise ValueError(f"mask {mask} outside the {n}-element ground set")
    x = np.zeros(n)
    for u in ids_of(mask):
        x[u] = 1.0
    return x


def mask_from_indicator(x) -> int:
    """Inverse of `indicator`; raises if any coordinate is not 0/1 within 1e-9."""
    m = 0
    for u, v in enumerate(x):
        if abs(v - 1.0) <= 1e-9:
            m |= 1 << u
        elif not abs(v) <= 1e-9:  # NaN fails both tests
            raise ValueError(f"coordinate {u} = {v} is not 0/1 within 1e-9")
    return m


@dataclass(frozen=True)
class GroundSet:
    """A ground set of n elements with dense stable ids 0..n-1."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ground set needs at least one element")


class SetFunctionOracle:
    """Counted black-box access to a set function f: 2^N -> R.

    `fn` receives a bitmask and must be deterministic. `eval_count` increases
    by one per evaluation, and `value` calls `fn` once per call.

    `ids_fn`, when given, is a vectorized form of `fn` on nonempty sets of
    one size: it receives a (B, L) int64 array whose row i holds the L >= 1
    sorted element ids of the i-th set, and returns B floats equal to `fn`
    on those sets. It is called with at most `_block_rows(L, n)` rows, so
    it may gather a (B, L, n) block. `values` groups the rows of its (B, n)
    boolean matrix by set size and `scan` builds its rows of |A| + 1 ids
    directly; the empty set goes to `fn`, never to `ids_fn`. Without an
    `ids_fn` both loop over `value`, as do the scans `ids_fn` cannot take.

    Every computed value must be finite; a NaN or infinity raises
    ValueError naming the oracle and the offending mask. A mask outside the
    ground set (negative, or with a bit at n or above) raises ValueError
    instead of reaching `fn` or `ids_fn`.

    Seeded runs on one oracle share the state they derive from f and their
    current set alone: random greedy's candidate set M_i per set A (and
    candidate rule), and random greedy for matroids' exchange law and
    scanned values per (matroid, base). The oracle keeps these states as
    long as it lives, in a dict `_states` that exists on at most
    `_STATE_MAX_N` elements and is None above. A run that finds its state
    there adds to `eval_count` the calls that building it would have made,
    so outputs and counts do not depend on the sharing. A key holds the
    matroid object, so a matroid must not be mutated after a run on the
    oracle has used it.
    """

    def __init__(self, ground: GroundSet, fn, name: str = "f", ids_fn=None):
        self.ground = ground
        self.n = ground.n
        self.name = name
        self._fn = fn
        self._ids_fn = ids_fn
        self._states: dict | None = {} if ground.n <= _STATE_MAX_N else None
        self.eval_count = 0

    def value(self, mask: int) -> float:
        if mask >> self.n:  # nonzero for a negative mask too
            raise ValueError(f"mask {mask} outside the {self.n}-element ground set")
        self.eval_count += 1
        v = float(self._fn(mask))
        if v - v:  # nonzero (NaN) only for NaN and +-inf
            self._reject(v, mask)
        return v

    def scan(self, A: int, candidates) -> list[float]:
        """f(A + u) for each candidate element u, in the given order, as a
        list of floats, counting one evaluation per candidate.

        This is the candidate scan of the greedy-type algorithms. A
        candidate outside 0..n-1 raises ValueError naming it before anything
        is counted. With an `ids_fn`, the rows (ids of A, u) sorted go to
        `ids_fn` directly, unless the scan is empty, A lies outside the
        ground set (which raises) or a candidate is already in A (which
        yields f(A)). Those scans, and every scan without an `ids_fn`, loop
        over `value` (finiteness check and counting included) and build no
        numpy array: on a handful of candidates the array round trip costs
        more than the evaluations.
        """
        if not isinstance(candidates, list):  # an iterator is read once
            candidates = list(candidates)
        n = self.n
        if candidates and (min(candidates) < 0 or max(candidates) >= n):
            bad = next(u for u in candidates if not 0 <= u < n)
            raise ValueError(f"candidate {bad} of oracle {self.name} is outside "
                             f"the {n}-element ground set")
        if self._ids_fn is not None and candidates and not A >> n:
            rows = np.empty((len(candidates), A.bit_count() + 1), dtype=np.int64)
            rows[:, :-1] = ids_of(A)
            rows[:, -1] = candidates
            rows.sort(axis=1)
            if not (rows[:, 1:] == rows[:, :-1]).any():  # no candidate in A
                self.eval_count += len(candidates)
                step = _block_rows(rows.shape[1], n)
                out = np.concatenate([self._kernel(rows[lo:lo + step])
                                      for lo in range(0, len(rows), step)])
                return self._finite(
                    out, lambda i: A | (1 << int(candidates[i]))).tolist()
        value = self.value
        return [value(A | (1 << u)) for u in candidates]

    def values(self, X: np.ndarray) -> np.ndarray:
        """Evaluate a batch of sets, counting one evaluation per set.

        `X` is a (B, n) boolean matrix whose row i marks the elements of the
        i-th set; any other input, shape or dtype raises ValueError. With an
        `ids_fn` the batch goes to it in one call per set size; otherwise
        each set goes through `value`.
        """
        if not (isinstance(X, np.ndarray) and X.ndim == 2 and X.shape[1] == self.n):
            raise ValueError(f"a batch of oracle {self.name} is a (B, {self.n}) "
                             f"boolean matrix, got shape {np.shape(X)}")
        if X.dtype != bool:
            raise ValueError(f"a batch of oracle {self.name} is a boolean matrix, "
                             f"got dtype {X.dtype}")
        if self._ids_fn is None:
            value = self.value
            return np.array([value(m) for m in _pack_masks(X)])  # float64: value() gives floats
        self.eval_count += len(X)
        return self._by_size(X)

    def _by_size(self, X: np.ndarray) -> np.ndarray:
        """Values of the rows of a (B, n) boolean matrix: one `ids_fn` call
        per size block, `fn` for the empty set."""
        out = np.empty(len(X))
        done = 0
        for rows, ids in _size_groups(X):
            out[rows] = self._kernel(ids)
            done += len(rows)
        if done < len(X):
            out[~X.any(axis=1)] = float(self._fn(0))
        return self._finite(out, lambda i: _pack_masks(X[i:i + 1])[0])

    def _kernel(self, ids: np.ndarray) -> np.ndarray:
        out = np.asarray(self._ids_fn(ids), dtype=float)
        if out.shape != (len(ids),):
            raise ValueError(f"ids_fn of oracle {self.name} returned shape "
                             f"{out.shape} for {len(ids)} sets")
        return out

    def _finite(self, out: np.ndarray, mask_at) -> np.ndarray:
        """`out`, once every entry is finite; else reject the first bad one,
        whose mask is `mask_at(i)`."""
        bad = ~np.isfinite(out)
        if bad.any():
            i = int(np.argmax(bad))
            self._reject(float(out[i]), mask_at(i))
        return out

    def _reject(self, v: float, mask: int):
        raise ValueError(f"oracle {self.name} returned non-finite value {v} "
                         f"for mask {mask} (elements {ids_of(mask)})")

    def __repr__(self):
        return f"SetFunctionOracle({self.name}, n={self.n}, calls={self.eval_count})"


@dataclass(frozen=True)
class SampleConfig:
    """Monte-Carlo control: sample count and RNG seed."""

    samples: int
    seed: int = 0

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("need samples >= 2 for a standard error")


def multilinear_exact(f: SetFunctionOracle, x) -> float:
    """Exact multilinear extension F(x) = sum_S f(S) prod x_u prod (1-x_u).

    Enumerates all 2^n subsets, so the ground set must have at most
    EXACT_MULTILINEAR_LIMIT elements; use `multilinear_sampled` beyond that.
    """
    n = f.n
    if n > EXACT_MULTILINEAR_LIMIT:
        raise SizeLimitError(
            f"exact multilinear enumeration capped at n={EXACT_MULTILINEAR_LIMIT}; "
            f"use multilinear_sampled for n={n}"
        )
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x must have shape ({n},)")
    if np.any(x < -1e-12) or np.any(x > 1 + 1e-12):
        raise ValueError("coordinates must lie in [0,1]")
    # weights[mask] = prob of drawing `mask` under independent inclusion; bit u
    # of the index corresponds to element u.
    w = np.array([1.0])
    for u in range(n):
        w = np.concatenate([w * (1.0 - x[u]), w * x[u]])
    total = 0.0
    for wm, v in zip(w.tolist(), _f_table(f).tolist()):
        total += wm * v
    return total


def _f_table(f: SetFunctionOracle) -> np.ndarray:
    """Values of f on all 2^n masks, in mask order, evaluated through
    `f.values` in chunks so that an `ids_fn` serves them and each chunk's
    (masks, n) boolean matrix stays bounded."""
    full = 1 << f.n
    bits = 1 << np.arange(f.n)
    return np.concatenate([
        f.values((np.arange(lo, min(lo + _EXACT_CHUNK, full))[:, None] & bits) != 0)
        for lo in range(0, full, _EXACT_CHUNK)])


def _pack_masks(bits: np.ndarray) -> list[int]:
    """Int masks of the rows of a (B, n) boolean matrix."""
    n = bits.shape[1]
    if n <= 62:
        weights = (1 << np.arange(n, dtype=np.int64))
        return (bits @ weights).tolist()
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _block_rows(L: int, n: int) -> int:
    """Rows of set size L per `ids_fn` call: at most _KERNEL_BLOCK_BYTES of
    (rows, L, n) floats, and at least one row."""
    return max(1, _KERNEL_BLOCK_BYTES // (8 * L * n))


def _size_groups(X: np.ndarray):
    """Split the nonempty rows of a (B, n) boolean mask matrix by set size.

    Yields (rows, ids): row indices into X and the (len(rows), L) array of
    their sorted element ids, in blocks of at most _KERNEL_BLOCK_BYTES of
    (len(rows), L, n) floats. Beyond one block, the split itself keeps two
    int64 per row of X. Rows of one size reduce over equally long axes, so
    a kernel that sums each row in one order gives it the value of its
    one-row batch, bit for bit.
    """
    n = X.shape[1]
    sizes = X.sum(axis=1)
    order = np.argsort(sizes, kind="stable")
    first = 0
    for size, count in enumerate(np.bincount(sizes, minlength=n + 1).tolist()):
        if size and count:
            step = _block_rows(size, n)
            for lo in range(first, first + count, step):
                rows = order[lo:min(lo + step, first + count)]
                yield rows, np.nonzero(X[rows])[1].reshape(len(rows), size)
        first += count


def multilinear_sampled(f: SetFunctionOracle, x, cfg: SampleConfig) -> tuple[float, float]:
    """Monte-Carlo estimate of F(x) with its standard error.

    Draws cfg.samples independent sets R(x) (element u included with
    probability x_u) and returns (mean, stderr). Bit-reproducible for a fixed
    seed.
    """
    n = f.n
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(cfg.seed)
    bits = rng.random((cfg.samples, n)) < x
    vals = f.values(bits)
    if vals.min() == vals.max():  # degenerate sample: mean is exact
        return float(vals[0]), 0.0
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(cfg.samples))
    return est, stderr

