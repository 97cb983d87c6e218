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
    "marginal",
    "multilinear_exact",
    "multilinear_sampled",
    "lovasz_extension",
]

EXACT_MULTILINEAR_LIMIT = 20
_EXACT_CHUNK = 1 << 12  # masks per batch of the exact multilinear enumeration


class SizeLimitError(ValueError):
    """Raised when an exact enumeration is asked for a too-large ground set."""


def mask_of(ids) -> int:
    """Bitmask of an iterable of element ids."""
    m = 0
    for u in ids:
        m |= 1 << u
    return m


def ids_of(mask: int) -> list[int]:
    """Sorted element ids of a bitmask."""
    out = []
    while mask:
        low = mask & -mask  # lowest set bit
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def indicator(mask: int, n: int) -> np.ndarray:
    """Characteristic vector in [0,1]^n of the set `mask`."""
    x = np.zeros(n)
    for u in ids_of(mask):
        x[u] = 1.0
    return x


def mask_from_indicator(x, tol: float = 1e-9) -> int:
    """Inverse of `indicator`; raises if any coordinate is not 0/1 within tol."""
    m = 0
    for u, v in enumerate(x):
        if v > 1.0 - tol:
            m |= 1 << u
        elif v > tol:
            raise ValueError(f"coordinate {u} = {v} is fractional")
    return m


@dataclass(frozen=True)
class GroundSet:
    """A ground set of n elements with dense stable ids 0..n-1."""

    n: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ground set needs at least one element")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels length must equal n")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def label(self, u: int) -> str:
        if self.labels is None:
            return str(u)
        return self.labels[u]


class SetFunctionOracle:
    """Counted black-box access to a set function f: 2^N -> R.

    `fn` receives a bitmask and must be deterministic. `eval_count` increases
    by one per logical evaluation; with memoize=True repeated masks skip the
    recomputation but the counter still advances, so counts stay comparable
    across cached and uncached oracles.

    `batch_fn`, when given, is a vectorized form of `fn`: it receives a
    (B, n) boolean matrix whose row i has column u set when element u is in
    the i-th set, and returns B floats equal to `fn` on those sets. `values`
    routes batches through it; without it `values` loops over `value`.

    Every freshly computed value must be finite; a NaN or infinity raises
    ValueError naming the oracle and the offending mask.
    """

    def __init__(self, ground: GroundSet, fn, memoize: bool = False, name: str = "f",
                 batch_fn=None):
        self.ground = ground
        self.name = name
        self._fn = fn
        self._batch_fn = batch_fn
        self._memo: dict | None = {} if memoize else None
        self.eval_count = 0

    @property
    def n(self) -> int:
        return self.ground.n

    def value(self, mask: int) -> float:
        self.eval_count += 1
        memo = self._memo
        if memo is None:
            v = float(self._fn(mask))
            if v - v:  # nonzero (NaN) only for NaN and +-inf
                self._reject(v, mask)
            return v
        v = memo.get(mask)
        if v is None:
            v = float(self._fn(mask))
            if v - v:
                self._reject(v, mask)
            memo[mask] = v
        return v

    def values(self, masks) -> np.ndarray:
        """Evaluate a batch of sets, counting one evaluation per set.

        `masks` is a sequence of int masks or a (B, n) boolean matrix. With a
        `batch_fn` the batch is one kernel call (memoized oracles send it only
        the masks missing from the memo, then store them); otherwise each set
        goes through `value`.
        """
        matrix = isinstance(masks, np.ndarray) and masks.ndim == 2
        if matrix and masks.shape[1] != self.n:
            raise ValueError(f"mask matrix needs {self.n} columns, got {masks.shape[1]}")
        if self._batch_fn is None:
            if matrix:
                masks = _pack_masks(masks)
            value = self.value
            return np.array([value(m) for m in masks])  # float64: value() gives floats
        if matrix:
            X = masks.astype(bool, copy=False)
            self.eval_count += len(X)
        else:
            masks = [int(m) for m in masks]
            self.eval_count += len(masks)
        memo = self._memo
        if memo is None:
            return self._batch(X if matrix else _unpack_masks(masks, self.n))
        keys = _pack_masks(X) if matrix else masks
        missing = [key for key in dict.fromkeys(keys) if key not in memo]
        if missing:
            fresh = self._batch(_unpack_masks(missing, self.n))
            memo.update(zip(missing, fresh.tolist()))
        return np.array([memo[key] for key in keys])  # float64: memo holds floats

    def _batch(self, X: np.ndarray) -> np.ndarray:
        out = np.asarray(self._batch_fn(X), dtype=float)
        if out.shape != (len(X),):
            raise ValueError(f"batch_fn of oracle {self.name} returned shape "
                             f"{out.shape} for {len(X)} sets")
        bad = ~np.isfinite(out)
        if bad.any():
            i = int(np.argmax(bad))
            self._reject(float(out[i]), _pack_masks(X[i:i + 1])[0])
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
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


def marginal(f: SetFunctionOracle, u: int, mask: int) -> float:
    """Marginal gain of adding element u to the set `mask` (two oracle calls)."""
    bit = 1 << u
    if mask & bit:
        raise ValueError(f"element {u} is already in the set")
    return f.value(mask | bit) - f.value(mask)


def multilinear_exact(f: SetFunctionOracle, x, limit: int = EXACT_MULTILINEAR_LIMIT) -> float:
    """Exact multilinear extension F(x) = sum_S f(S) prod x_u prod (1-x_u).

    Enumerates all 2^n subsets, so the ground set must have at most `limit`
    elements; use `multilinear_sampled` beyond that.
    """
    n = f.n
    if n > limit:
        raise SizeLimitError(
            f"exact multilinear enumeration capped at n={limit}; "
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
    for lo in range(0, 1 << n, _EXACT_CHUNK):
        vals = f.values(range(lo, min(lo + _EXACT_CHUNK, 1 << n)))
        for wm, v in zip(w[lo:lo + _EXACT_CHUNK].tolist(), vals.tolist()):
            total += wm * v
    return total


def _pack_masks(bits: np.ndarray) -> list[int]:
    """Int masks of the rows of a (B, n) boolean matrix."""
    n = bits.shape[1]
    if n <= 62:
        weights = (1 << np.arange(n, dtype=np.int64))
        return (bits @ weights).tolist()
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _unpack_masks(masks: list[int], n: int) -> np.ndarray:
    """(B, n) boolean matrix of int masks over an n-element ground set."""
    if n <= 62:
        arr = np.array(masks, dtype=np.int64).reshape(-1, 1)
        if np.any(arr >> n):
            raise ValueError(f"mask outside the {n}-element ground set")
        return (arr & (1 << np.arange(n, dtype=np.int64))) != 0
    if any(m >> n for m in masks):
        raise ValueError(f"mask outside the {n}-element ground set")
    width = (n + 7) // 8
    buf = b"".join(m.to_bytes(width, "little") for m in masks)
    rows = np.frombuffer(buf, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little").astype(bool)


def multilinear_sampled(f: SetFunctionOracle, x, cfg: SampleConfig) -> tuple[float, float]:
    """Monte-Carlo estimate of F(x) with its standard error.

    Draws cfg.samples independent sets R(x) (element u included with
    probability x_u) and returns (mean, stderr). Bit-reproducible for a fixed
    seed.
    """
    if cfg.samples < 2:
        raise ValueError("need samples >= 2 for a standard error")
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


def lovasz_extension(f: SetFunctionOracle, x) -> float:
    """Exact Lovász extension by threshold decomposition (n+1 oracle calls).

    Sorts coordinates descending (ties by id; the result is tie-independent
    because zero gaps carry zero weight) and accumulates f on prefix sets
    weighted by consecutive threshold gaps.
    """
    n = f.n
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x must have shape ({n},)")
    order = np.argsort(-x, kind="stable")
    xs = x[order]
    total = (1.0 - xs[0]) * f.value(0)
    mask = 0
    for i in range(n):
        mask |= 1 << int(order[i])
        hi = xs[i]
        lo = xs[i + 1] if i + 1 < n else 0.0
        total += (hi - lo) * f.value(mask)
    return total
