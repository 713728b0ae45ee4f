"""Probability objects, divergences, and method-of-types utilities.

Conventions used throughout the package:

* all logarithms are natural, rates and divergences are in nats;
* ``0 * log 0 = 0`` and ``x * log(x/0) = +inf`` for ``x > 0``, enforced by
  explicit guards rather than floating-point propagation;
* joint distributions over (output, input) pairs are stored as ``(|Y|, |X|)``
  arrays ``mass[y, x]``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

SUM_ATOL = 1e-12
# Inputs whose sum deviates from 1 by more than this are rejected instead of
# silently renormalized (a config bug, not float noise).
RENORM_TOL = 1e-9
# Metric differences at or below this are ties (kept identical between the
# decoder and the exact finite-n analyzer so both resolve ties the same way).
TIE_TOL = 1e-12
# Largest x with a finite exp(x): codebook sizes e^{n*rate} beyond it are refused.
MAX_LOG_CODEBOOK = math.log(sys.float_info.max)


class ResourceLimitError(RuntimeError):
    """An enumeration, grid, or codebook exceeds its configured cap."""


def _as_prob_vector(values, what: str) -> np.ndarray:
    vec = np.asarray(values, dtype=float)
    if vec.ndim != 1 or vec.size == 0:
        raise ValueError(f"{what} must be a non-empty 1-D vector")
    if np.any(vec < 0) or not np.all(np.isfinite(vec)):
        raise ValueError(f"{what} entries must be finite and non-negative")
    total = float(vec.sum())
    if abs(total - 1.0) > RENORM_TOL:
        raise ValueError(f"{what} sums to {total!r}, further than {RENORM_TOL} from 1")
    vec = vec / total
    vec.flags.writeable = False
    return vec


@dataclass(frozen=True)
class Distribution:
    """Probability vector over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _as_prob_vector(self.probs, "distribution"))

    def __len__(self) -> int:
        return self.probs.size

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.probs > 0)

    @staticmethod
    def uniform(size: int) -> "Distribution":
        return Distribution(np.full(size, 1.0 / size))

    @staticmethod
    def point_mass(size: int, letter: int) -> "Distribution":
        probs = np.zeros(size)
        probs[letter] = 1.0
        return Distribution(probs)


@dataclass(frozen=True)
class Channel:
    """Row-stochastic matrix ``matrix[x, y] = P(y|x)`` over finite alphabets."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.size == 0:
            raise ValueError("channel must be a non-empty 2-D matrix")
        rows = np.stack([_as_prob_vector(row, f"channel row {x}") for x, row in enumerate(mat)])
        rows.flags.writeable = False
        object.__setattr__(self, "matrix", rows)

    @property
    def num_inputs(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_outputs(self) -> int:
        return self.matrix.shape[1]

    @staticmethod
    def bsc(crossover: float) -> "Channel":
        return Channel(np.array([[1 - crossover, crossover], [crossover, 1 - crossover]]))


@dataclass(frozen=True)
class JointDistribution:
    """Joint distribution ``mass[y, x]`` over output x input pairs."""

    mass: np.ndarray

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=float)
        if mass.ndim != 2 or mass.size == 0:
            raise ValueError("joint mass must be a non-empty 2-D matrix")
        if np.any(mass < 0) or not np.all(np.isfinite(mass)):
            raise ValueError("joint mass entries must be finite and non-negative")
        total = float(mass.sum())
        if abs(total - 1.0) > RENORM_TOL:
            raise ValueError(f"joint mass sums to {total!r}, further than {RENORM_TOL} from 1")
        mass = mass / total
        mass.flags.writeable = False
        object.__setattr__(self, "mass", mass)

    @property
    def num_outputs(self) -> int:
        return self.mass.shape[0]

    @property
    def num_inputs(self) -> int:
        return self.mass.shape[1]

    @property
    def marginal_y(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    @property
    def marginal_x(self) -> np.ndarray:
        return self.mass.sum(axis=0)

    @property
    def cond_x_given_y(self) -> np.ndarray:
        """V(x|y) rows; rows with zero output mass are left all-zero."""
        t = self.marginal_y
        v = np.zeros_like(self.mass)
        pos = t > 0
        v[pos] = self.mass[pos] / t[pos, None]
        return v

    @staticmethod
    def from_t_v(t, v) -> "JointDistribution":
        t = np.asarray(t, dtype=float)
        v = np.asarray(v, dtype=float)
        return JointDistribution(t[:, None] * v)


@dataclass(frozen=True)
class TypeWithDenominator:
    """Integer count matrix ``counts[y, x]`` summing to the blocklength ``n``."""

    counts: np.ndarray
    n: int

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 2 or not np.issubdtype(counts.dtype, np.integer):
            raise ValueError("counts must be a 2-D integer matrix")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if counts.sum() != self.n:
            raise ValueError(f"counts sum to {counts.sum()}, expected n={self.n}")
        counts = counts.copy()
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)


def guarded_log(a, off: float) -> np.ndarray:
    """Elementwise log of the positive entries of ``a``, and ``off`` (0 or
    -inf) at its zeros."""
    a = np.asarray(a, dtype=float)
    pos = a > 0
    return np.where(pos, np.log(np.where(pos, a, 1.0)), off)


def xlogx(a) -> np.ndarray:
    """Elementwise ``a * log(a)`` with ``0 * log 0 = 0``."""
    a = np.asarray(a, dtype=float)
    return a * np.log(np.where(a > 0, a, 1.0))


def kl_masses(a: np.ndarray, b: np.ndarray) -> float:
    """KL divergence between two non-negative mass arrays of equal shape.

    Returns +inf iff ``a`` puts mass on a cell where ``b`` has none.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pos = a > 0
    if np.any(b[pos] <= 0):
        return math.inf
    av = a[pos]
    return float(np.sum(av * (np.log(av) - np.log(b[pos]))))


def mutual_information(j: JointDistribution) -> float:
    """I(X;Y) of the joint, as D(j || product of its own marginals)."""
    return kl_masses(j.mass, np.outer(j.marginal_y, j.marginal_x))


def empirical_joint_type(xseq, yseq, num_inputs: int, num_outputs: int) -> TypeWithDenominator:
    """Joint type counts[y, x] of a pair of equal-length symbol sequences."""
    xs = np.asarray(xseq)
    ys = np.asarray(yseq)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size == 0:
        raise ValueError("sequences must be non-empty 1-D arrays of equal length")
    if xs.min() < 0 or xs.max() >= num_inputs:
        raise ValueError("input symbol out of alphabet")
    if ys.min() < 0 or ys.max() >= num_outputs:
        raise ValueError("output symbol out of alphabet")
    flat = np.bincount(ys * num_inputs + xs, minlength=num_outputs * num_inputs)
    counts = flat.reshape(num_outputs, num_inputs)
    return TypeWithDenominator(counts, int(xs.size))


def num_compositions(total: int, parts: int) -> int:
    """Number of ways to write ``total`` as an ordered sum of ``parts`` >= 0 ints."""
    return math.comb(total + parts - 1, parts - 1)


def compositions_array(total: int, parts: int) -> np.ndarray:
    """All compositions of ``total`` into ``parts`` non-negative parts, as an
    int64 array of shape (count, parts) in lexicographic order.

    Stars and bars: each composition is a choice of ``parts - 1`` bar slots
    among ``total + parts - 1``, and its parts are the gaps between bars.
    ``combinations`` yields the bar slots in lexicographic order, which is the
    lexicographic order of the compositions.
    """
    count = num_compositions(total, parts)
    slots = total + parts - 1
    bars = np.fromiter(
        chain.from_iterable(combinations(range(slots), parts - 1)),
        dtype=np.int64,
        count=count * (parts - 1),
    ).reshape(count, parts - 1)
    edges = np.empty((count, parts + 1), dtype=np.int64)
    edges[:, 0] = -1
    edges[:, 1:-1] = bars
    edges[:, -1] = slots
    return np.diff(edges, axis=1) - 1


def codebook_size(n: int, rate: float) -> int:
    """Codebook size ceil(e^{n*rate}), snapping rates of the form log(m)/n to m.

    Raises ``ValueError`` on a negative or NaN rate, and ``ResourceLimitError``
    when e^{n*rate} is beyond the float range."""
    if not rate >= 0:  # also refuses NaN
        raise ValueError(f"rate must be non-negative and not NaN, got {rate!r}")
    try:
        log_m = n * rate
    except OverflowError:
        # n is beyond the float range, yet the product may be small (rate 0,
        # or a tiny rate): form it exactly.  Imported here, as no other path
        # needs the module.
        from fractions import Fraction

        log_m = Fraction(n) * Fraction(rate) if math.isfinite(rate) else rate
    if log_m > MAX_LOG_CODEBOOK:
        raise ResourceLimitError(
            f"codebook size e^(n*rate) at rate {rate!r} exceeds the cap "
            f"e^{MAX_LOG_CODEBOOK:.6g} of a float"
        )
    v = math.exp(log_m)
    nearest = round(v)
    if nearest >= 1 and abs(v - nearest) <= 1e-9 * max(v, 1.0):
        return nearest
    return math.ceil(v)
