"""Closed-form exponent evaluation for i.i.d. random codes on a DMC.

Provides the Gallager function E0(rho, Q) with its tilted minimizing joint
distributions, the explicit random-coding error exponent (maximized over
rho in [0, 1]), the ML and strict correct-decoding exponents (maximized over
rho in [-1, 0] including the rho = -1 limit family), and an
alternating-maximization capacity solver used for support conditions.

The slope D(T_rho o V_rho || T_rho x Q) equals dE0/drho and is non-increasing
in rho, so the maximizing rho for a given rate is located by bisection on the
slope.  E0(., Q) does not depend on the rate, so a whole rate grid is solved
at once: one raw-array kernel (``_tilted``) evaluates E0 and the slope for a
batch of rho values (and optionally of Q rows), and the bisections of all
rates run in lockstep.  The scalar exponents are the one-rate case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .itcore import (
    Channel,
    Distribution,
    JointDistribution,
    kl_masses,
)


# Offset from rho = -1 below which the closed-form rho = -1 branch takes over.
_RHO_EDGE = 1e-6
_BISECT_ITERS = 200
# Slopes evaluated per batched call of a bisection round (see _bisect_slopes).
_ROUND_SLOPES = 32


class Boundary(Enum):
    INTERIOR = "interior"
    RHO_ZERO = "rho_zero"
    RHO_ONE = "rho_one"
    RHO_MINUS_ONE = "rho_minus_one"


@dataclass(frozen=True)
class TiltedSolution:
    """Minimizer bundle at a slope parameter rho > -1."""

    rho: float
    joint: JointDistribution
    e0: float
    slope: float


@dataclass(frozen=True)
class MinusOneFamily:
    """The rho = -1 limit family of minimizers.

    ``t_minus1`` is proportional to the per-output maximum of P(y|x) over the
    support of Q; conditionals in the family place mass only on the argmax
    sets.  ``v_minus`` (proportional to Q on each argmax set) attains the
    smallest divergence ``r_minus``; ``v_plus`` (point mass on the least
    likely argmax letter) attains the largest, ``r_plus``.
    """

    t_minus1: Distribution
    argmax_sets: tuple
    e0_minus1: float
    r_minus: float
    r_plus: float
    v_minus: np.ndarray
    v_plus: np.ndarray


@dataclass(frozen=True)
class ExponentResult:
    value: float
    rho_star: float
    minimizer: JointDistribution
    boundary_flag: Boundary


@dataclass(frozen=True)
class StrictDomainReport:
    """Returned by the strict exponent for rates above r_plus, where the
    explicit formula no longer equals the strict constrained minimum."""

    rate: float
    r_plus: float
    reason: str = "rate exceeds r_plus; explicit formula does not apply to the strict minimum"


def _safe_log(a) -> np.ndarray:
    """Elementwise log with -inf at zero entries."""
    a = np.asarray(a, dtype=float)
    out = np.full(a.shape, -np.inf)
    pos = a > 0
    out[pos] = np.log(a[pos])
    return out


def _math_log(a: np.ndarray) -> np.ndarray:
    """Elementwise ``math.log``.  ``np.log`` can differ from it in the last
    bit; E0 has always been taken with ``math.log``, and keeping it keeps
    earlier outputs byte-identical."""
    return np.fromiter(map(math.log, a.tolist()), dtype=float, count=a.size)


def _masked_sum(vals: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-row ``vals[b, mask[b]].sum()`` with numpy's summation order.

    Summing a row with zeros in place of the masked-out cells can round
    differently (numpy sums pairwise), so rows are grouped by mask pattern.
    """
    if mask.all():
        return vals.sum(axis=-1)
    groups = {}
    for b, row in enumerate(mask):
        groups.setdefault(row.tobytes(), []).append(b)
    out = np.empty(vals.shape[0])
    for rows in groups.values():
        # np.ix_ gives C-ordered rows; a[:, cols] need not, and a sum over a
        # strided axis is not pairwise.
        out[rows] = vals[np.ix_(rows, mask[rows[0]])].sum(axis=-1)
    return out


def _log_partition(rho: np.ndarray, logq: np.ndarray, logp: np.ndarray):
    """Log-domain core of the tilted kernel, batched over ``rho`` (shape (B,)).

    ``logq`` is log Q(x), -inf off supp(Q), with shape (|X|,) or one row per
    rho (B, |X|); ``logp`` is log P(y|x), -inf where P is zero.  Returns
    ``terms`` (B, |X|, |Y|) = log Q(x) P(y|x)^gamma, the per-output log inner
    sums ``li`` (B, |Y|), the mask of outputs reachable from supp(Q), the
    unnormalized log T_rho and log_z = -E0(rho, Q), all with gamma = 1/(1+rho).
    """
    gamma = 1.0 / (1.0 + rho)
    terms = logq[..., :, None] + gamma[:, None, None] * logp
    mx = terms.max(axis=1)
    reachable = np.isfinite(mx)
    safe = np.where(reachable, mx, 0.0)
    with np.errstate(divide="ignore"):
        # log 0 = -inf marks the unreachable outputs in li and log_t too.
        li = np.log(np.exp(terms - safe[:, None, :]).sum(axis=1)) + safe
    log_t = (1.0 + rho)[:, None] * li
    m = log_t.max(axis=1)
    log_z = m + _math_log(_masked_sum(np.exp(log_t - m[:, None]), reachable))
    return terms, li, reachable, log_t, log_z


def _tilted(rho: np.ndarray, logq: np.ndarray, logp: np.ndarray, probs: np.ndarray):
    """E0, slope and the tilted pair (T_rho, V_rho) at each rho[b] > -1.

    Shapes are as in ``_log_partition``; ``probs`` is Q itself, (|X|,) or
    (B, |X|).  Returns ``e0`` (B,), ``slope`` (B,) = D(T o V || T x Q),
    ``t`` (B, |Y|) and ``v`` (B, |Y|, |X|).  Outputs unreachable from supp(Q)
    get zero T mass and the conditional row Q.  The slope is computed from the
    joint renormalized exactly as ``JointDistribution`` does, so it matches
    ``kl_masses`` on ``tilted_joint(...).joint`` bit for bit.
    """
    terms, li, reachable, log_t, log_z = _log_partition(rho, logq, logp)
    batch = rho.shape[0]
    qrow = np.broadcast_to(probs, (batch, probs.shape[-1]))[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.exp(log_t - log_z[:, None])
        cond = np.exp(terms - li[:, None, :]).transpose(0, 2, 1)
        v = np.ascontiguousarray(np.where(reachable[:, :, None], cond, qrow))
        mass = t[:, :, None] * v
        mass = mass / mass.reshape(batch, -1).sum(axis=1)[:, None, None]
        prod = mass.sum(axis=2)[:, :, None] * qrow
        pos = mass > 0
        cells = np.where(pos, mass * (np.log(mass) - np.log(prod)), 0.0)
    slope = _masked_sum(cells.reshape(batch, -1), pos.reshape(batch, -1))
    slope[(pos & (prod <= 0)).reshape(batch, -1).any(axis=1)] = np.inf
    return -log_z, slope, t, v


def _kernel_inputs(q: Distribution, p: Channel):
    """(logq, logp, probs) for ``_tilted`` at a single Q."""
    return _safe_log(q.probs), _safe_log(p.matrix), q.probs


def e0(rho: float, q: Distribution, p: Channel) -> float:
    """Gallager function E0(rho, Q) in nats, for rho >= -1.

    For rho > -1 this is -log sum_y [sum_x Q(x) P(y|x)^{1/(1+rho)}]^{1+rho};
    at rho = -1 it is the limit -log sum_y max_{x: Q(x)>0} P(y|x).
    """
    if rho < -1:
        raise ValueError(f"rho must be >= -1, got {rho}")
    if rho == -1:
        best = p.matrix[q.support].max(axis=0)
        return -math.log(best.sum())
    logq, logp, _ = _kernel_inputs(q, p)
    return -float(_log_partition(np.array([float(rho)]), logq, logp)[-1][0])


def tilted_joint(rho: float, q: Distribution, p: Channel) -> TiltedSolution:
    """Tilted minimizing joint T_rho o V_rho for rho > -1.

    T_rho(y) is proportional to the (1+rho)-th power of the inner sum and
    V_rho(x|y) proportional to Q(x) P(y|x)^{1/(1+rho)}.  Outputs unreachable
    from supp(Q) get zero mass; their conditional rows are filled with Q so
    the row set stays total (they never enter any divergence).
    """
    if rho <= -1:
        raise ValueError(f"rho must be > -1 (use minus_one_family at -1), got {rho}")
    e0s, slopes, t, v = _tilted(np.array([float(rho)]), *_kernel_inputs(q, p))
    joint = JointDistribution.from_t_v(t[0], v[0])
    return TiltedSolution(rho=rho, joint=joint, e0=float(e0s[0]), slope=float(slopes[0]))


def minus_one_family(q: Distribution, p: Channel) -> MinusOneFamily:
    """The rho = -1 minimizer family with its divergence range [r_minus, r_plus]."""
    supp = q.support
    sub = p.matrix[supp]
    best = sub.max(axis=0)
    total = best.sum()
    t = best / total

    ny, nx = p.num_outputs, p.num_inputs
    argmax_sets = []
    v_minus = np.zeros((ny, nx))
    v_plus = np.zeros((ny, nx))
    for y in range(ny):
        if best[y] <= 0:
            # Output unreachable from supp(Q): zero t mass, canonical fill.
            argmax_sets.append(np.array([], dtype=int))
            v_minus[y] = q.probs
            v_plus[y] = q.probs
            continue
        members = supp[sub[:, y] >= best[y] * (1 - 1e-12)]
        argmax_sets.append(members)
        v_minus[y, members] = q.probs[members] / q.probs[members].sum()
        v_plus[y, members[np.argmin(q.probs[members])]] = 1.0

    tq = np.outer(t, q.probs)
    r_minus = kl_masses(t[:, None] * v_minus, tq)
    r_plus = kl_masses(t[:, None] * v_plus, tq)
    return MinusOneFamily(
        t_minus1=Distribution(t),
        argmax_sets=tuple(argmax_sets),
        e0_minus1=-math.log(total),
        r_minus=r_minus,
        r_plus=r_plus,
        v_minus=v_minus,
        v_plus=v_plus,
    )


def _bisect_slopes(rates: np.ndarray, slope_at, lo: float, hi: float) -> np.ndarray:
    """rho in [lo, hi] with slope(rho) ~= rate, for every rate at once.

    Each element follows the midpoint sequence of a scalar bisection on its
    own rate (slope is non-increasing in rho) and stops on its own.  Each
    round makes one batched slope call.  Many live rates take one bisection
    step per round, in lockstep.  Few live rates look ``depth`` levels ahead:
    the call covers every midpoint of the next ``depth`` levels of their
    bisection trees, so a lone rate needs about ten calls instead of 47.
    """
    lo = np.full(rates.shape, lo)
    hi = np.full(rates.shape, hi)
    live = np.arange(rates.size)
    levels = 0
    while live.size and levels < _BISECT_ITERS:
        depth = min(max(1, int(math.log2(_ROUND_SLOPES / live.size + 1))), _BISECT_ITERS - levels)
        levels += depth
        if depth == 1:
            a, b = lo[live], hi[live]
            mid = 0.5 * (a + b)
            above = slope_at(mid) > rates[live]
            a, b = np.where(above, mid, a), np.where(above, b, mid)
            lo[live], hi[live] = a, b
            live = live[~(b - a < 1e-14)]
            continue
        # Trees in heap order, in Python floats (same arithmetic as numpy's):
        # interval i has children 2i + 1 (slope above the rate: lo = mid) and
        # 2i + 2 (hi = mid).
        inner = 2**depth - 1
        trees, mids = [], []
        for a, b in zip(lo[live].tolist(), hi[live].tolist()):
            tree = [(a, b)]
            for i in range(inner):
                a, b = tree[i]
                mid = 0.5 * (a + b)
                mids.append(mid)
                tree += [(mid, b), (a, mid)]
            trees.append(tree)
        above = (slope_at(np.array(mids)) > np.repeat(rates[live], inner)).tolist()
        still = []
        for k, (e, tree) in enumerate(zip(live.tolist(), trees)):
            i = 0
            for _ in range(depth):
                i = 2 * i + (1 if above[k * inner + i] else 2)
                a, b = tree[i]
                if b - a < 1e-14:
                    break
            else:
                still.append(e)
            lo[e], hi[e] = tree[i]
        live = np.array(still, dtype=int)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ExponentSweep:
    """An exponent over a grid of rates: values, maximizing rho and the
    boundary flag at each rate."""

    value: np.ndarray
    rho_star: np.ndarray
    boundary: tuple


def _clip_at_zero(x: np.ndarray) -> np.ndarray:
    """max(x, 0.0) elementwise, with Python's ``max`` semantics."""
    return np.where(0.0 > x, 0.0, x)


def _sweep(rates, q: Distribution, p: Channel, edge_rho: float) -> ExponentSweep:
    """Shared body of the two sweeps: max over rho between 0 and ``edge_rho``
    (1 for the error exponent, just above -1 for the correct-decoding one) of
    E0(rho, Q) - rho R.  Rates on the far side of the slope at ``edge_rho``
    take the boundary value at rho* = +-1; the rest are bisected."""
    rates = np.asarray(rates, dtype=float).reshape(-1)
    if np.any(rates < 0):
        raise ValueError("rate must be non-negative")
    upper = edge_rho > 0
    logq, logp, probs = _kernel_inputs(q, p)
    e0s, slopes, _, _ = _tilted(np.array([0.0, edge_rho]), logq, logp, probs)
    if upper:
        zero = rates >= slopes[0]
        edge = ~zero & (slopes[1] >= rates)
        rho_edge, e0_edge = 1.0, e0s[1]
    else:
        zero = rates <= slopes[0]
        edge = ~zero & (slopes[1] < rates)
        rho_edge, e0_edge = -1.0, e0(-1.0, q, p)
    interior = ~(zero | edge)

    value = np.zeros(rates.size)
    rho = np.zeros(rates.size)
    value[edge] = _clip_at_zero(e0_edge - rho_edge * rates[edge])
    rho[edge] = rho_edge
    if interior.any():
        r = rates[interior]
        lo, hi = (0.0, edge_rho) if upper else (edge_rho, 0.0)
        rho_in = _bisect_slopes(r, lambda mid: _tilted(mid, logq, logp, probs)[1], lo, hi)
        log_z = _log_partition(rho_in, logq, logp)[-1]
        value[interior] = _clip_at_zero(-log_z - rho_in * r)
        rho[interior] = rho_in
    flags = np.full(rates.size, Boundary.INTERIOR, dtype=object)
    flags[zero] = Boundary.RHO_ZERO
    flags[edge] = Boundary.RHO_ONE if upper else Boundary.RHO_MINUS_ONE
    return ExponentSweep(value=value, rho_star=rho, boundary=tuple(flags))


def error_exponent_sweep(rates, q: Distribution, p: Channel) -> ExponentSweep:
    """``error_exponent`` at every rate of an array, in one batched bisection."""
    return _sweep(rates, q, p, 1.0)


def correct_exponent_ml_sweep(rates, q: Distribution, p: Channel) -> ExponentSweep:
    """``correct_exponent_ml`` at every rate of an array, in one batched bisection."""
    return _sweep(rates, q, p, -1.0 + _RHO_EDGE)


def error_exponent(rate: float, q: Distribution, p: Channel) -> ExponentResult:
    """Random-coding error exponent max_{0<=rho<=1} {E0(rho,Q) - rho R}."""
    sweep = error_exponent_sweep([rate], q, p)
    rho = float(sweep.rho_star[0])
    return ExponentResult(float(sweep.value[0]), rho, tilted_joint(rho, q, p).joint, sweep.boundary[0])


def correct_exponent_ml(rate: float, q: Distribution, p: Channel) -> ExponentResult:
    """ML correct-decoding exponent max_{-1<=rho<=0} {E0(rho,Q) - rho R}.

    At rho* = -1 (rate >= r_minus) the value is E0(-1,Q) + R and the reported
    minimizer is the canonical family member T_-1 o v_minus, whose divergence
    r_minus <= R makes it a valid minimizing solution.
    """
    sweep = correct_exponent_ml_sweep([rate], q, p)
    rho, flag = float(sweep.rho_star[0]), sweep.boundary[0]
    if flag is Boundary.RHO_MINUS_ONE:
        fam = minus_one_family(q, p)
        minimizer = JointDistribution.from_t_v(fam.t_minus1.probs, fam.v_minus)
    else:
        minimizer = tilted_joint(rho, q, p).joint
    return ExponentResult(float(sweep.value[0]), rho, minimizer, flag)


def correct_exponent_strict(rate: float, q: Distribution, p: Channel):
    """Strict correct-decoding exponent; equals the ML value for rate <= r_plus.

    Returns an ExponentResult whose minimizer, when rho* = -1, is the family
    member with divergence exactly R (per-output convex interpolation between
    v_minus and v_plus, located by bisection).  For rate > r_plus returns a
    StrictDomainReport instead.
    """
    fam = minus_one_family(q, p)
    if rate > fam.r_plus:
        return StrictDomainReport(rate=rate, r_plus=fam.r_plus)
    res = correct_exponent_ml(rate, q, p)
    if res.boundary_flag is not Boundary.RHO_MINUS_ONE:
        return res

    t = fam.t_minus1.probs
    tq = np.outer(t, q.probs)

    def gap(lam: float) -> float:
        v = (1 - lam) * fam.v_minus + lam * fam.v_plus
        return kl_masses(t[:, None] * v, tq) - rate

    lo, hi = 0.0, 1.0
    if gap(0.0) >= 0:
        lam = 0.0
    else:
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            if gap(mid) < 0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-16:
                break
        lam = 0.5 * (lo + hi)
    v = (1 - lam) * fam.v_minus + lam * fam.v_plus
    minimizer = JointDistribution.from_t_v(t, v)
    return ExponentResult(res.value, -1.0, minimizer, Boundary.RHO_MINUS_ONE)


def tilted_objective(joint: JointDistribution, q: Distribution, p: Channel, rho: float) -> float:
    """D(T o V || Q o P) + rho * D(T o V || T x Q)."""
    qp = q.probs[None, :] * p.matrix.T
    d1 = kl_masses(joint.mass, qp)
    d2 = kl_masses(joint.mass, np.outer(joint.marginal_y, q.probs))
    return d1 + rho * d2


def capacity(p: Channel, support=None, tol: float = 1e-9, max_iter: int = 100_000) -> float:
    """Capacity (nats) of the channel restricted to the given input letters.

    Alternating maximization with the standard upper/lower capacity bounds as
    the stopping rule: stops when the gap is at most ``tol``.
    """
    if support is None:
        support = range(p.num_inputs)
    support = np.asarray(sorted(support), dtype=int)
    if support.size == 0:
        raise ValueError("support must be non-empty")
    sub = p.matrix[support]
    s = sub.shape[0]
    if s == 1:
        return 0.0

    logsub = np.full_like(sub, 0.0)
    pos = sub > 0
    logsub[pos] = np.log(sub[pos])
    self_info = (sub * logsub).sum(axis=1)  # sum_y P log P per input row

    qvec = np.full(s, 1.0 / s)
    low = 0.0
    for _ in range(max_iter):
        r = qvec @ sub
        logr = np.where(r > 0, np.log(np.where(r > 0, r, 1.0)), 0.0)
        div = self_info - sub @ logr  # D(P(.|x) || r) per row; zero-r outputs have P=0
        c = np.exp(div)
        low = math.log(float(qvec @ c))
        up = float(div.max())
        if up - low <= tol:
            return low
        qvec = qvec * c
        qvec /= qvec.sum()
    return low
