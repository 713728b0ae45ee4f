"""Independent ground truth for the exponent machinery.

The cross-checks use none of the tilted closed forms: the implicit exponents
are minimized numerically over joint types (grid sweep at a type denominator,
then coordinate descent with simplex projection), the constant-composition
bounds are minimized over channel conditionals, and finite-blocklength event
probabilities are computed exactly by enumerating types.  The
convergence-condition right-hand side is a brute-force minimum over small
supports; it is not a cross-check, and it evaluates E0 with the tilted kernel
of the exponents module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np
from scipy.special import gammaln

from .itcore import (
    Channel,
    Distribution,
    ResourceLimitError,
    TIE_TOL,
    TypeWithDenominator,
    codebook_size,
    compositions_array,
    compositions_iter,
    num_compositions,
)
from .exponents import _log_partition, _math_log, _safe_log, capacity

# Coarse-sweep budget: the largest type denominator whose composition count
# fits this cap is used; the descent refinement supplies final precision.
GRID_CAP = 200_000
# Exact penalty multiplier for the strict >= R constraint (its Lagrange
# multiplier is at most 1 in the explicit-formula regime).
_STRICT_PENALTY = 4.0
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class ImplicitKind(Enum):
    ERROR_IID = "error_iid"
    CORRECT_ML = "correct_ml"
    CORRECT_STRICT = "correct_strict"


# ---------------------------------------------------------------------------
# implicit exponents: grid over joint types + local refinement
# ---------------------------------------------------------------------------


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    n = v.size
    a = -np.sort(-v)
    cum = (np.cumsum(a) - 1.0) / np.arange(1, n + 1)
    k = np.nonzero(a > cum)[0][-1]
    return np.maximum(v - cum[k], 0.0)


def _golden_min(fun, lo: float, hi: float, iters: int = 44):
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = fun(d)
    return (c, fc) if fc <= fd else (d, fd)


def _pgd_on_simplex(fg, x0: np.ndarray, iters: int = 400):
    """Projected (sub)gradient descent with backtracking on the simplex."""
    x = x0.copy()
    fx, g = fg(x)
    step = 0.5
    for _ in range(iters):
        improved = False
        while step > 1e-13:
            cand = project_simplex(x - step * g)
            fc, gc = fg(cand)
            if fc < fx - 1e-15:
                x, fx, g = cand, fc, gc
                step = min(step * 1.5, 4.0)
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return x, fx


def _refine_on_simplex(f, x0: np.ndarray, step_tol: float = 1e-8, max_sweeps: int = 40,
                       bracket: float = 0.25):
    """Cyclic coordinate descent: per coordinate, line-minimize along e_i with
    simplex projection; stops when a full sweep moves less than step_tol."""
    x = x0.copy()
    fx = f(x)
    for _ in range(max_sweeps):
        moved = 0.0
        f_start = fx
        for i in range(x.size):
            def along(t, i=i):
                cand = x.copy()
                cand[i] += t
                return f(project_simplex(cand))

            t, ft = _golden_min(along, -bracket, bracket)
            if ft < fx:
                cand = x.copy()
                cand[i] += t
                cand = project_simplex(cand)
                moved = max(moved, float(np.abs(cand - x).sum()))
                x, fx = cand, ft
        if moved < step_tol and f_start - fx < 1e-12:
            break
    return x, fx


def _effective_denominator(resolution: int, cells: int, grid_cap: int) -> int:
    d = resolution
    while d > 1 and num_compositions(d, cells) > grid_cap:
        d -= 1
    return d


def _batch_terms(masses: np.ndarray, q: Distribution, p: Channel):
    """(D(m||QoP), D(m||TxQ)) for a batch of joint masses of shape (N, ny, nx).

    Rows placing mass outside supp(Q o P) get D = +inf; the metric term is
    +inf only where mass sits outside supp(Q) (a subset of the former)."""
    qp = q.probs[None, :] * p.matrix.T  # (ny, nx)
    logqp = np.where(qp > 0, np.log(np.where(qp > 0, qp, 1.0)), 0.0)
    logq = np.where(q.probs > 0, np.log(np.where(q.probs > 0, q.probs, 1.0)), 0.0)

    m = masses
    pos = m > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        mlogm = np.where(pos, m * np.log(np.where(pos, m, 1.0)), 0.0).sum(axis=(1, 2))
    t = m.sum(axis=2)
    tpos = t > 0
    tlogt = np.where(tpos, t * np.log(np.where(tpos, t, 1.0)), 0.0).sum(axis=1)

    bad_qp = (pos & (qp[None] == 0)).any(axis=(1, 2))
    bad_q = (pos & (q.probs[None, None, :] == 0)).any(axis=(1, 2))

    d = mlogm - (m * logqp[None]).sum(axis=(1, 2))
    d[bad_qp] = np.inf
    metric = mlogm - tlogt - (m * logq[None, None, :]).sum(axis=(1, 2))
    metric[bad_q] = np.inf
    return d, metric


def _scalar_objective(kind: ImplicitKind, rate: float, q: Distribution, p: Channel):
    """(value, subgradient) callable for one flattened joint mass vector."""
    qp = q.probs[None, :] * p.matrix.T
    logqp = np.where(qp > 0, np.log(np.where(qp > 0, qp, 1.0)), 0.0)
    logq = np.where(q.probs > 0, np.log(np.where(q.probs > 0, q.probs, 1.0)), 0.0)
    qp_zero = qp == 0
    ny, nx = qp.shape
    floor = 1e-300

    def fg(flat: np.ndarray):
        m = flat.reshape(ny, nx)
        pos = m > 0
        if np.any(pos & qp_zero):
            return math.inf, np.zeros(flat.size)
        logm = np.log(np.maximum(m, floor))
        mlogm = float((np.where(pos, m * logm, 0.0)).sum())
        d = mlogm - float((m * logqp).sum())
        t = m.sum(axis=1)
        logt = np.log(np.maximum(t, floor))
        tlogt = float((np.where(t > 0, t * logt, 0.0)).sum())
        g = mlogm - tlogt - float((m * logq[None, :]).sum())

        grad_d = logm + 1.0 - logqp
        grad_d[qp_zero] = 1e6  # forbidden cells: repel
        grad_g = logm - logt[:, None] - logq[None, :]
        grad_g[qp_zero] = 0.0

        # Each objective is max(D, D + c*(metric term)); near the kink use the
        # minimum-norm point of the two branch gradients' convex hull (the
        # steepest-descent direction for a max of smooth functions).
        if kind is ImplicitKind.ERROR_IID:
            excess = g - rate
            weight = 1.0
            grad_other = grad_d + grad_g
        elif kind is ImplicitKind.CORRECT_ML:
            excess = rate - g
            weight = 1.0
            grad_other = grad_d - grad_g
        else:
            excess = rate - g
            weight = _STRICT_PENALTY
            grad_other = grad_d - _STRICT_PENALTY * grad_g
        value = d + weight * max(excess, 0.0)
        if excess > 1e-5:
            grad = grad_other.ravel()
        elif excess < -1e-5:
            grad = grad_d.ravel()
        else:
            # Work in the simplex tangent space (centered gradients); raw
            # gradients carry constant components that the projection removes
            # but that would corrupt the hull weight.
            g1 = grad_d.ravel()
            g2 = grad_other.ravel()
            g1 = g1 - g1.mean()
            g2 = g2 - g2.mean()
            diff = g1 - g2
            denom = float(diff @ diff)
            lam = 0.5 if denom == 0 else min(max(float(g2 @ (g2 - g1)) / denom, 0.0), 1.0)
            grad = lam * g1 + (1.0 - lam) * g2
        return value, grad

    return fg


def implicit_exponent(
    kind: ImplicitKind,
    rate: float,
    q: Distribution,
    p: Channel,
    resolution: int,
    grid_cap: int = GRID_CAP,
) -> float:
    """Brute-force value of the implicit exponent expression selected by ``kind``.

    Sweeps joint types at the largest denominator <= resolution whose count
    fits ``grid_cap``, then refines the best grid point by coordinate descent
    with simplex projection.  For CORRECT_STRICT the feasible set is
    D(ToV || TxQ) >= rate; +inf is returned when no grid point is feasible.
    """
    nx, ny = p.num_inputs, p.num_outputs
    cells = nx * ny
    if cells > 9:
        raise ResourceLimitError(f"alphabet product {cells} exceeds 9")
    if resolution < 20:
        raise ValueError("resolution must be at least 20")
    if len(q) != nx:
        raise ValueError("distribution/channel size mismatch")

    d_eff = _effective_denominator(resolution, cells, grid_cap)
    grid = compositions_array(d_eff, cells).astype(float) / d_eff
    masses = grid.reshape(-1, ny, nx)
    d, metric = _batch_terms(masses, q, p)

    if kind is ImplicitKind.ERROR_IID:
        with np.errstate(invalid="ignore"):
            obj = d + np.maximum(metric - rate, 0.0)
        obj[np.isnan(obj)] = np.inf
    elif kind is ImplicitKind.CORRECT_ML:
        with np.errstate(invalid="ignore"):
            obj = d + np.maximum(rate - metric, 0.0)
        obj[np.isnan(obj)] = np.inf
    else:
        obj = np.where(metric >= rate, d, np.inf)

    best = int(np.argmin(obj))
    if not np.isfinite(obj[best]):
        return math.inf

    x, value = _polish(kind, rate, q, p, grid[best])
    if kind is ImplicitKind.CORRECT_STRICT:
        # The strict feasible-set optimum sits on the kink of the penalized
        # objective, where descent from the grid can stall; the minimum of the
        # unconstrained |R - metric|^+ form shares it in the binding regime,
        # so also polish from that (purely numerical) solution and keep the
        # better of the two.
        with np.errstate(invalid="ignore"):
            obj_ml = d + np.maximum(rate - metric, 0.0)
        obj_ml[np.isnan(obj_ml)] = np.inf
        x_ml, _ = _polish(ImplicitKind.CORRECT_ML, rate, q, p, grid[int(np.argmin(obj_ml))])
        _, alt = _polish(kind, rate, q, p, x_ml)
        value = min(value, alt)
    return float(value)


def _polish(kind: ImplicitKind, rate: float, q: Distribution, p: Channel, x0: np.ndarray):
    """Alternate projected-gradient and coordinate-descent rounds until a full
    cycle stops improving."""
    fg = _scalar_objective(kind, rate, q, p)
    x, fx = _pgd_on_simplex(fg, x0)
    for _ in range(6):
        x, f_cd = _refine_on_simplex(lambda v: fg(v)[0], x)
        x, f_pgd = _pgd_on_simplex(fg, x)
        if fx - f_pgd < 1e-12:
            fx = min(fx, f_pgd)
            break
        fx = f_pgd
    return x, fx


# ---------------------------------------------------------------------------
# constant-composition comparison bounds (minimization over W(y|x), U = Q)
# ---------------------------------------------------------------------------


def _cc_terms(w_batch: np.ndarray, q: Distribution, p: Channel):
    """(D(QoW||QoP), I(QoW)) for a batch of conditionals (N, s, ny) on supp(Q)."""
    supp = q.support
    qs = q.probs[supp]
    psub = p.matrix[supp]
    logp = np.where(psub > 0, np.log(np.where(psub > 0, psub, 1.0)), 0.0)

    w = w_batch
    pos = w > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        wlogw = np.where(pos, w * np.log(np.where(pos, w, 1.0)), 0.0)
    bad = (pos & (psub[None] == 0)).any(axis=(1, 2))
    d = (qs[None, :, None] * (wlogw - w * logp[None])).sum(axis=(1, 2))
    d[bad] = np.inf

    r = (qs[None, :, None] * w).sum(axis=1)  # (N, ny)
    rpos = r > 0
    rlogr = np.where(rpos, r * np.log(np.where(rpos, r, 1.0)), 0.0).sum(axis=1)
    mi = (qs[None, :, None] * wlogw).sum(axis=(1, 2)) - rlogr
    return d, mi


def cc_bound(
    kind: ImplicitKind,
    rate: float,
    q: Distribution,
    p: Channel,
    resolution: int,
    grid_cap: int = GRID_CAP,
) -> float:
    """Constant-composition counterpart: brute-force minimum over W(y|x) with
    the input marginal fixed to Q.  +inf for CORRECT_STRICT when I(QoW) >= rate
    is infeasible on the grid (e.g. rate above the entropy of Q)."""
    nx, ny = p.num_inputs, p.num_outputs
    if nx * ny > 9:
        raise ResourceLimitError(f"alphabet product {nx * ny} exceeds 9")
    if resolution < 20:
        raise ValueError("resolution must be at least 20")

    supp = q.support
    s = supp.size
    d_row = resolution
    while d_row > 1 and num_compositions(d_row, ny) ** s > grid_cap:
        d_row -= 1
    rows = compositions_array(d_row, ny).astype(float) / d_row  # (nr, ny)
    nr = rows.shape[0]
    idx = np.indices((nr,) * s).reshape(s, -1)
    w_batch = rows[idx].transpose(1, 0, 2)  # (N, s, ny)

    d, mi = _cc_terms(w_batch, q, p)
    if kind is ImplicitKind.ERROR_IID:
        obj = d + np.maximum(mi - rate, 0.0)
    elif kind is ImplicitKind.CORRECT_ML:
        obj = d + np.maximum(rate - mi, 0.0)
    else:
        obj = np.where(mi >= rate, d, np.inf)
    obj[np.isnan(obj)] = np.inf

    best = int(np.argmin(obj))
    if not np.isfinite(obj[best]):
        return math.inf

    def f(flat: np.ndarray) -> float:
        w = flat.reshape(1, s, ny)
        dv, miv = _cc_terms(w, q, p)
        dv, miv = float(dv[0]), float(miv[0])
        if not np.isfinite(dv):
            return math.inf
        if kind is ImplicitKind.ERROR_IID:
            return dv + max(miv - rate, 0.0)
        if kind is ImplicitKind.CORRECT_ML:
            return dv + max(rate - miv, 0.0)
        return dv + _STRICT_PENALTY * max(rate - miv, 0.0)

    w, value = _refine_rows(f, w_batch[best].reshape(-1), ny)
    return float(value)


def _refine_rows(f, x0: np.ndarray, row_len: int, step_tol: float = 1e-8, max_sweeps: int = 200):
    """Coordinate descent over a stack of simplex rows (per-row projection)."""
    x = x0.copy()
    fx = f(x)
    nrows = x.size // row_len
    for _ in range(max_sweeps):
        moved = 0.0
        f_start = fx
        for r in range(nrows):
            sl = slice(r * row_len, (r + 1) * row_len)
            for i in range(row_len):
                def along(t, sl=sl, i=i):
                    cand = x.copy()
                    row = cand[sl].copy()
                    row[i] += t
                    cand[sl] = project_simplex(row)
                    return f(cand)

                t, ft = _golden_min(along, -1.0, 1.0)
                if ft < fx:
                    row = x[sl].copy()
                    row[i] += t
                    row = project_simplex(row)
                    moved = max(moved, float(np.abs(row - x[sl]).sum()))
                    x[sl] = row
                    fx = ft
        if moved < step_tol and f_start - fx < 1e-12:
            break
    return x, fx


# ---------------------------------------------------------------------------
# exact finite-blocklength event probabilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompetitorClassTable:
    """Conditional-type classes of one i.i.d.-Q codeword given a received word
    with per-output counts ``r``, sorted by decode metric (descending).

    ``suffix_logsum[j]`` is log of the total probability of classes j..end;
    ``counts[k]`` is the (ny, nx) conditional count matrix of class k.
    """

    metrics: np.ndarray
    log_probs: np.ndarray
    suffix_logsum: np.ndarray
    counts: np.ndarray
    n: int

    def num_offenders(self, threshold: float) -> int:
        """How many classes have metric >= threshold - TIE_TOL."""
        return int(np.searchsorted(-self.metrics, -(threshold - TIE_TOL), side="right"))

    def log_p_none_at_or_above(self, threshold: float, competitors) -> float:
        """log P(no one of ``competitors`` i.i.d. codewords lands in a class
        with metric >= threshold - TIE_TOL)."""
        if competitors <= 0:
            return 0.0
        j = self.num_offenders(threshold)
        tail = self.suffix_logsum[j]
        if tail == -np.inf:
            return -np.inf
        return float(competitors) * float(tail)


def _cartesian_sum(values: list[np.ndarray]):
    """Flat cartesian-product sums of per-axis value arrays, with per-axis index
    arrays for reconstructing the combined classes."""
    sizes = tuple(v.size for v in values)
    total = int(np.prod(sizes))
    idx = np.unravel_index(np.arange(total), sizes)
    out = np.zeros(total)
    for axis, v in enumerate(values):
        out += v[idx[axis]]
    return out, idx


def competitor_class_table(
    r, q: Distribution, n: int, metric_channel: Channel | None = None, class_cap: int = 5_000_000
) -> CompetitorClassTable:
    """Exact per-class probabilities and metrics for one codeword ~ Q^n given a
    received word with output counts ``r``.

    The class probability is a product of per-output multinomials restricted to
    supp(Q); the metric is D(ToV || TxQ) of the class (or the log-likelihood
    average when ``metric_channel`` is given, for the ML-decoder variant).
    """
    r = np.asarray(r, dtype=int)
    ny = r.size
    supp = q.support
    s = supp.size
    qs = q.probs[supp]
    logq = np.log(qs)

    count = 1
    for ry in r:
        count *= num_compositions(int(ry), s)
        if count > class_cap:
            raise ResourceLimitError(
                f"competitor class count exceeds cap {class_cap} at n={n}"
            )

    per_logp, per_metric, per_comps = [], [], []
    for y in range(ny):
        ry = int(r[y])
        comps = compositions_array(ry, s)  # (k, s)
        logp = gammaln(ry + 1) - gammaln(comps + 1).sum(axis=1) + comps @ logq
        if metric_channel is not None:
            ch = metric_channel.matrix[supp, y]
            logch = np.where(ch > 0, np.log(np.where(ch > 0, ch, 1.0)), -np.inf)
            with np.errstate(invalid="ignore"):
                terms = np.where(comps > 0, comps * logch[None, :], 0.0)
            met = terms.sum(axis=1) / n
        else:
            pos = comps > 0
            with np.errstate(divide="ignore", invalid="ignore"):
                clogc = np.where(pos, comps * np.log(np.where(pos, comps, 1.0)), 0.0).sum(axis=1)
            met = (clogc - comps.sum(axis=1) * (math.log(ry) if ry > 0 else 0.0) - comps @ logq) / n
        per_logp.append(logp)
        per_metric.append(met)
        per_comps.append(comps)

    logp_all, idx = _cartesian_sum(per_logp)
    metric_all, _ = _cartesian_sum(per_metric)

    order = np.argsort(-metric_all, kind="stable")
    metrics = metric_all[order]
    log_probs = logp_all[order]

    suffix = np.full(metrics.size + 1, -np.inf)
    suffix[:-1] = np.logaddexp.accumulate(log_probs[::-1])[::-1]

    counts = np.zeros((metrics.size, ny, q.probs.size), dtype=np.int64)
    for y in range(ny):
        counts[:, y, supp] = per_comps[y][idx[y][order]]
    return CompetitorClassTable(
        metrics=metrics, log_probs=log_probs, suffix_logsum=suffix, counts=counts, n=n
    )


def decode_metric(counts: np.ndarray, n: int, q: Distribution) -> float:
    """D(ToV || TxQ) of a joint count matrix: the decoder's metric average."""
    c = np.asarray(counts, dtype=float)
    r = c.sum(axis=1)
    pos = c > 0
    if np.any(pos & (q.probs[None, :] == 0)):
        return math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        clogc = np.where(pos, c * np.log(np.where(pos, c, 1.0)), 0.0).sum()
        rlogr = np.where(r > 0, r * np.log(np.where(r > 0, r, 1.0)), 0.0).sum()
    return float((clogc - rlogr - (c * np.where(q.probs > 0, np.log(np.where(q.probs > 0, q.probs, 1.0)), 0.0)[None, :]).sum()) / n)


@dataclass(frozen=True)
class TypeEventRow:
    joint_type: TypeWithDenominator
    probability: float
    p_fail_strict: float
    p_correct_strict: float
    p_feedback1: float


@dataclass(frozen=True)
class ExactFiniteNReport:
    n: int
    m: int
    p_error: float
    p_correct_strict: float
    p_feedback1: float
    per_type_breakdown: tuple


def exact_finite_n(
    n: int,
    rate: float,
    delta: float,
    q: Distribution,
    p: Channel,
    type_cap: int = 10_000_000,
) -> ExactFiniteNReport:
    """Exact strict-decoding and confident-feedback probabilities at blocklength n.

    Enumerates all joint types of the (sent, received) pair; each type's exact
    multinomial probability is combined with the exact probability that none of
    the m-1 independent competitors attains a conditional-type class at or
    above the relevant metric threshold (1 - p)^{m-1}, all in log domain.
    ``p_feedback1`` is the probability that the sent message wins with margin
    strictly above delta.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    m = codebook_size(n, rate)
    if m > 2**30:
        raise ResourceLimitError(f"codebook size {m} exceeds 2^30")
    ny, nx = p.num_outputs, p.num_inputs
    if num_compositions(n, ny * nx) > type_cap:
        raise ResourceLimitError("joint type count exceeds cap")

    qp = q.probs[None, :] * p.matrix.T  # (ny, nx)
    supp = q.support
    logq = np.log(q.probs[supp])

    p_error = 0.0
    p_correct = 0.0
    p_f1 = 0.0
    rows = []
    for r in compositions_iter(n, ny):
        r = np.asarray(r, dtype=int)
        table = competitor_class_table(r, q, n)

        # Joint types of the (sent, received) pair with this received type:
        # per-output compositions over cells with positive Q(x)P(y|x).
        per_logp, per_metric, per_allowed, per_comps = [], [], [], []
        feasible = True
        for y in range(ny):
            allowed = supp[qp[y, supp] > 0]
            if allowed.size == 0 and r[y] > 0:
                feasible = False
                break
            if allowed.size == 0:
                comps = np.zeros((1, 0), dtype=np.int64)
                logp = np.zeros(1)
                met = np.zeros(1)
            else:
                comps = compositions_array(int(r[y]), allowed.size)
                logqp_y = np.log(qp[y, allowed])
                logp = gammaln(r[y] + 1) - gammaln(comps + 1).sum(axis=1) + comps @ logqp_y
                pos = comps > 0
                with np.errstate(divide="ignore", invalid="ignore"):
                    clogc = np.where(pos, comps * np.log(np.where(pos, comps, 1.0)), 0.0).sum(axis=1)
                logq_y = np.log(q.probs[allowed])
                met = (clogc - r[y] * (math.log(r[y]) if r[y] > 0 else 0.0) - comps @ logq_y) / n
            per_logp.append(logp)
            per_metric.append(met)
            per_allowed.append(allowed)
            per_comps.append(comps)
        if not feasible:
            continue

        logp_all, idx = _cartesian_sum(per_logp)
        metric_all, _ = _cartesian_sum(per_metric)
        # Per-output factors above are r_y-multinomials; the factor below
        # distributes the n slots among the outputs.
        logp_all += gammaln(n + 1) - gammaln(r + 1).sum()

        probs = np.exp(logp_all)
        competitors = m - 1
        for k in range(probs.size):
            b0 = float(metric_all[k])
            log_corr = table.log_p_none_at_or_above(b0, competitors)
            p_corr_given = math.exp(log_corr)
            if delta == math.inf:
                p_f1_given = 0.0
            else:
                p_f1_given = math.exp(table.log_p_none_at_or_above(b0 - delta, competitors))
            prob = float(probs[k])
            p_correct += prob * p_corr_given
            p_error += prob * (1.0 - p_corr_given)
            p_f1 += prob * p_f1_given

            counts = np.zeros((ny, nx), dtype=np.int64)
            for y in range(ny):
                if per_allowed[y].size:
                    counts[y, per_allowed[y]] = per_comps[y][idx[y][k]]
            rows.append(
                TypeEventRow(
                    joint_type=TypeWithDenominator(counts, n),
                    probability=prob,
                    p_fail_strict=1.0 - p_corr_given,
                    p_correct_strict=p_corr_given,
                    p_feedback1=p_f1_given,
                )
            )

    return ExactFiniteNReport(
        n=n,
        m=m,
        p_error=p_error,
        p_correct_strict=p_correct,
        p_feedback1=p_f1,
        per_type_breakdown=tuple(rows),
    )


# ---------------------------------------------------------------------------
# support-restricted minimum for the convergence condition
# ---------------------------------------------------------------------------


_RHO_EDGE_ORACLE = 1e-6


class _SupportObjective:
    """Fast evaluator of Q -> E_c^ML(rate, Q) for Q on a fixed support.

    Maximizes E0(rho, Q) - rho*rate over rho by golden section on the concave
    objective (plus the rho = -1 and rho = 0 endpoints), instead of re-running
    the slope bisection of the exponents module at every descent step.  E0
    comes from the tilted kernel of the exponents module; a batch of Q rows
    runs its golden sections in lockstep.
    """

    def __init__(self, rate: float, support: tuple, p: Channel):
        self.rate = rate
        self.sub = p.matrix[list(support)]  # (s, ny)
        self.logsub = _safe_log(self.sub)

    def values_and_rhos(self, qsub: np.ndarray):
        """(value, rho*) arrays for a batch of Q rows ``qsub`` (B, s); each
        row follows the same golden-section sequence as it would alone."""
        logq = _safe_log(qsub)

        def g(rho):
            return -_log_partition(rho, logq, self.logsub)[-1] - rho * self.rate

        lo = np.full(qsub.shape[0], -1.0 + _RHO_EDGE_ORACLE)
        hi = np.zeros(qsub.shape[0])
        c = hi - _GOLDEN * (hi - lo)
        d = lo + _GOLDEN * (hi - lo)
        gc, gd = g(c), g(d)
        for _ in range(40):
            left = gc >= gd
            hi = np.where(left, d, hi)
            lo = np.where(left, lo, c)
            x = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
            gx = g(x)
            c, d = np.where(left, x, d), np.where(left, c, x)
            gc, gd = np.where(left, gx, gd), np.where(left, gc, gx)
        inner = gc >= gd
        rho = np.where(inner, c, d)
        val = np.where(inner, gc, gd)
        # Endpoints, taken only when strictly better (rho = 0 first): E0 is
        # zero at rho = 0, and at rho = -1 it is -log sum_y max_{supp Q} P.
        at_zero = ~(val > 0.0)
        rho[at_zero], val[at_zero] = 0.0, 0.0
        best = np.where(qsub[:, :, None] > 0, self.sub, -np.inf).max(axis=1)
        val_m1 = -_math_log(best.sum(axis=1)) + self.rate
        at_m1 = val_m1 > val
        rho[at_m1], val[at_m1] = -1.0, val_m1[at_m1]
        return val, rho

    def value_and_rho(self, qsub: np.ndarray):
        val, rho = self.values_and_rhos(qsub[None, :])
        return float(val[0]), float(rho[0])

    def gradient(self, qsub: np.ndarray, rho: float) -> np.ndarray:
        if rho <= -1 + 1e-9 or rho >= -1e-12:
            # E0(-1, .) depends on Q only through its support; at rho = 0 the
            # value is identically zero.
            return np.zeros(qsub.size)
        gamma = 1.0 / (1.0 + rho)
        u = np.where(self.sub > 0, self.sub**gamma, 0.0)
        svec = qsub @ u
        pos = svec > 0
        z = float((svec[pos] ** (1.0 + rho)).sum())
        return -(1.0 + rho) * (u[:, pos] @ (svec[pos] ** rho)) / z


def _minimize_over_support(rate: float, support: tuple, p: Channel, resolution: int) -> float:
    obj = _SupportObjective(rate, support, p)
    s = len(support)
    if s == 1:
        return obj.value_and_rho(np.array([1.0]))[0]
    if s == 2:
        def val(t):
            return obj.value_and_rho(np.array([t, 1.0 - t]))[0]

        ts = np.linspace(0.0, 1.0, max(resolution, 5))
        vals = obj.values_and_rhos(np.stack([ts, 1.0 - ts], axis=1))[0].tolist()
        i = int(np.argmin(vals))
        _, ft = _golden_min(val, ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)])
        return min(ft, min(vals))

    rng = np.random.default_rng(0)
    starts = [np.full(s, 1.0 / s)]
    starts += [rng.dirichlet(np.ones(s)) for _ in range(19)]
    # Projected-gradient descent with backtracking line search from every
    # start.  The starts run in lockstep, one candidate per live start per
    # round, each following the same steps as it would alone.
    x = np.array([project_simplex(np.asarray(x0)) for x0 in starts])
    fx, rho = obj.values_and_rhos(x)
    g = np.array([obj.gradient(xi, r) for xi, r in zip(x, rho)])
    step = np.full(len(starts), 0.5)
    moves = np.zeros(len(starts), dtype=int)
    live = list(range(len(starts)))
    while live:
        cand = np.array([project_simplex(x[i] - step[i] * g[i]) for i in live])
        fc, rho_c = obj.values_and_rhos(cand)
        still = []
        for k, i in enumerate(live):
            if fc[k] < fx[i] - 1e-12:
                x[i], fx[i] = cand[k], fc[k]
                g[i] = obj.gradient(x[i], rho_c[k])
                step[i] = min(step[i] * 1.5, 2.0)
                moves[i] += 1
                if moves[i] < 120:
                    still.append(i)
            else:
                step[i] *= 0.5
                if step[i] > 1e-10:
                    still.append(i)
        live = still
    best = math.inf
    for f in fx.tolist():
        best = min(best, f)
    return best


def min_over_small_supports(rate: float, p: Channel, resolution: int = 24):
    """Minimum of E_c^ML(rate, Q) over all Q whose support has capacity < rate.

    Returns ``(value, worst_support)``; ``(inf, None)`` when no support
    qualifies (e.g. rate = 0).
    """
    nx = p.num_inputs
    if nx > 6:
        raise ResourceLimitError(f"input alphabet {nx} exceeds 6")
    best_val = math.inf
    best_support = None
    for size in range(1, nx + 1):
        for support in combinations(range(nx), size):
            if capacity(p, support) >= rate:
                continue
            val = float(_minimize_over_support(rate, support, p, resolution))
            if val < best_val:
                best_val = val
                best_support = support
    return best_val, best_support
