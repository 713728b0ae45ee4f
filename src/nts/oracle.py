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
from dataclasses import dataclass, fields
from enum import Enum
from itertools import combinations

import numpy as np
from scipy.special import gammaln

from .itcore import (
    Channel,
    Distribution,
    ResourceLimitError,
    TIE_TOL,
    codebook_size,
    compositions_array,
    compositions_iter,
    guarded_log,
    num_compositions,
    xlogx,
)
from .exponents import _RHO_EDGE, _e0_minus_one, _log_partition, capacity

# Coarse-sweep budget: the largest type denominator whose grid fits this cap
# is used; the descent refinement supplies final precision.
GRID_CAP = 200_000
# Largest alphabet product |X| * |Y| that the grid minima sweep.
GRID_CELL_CAP = 9
# Smallest grid resolution (type denominator) the grid minima accept.
MIN_RESOLUTION = 20
# Exact penalty multiplier for the strict >= R constraint (its Lagrange
# multiplier is at most 1 in the explicit-formula regime).
_STRICT_PENALTY = 4.0
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Largest competitor class table (classes per received type) that
# ``competitor_class_table`` builds.
CLASS_CAP = 5_000_000
# Largest number of (sent, received) joint types that ``exact_finite_n``
# enumerates.
TYPE_CAP = 10_000_000
# Largest codebook size that ``exact_finite_n`` analyzes.
EXACT_CODEBOOK_CAP = 2**30
# Largest input alphabet that ``min_over_small_supports`` searches (it tries
# every support).
SUPPORT_INPUT_CAP = 6


class ImplicitKind(Enum):
    ERROR_IID = "error_iid"
    CORRECT_ML = "correct_ml"
    CORRECT_STRICT = "correct_strict"


# The metric term of each kind's objective: with g the metric (D(ToV || TxQ)
# or I(QoW)) and excess = sign * (g - R), the refined objective is
# d + weight * [excess]^+.  On the grid, CORRECT_STRICT is the feasibility
# test excess <= 0 instead; its weight is the exact penalty of the refinement.
_KIND_RULES = {
    ImplicitKind.ERROR_IID: (1.0, 1.0),
    ImplicitKind.CORRECT_ML: (-1.0, 1.0),
    ImplicitKind.CORRECT_STRICT: (-1.0, _STRICT_PENALTY),
}


# ---------------------------------------------------------------------------
# decoder metrics
# ---------------------------------------------------------------------------


def decode_metric(counts, n: int, q: Distribution, received=None):
    """D(ToV || TxQ) of joint count matrices ``counts[..., y, x]`` with total
    ``n``: the decoder's metric average, +inf where counts sit off supp(Q).

    One (|Y|, |X|) matrix gives a float, a batch (..., |Y|, |X|) an array of
    the batch shape; masses with ``n = 1`` give the divergence itself.

    An integer batch with more cells than n reads x log x from a table over
    0..n.  ``received``, the per-output counts shared by every matrix of the
    batch (those of a literal block's received word), gives the r log r term
    once for the whole batch.  Neither changes a bit of the result: the
    terms are the same floats, summed in the same order.
    """
    c = np.asarray(counts)
    if np.issubdtype(c.dtype, np.integer) and c.size > n:
        xl = xlogx(np.arange(n + 1)).__getitem__
    else:
        c = np.asarray(c, dtype=float)
        xl = xlogx
    rows = c.sum(axis=-1) if received is None else np.asarray(received)
    vals = (
        xl(c).sum(axis=(-2, -1))
        - xl(rows).sum(axis=-1)
        - (c * guarded_log(q.probs, 0.0)).sum(axis=(-2, -1))
    ) / n
    off = q.probs == 0
    if off.any():
        vals = np.where(c[..., off].any(axis=(-2, -1)), np.inf, vals)
    return float(vals) if np.ndim(vals) == 0 else vals


def _output_metrics(comps: np.ndarray, ry, logq: np.ndarray, n: int) -> np.ndarray:
    """One output's share of ``decode_metric``: (sum_x c log c - r_y log r_y
    - c . log Q) / n for each row c of ``comps`` (k, s), a composition of
    ``ry`` over the letters whose log Q is ``logq`` (s,).

    Summed over the outputs it is the decode metric up to rounding.  The
    competitor class tables and the exact analyzer both take their metrics
    from here, so their ties resolve alike."""
    return (xlogx(comps).sum(axis=1) - ry * (math.log(ry) if ry > 0 else 0.0) - comps @ logq) / n


def loglik_metric(counts, n: int, logp: np.ndarray):
    """The ML decoder's metric average (1/n) sum_{y,x} counts[..., y, x] log
    P(y|x) of joint count matrices, with ``logp[y, x] = log P(y|x)`` (-inf
    where P is zero): -inf where counts sit on a zero of P."""
    with np.errstate(invalid="ignore"):
        cells = np.where(counts > 0, counts * logp, 0.0)
    return cells.sum(axis=(-2, -1)) / n


# ---------------------------------------------------------------------------
# implicit exponents: grid over joint types + local refinement
# ---------------------------------------------------------------------------


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    n = v.size
    a = -np.sort(-v)
    cum = (np.cumsum(a) - 1.0) / np.arange(1, n + 1)
    above = np.nonzero(a > cum)[0]
    if above.size == 0:
        # Entries spanning a huge range can round a[0] - 1 to a[0], leaving no
        # index.  Adding a constant to every entry does not move the
        # projection, and after this shift a[0] = 0 > cum[0] = -1.
        return project_simplex(v - v.max())
    return np.maximum(v - cum[above[-1]], 0.0)


def _golden_min(fun, lo: float, hi: float):
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = fun(c), fun(d)
    for _ in range(44):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = fun(d)
    return (c, fc) if fc <= fd else (d, fd)


def _pgd_on_simplex(fg, x0: np.ndarray):
    """Projected (sub)gradient descent with backtracking on the simplex."""
    x = x0.copy()
    fx, g = fg(x)
    step = 0.5
    for _ in range(400):
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


def _grid_objective(kind: ImplicitKind, rate: float, d: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """The objective of ``kind`` over a grid with divergences ``d`` and metrics
    ``metric``: d + weight * [excess]^+, or for CORRECT_STRICT d where the
    constraint holds (excess <= 0) and +inf elsewhere.  NaN reads +inf."""
    sign, weight = _KIND_RULES[kind]
    with np.errstate(invalid="ignore"):
        excess = sign * (metric - rate)
        if kind is ImplicitKind.CORRECT_STRICT:
            obj = np.where(excess <= 0.0, d, np.inf)
        else:
            obj = d + weight * np.maximum(excess, 0.0)
    obj[np.isnan(obj)] = np.inf
    return obj


def _refined_objective(rule: tuple, rate: float, d: float, metric: float):
    """(value, excess) at one point of the objective whose ``_KIND_RULES``
    entry is ``rule``, in Python floats: d + weight * [excess]^+, the strict
    constraint as a penalty."""
    sign, weight = rule
    excess = sign * (metric - rate)
    return d + weight * max(excess, 0.0), excess


def _grid_then_refine(kind: ImplicitKind, rate: float, q: Distribution, p: Channel, resolution: int,
                      parts: int, rows: int, terms, refine) -> float:
    """The skeleton of ``implicit_exponent`` and ``cc_bound``: checks the
    alphabet and the resolution, sweeps every stack (N, rows, parts) of
    ``rows`` simplex rows at the largest denominator <= resolution that fits
    ``GRID_CAP``, with ``terms(grid)`` giving (d, metric), and returns +inf
    when no grid point has a finite objective, else ``refine(x0, argmin)``:
    x0 is the flattened grid argmin and ``argmin(k)`` that for kind k.  The
    objective is a divergence plus a penalty that is never negative, so a
    negative refined minimum is roundoff and is returned as 0."""
    nx, ny = p.num_inputs, p.num_outputs
    if nx * ny > GRID_CELL_CAP:
        raise ResourceLimitError(f"alphabet product {nx * ny} exceeds the cap GRID_CELL_CAP = {GRID_CELL_CAP}")
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be at least MIN_RESOLUTION = {MIN_RESOLUTION}")
    if len(q) != nx:
        raise ValueError("distribution/channel size mismatch")

    den = resolution
    while den > 1 and num_compositions(den, parts) ** rows > GRID_CAP:
        den -= 1
    grid = compositions_array(den, parts).astype(float) / den
    grid = grid[np.indices((grid.shape[0],) * rows).reshape(rows, -1)].transpose(1, 0, 2)
    d, metric = terms(grid)

    def argmin(k: ImplicitKind):
        obj = _grid_objective(k, rate, d, metric)
        best = int(np.argmin(obj))
        return grid[best].reshape(-1) if np.isfinite(obj[best]) else None

    x0 = argmin(kind)
    return math.inf if x0 is None else max(float(refine(x0, argmin)), 0.0)


def _batch_terms(masses: np.ndarray, q: Distribution, p: Channel):
    """(D(m||QoP), D(m||TxQ)) for a batch of joint masses of shape (N, ny, nx).

    Rows placing mass outside supp(Q o P) get D = +inf; the metric term is
    +inf only where mass sits outside supp(Q) (a subset of the former)."""
    qp = q.probs[None, :] * p.matrix.T  # (ny, nx)
    d = xlogx(masses).sum(axis=(1, 2)) - (masses * guarded_log(qp, 0.0)).sum(axis=(1, 2))
    d[masses[:, qp == 0].any(axis=1)] = np.inf
    return d, decode_metric(masses, 1, q)


def _scalar_objective(kind: ImplicitKind, rate: float, q: Distribution, p: Channel):
    """(value, subgradient) callable for one flattened joint mass vector."""
    qp = q.probs[None, :] * p.matrix.T
    logqp = guarded_log(qp, 0.0)
    logq = guarded_log(q.probs, 0.0)
    qp_zero = qp == 0
    ny, nx = qp.shape
    floor = 1e-300
    rule = _KIND_RULES[kind]
    slope = rule[0] * rule[1]  # d(objective)/d(metric) where the excess is positive

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
        value, excess = _refined_objective(rule, rate, d, g)

        grad_d = logm + 1.0 - logqp
        grad_d[qp_zero] = 1e6  # forbidden cells: repel
        if excess < -1e-5:
            return value, grad_d.ravel()
        grad_g = logm - logt[:, None] - logq[None, :]
        grad_g[qp_zero] = 0.0
        grad_other = grad_d + slope * grad_g

        # Each objective is max(D, D + weight * excess); near the kink use the
        # minimum-norm point of the two branch gradients' convex hull (the
        # steepest-descent direction for a max of smooth functions).
        if excess > 1e-5:
            grad = grad_other.ravel()
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


def implicit_exponent(kind: ImplicitKind, rate: float, q: Distribution, p: Channel, resolution: int) -> float:
    """Brute-force value of the implicit exponent expression selected by ``kind``.

    Sweeps joint types at the largest denominator <= resolution whose count
    fits ``GRID_CAP``, then refines the best grid point by coordinate descent
    with simplex projection.  For CORRECT_STRICT the feasible set is
    D(ToV || TxQ) >= rate; +inf is returned when no grid point is feasible.
    """
    nx, ny = p.num_inputs, p.num_outputs

    def refine(x0: np.ndarray, argmin) -> float:
        _, value = _polish(kind, rate, q, p, x0)
        if kind is ImplicitKind.CORRECT_STRICT:
            # The strict feasible-set optimum sits on the kink of the penalized
            # objective, where descent from the grid can stall; the minimum of
            # the unconstrained |R - metric|^+ form shares it in the binding
            # regime, so also polish from that (purely numerical) solution and
            # keep the better of the two.
            x_ml, _ = _polish(ImplicitKind.CORRECT_ML, rate, q, p, argmin(ImplicitKind.CORRECT_ML))
            _, alt = _polish(kind, rate, q, p, x_ml)
            value = min(value, alt)
        return value

    return _grid_then_refine(
        kind, rate, q, p, resolution, nx * ny, 1,
        lambda grid: _batch_terms(grid.reshape(-1, ny, nx), q, p), refine,
    )


def _polish(kind: ImplicitKind, rate: float, q: Distribution, p: Channel, x0: np.ndarray):
    """Alternate projected-gradient and coordinate-descent rounds until a full
    cycle stops improving."""
    fg = _scalar_objective(kind, rate, q, p)
    x, fx = _pgd_on_simplex(fg, x0)
    for _ in range(6):
        x, f_cd = _refine_rows(lambda v: fg(v)[0], x, x.size, bracket=0.25, max_sweeps=40)
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

    w = w_batch
    wlogw = xlogx(w)
    d = (qs[None, :, None] * (wlogw - w * guarded_log(psub, 0.0)[None])).sum(axis=(1, 2))
    d[((w > 0) & (psub[None] == 0)).any(axis=(1, 2))] = np.inf

    r = (qs[None, :, None] * w).sum(axis=1)  # (N, ny)
    mi = (qs[None, :, None] * wlogw).sum(axis=(1, 2)) - xlogx(r).sum(axis=1)
    return d, mi


def cc_bound(kind: ImplicitKind, rate: float, q: Distribution, p: Channel, resolution: int) -> float:
    """Constant-composition counterpart: brute-force minimum over W(y|x) with
    the input marginal fixed to Q.  +inf for CORRECT_STRICT when I(QoW) >= rate
    is infeasible on the grid (e.g. rate above the entropy of Q)."""
    ny = p.num_outputs
    s = q.support.size
    rule = _KIND_RULES[kind]

    def f(flat: np.ndarray) -> float:
        dv, miv = _cc_terms(flat.reshape(1, s, ny), q, p)
        return _refined_objective(rule, rate, float(dv[0]), float(miv[0]))[0]

    return _grid_then_refine(
        kind, rate, q, p, resolution, ny, s,
        lambda grid: _cc_terms(grid, q, p), lambda x0, _: _refine_rows(f, x0, ny)[1],
    )


def _refine_rows(f, x0: np.ndarray, row_len: int, bracket: float = 1.0, max_sweeps: int = 200):
    """Cyclic coordinate descent over a stack of simplex rows: per coordinate,
    line-minimize over [-bracket, bracket] with per-row projection; stops when
    a full sweep moves less than 1e-8."""
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

                t, ft = _golden_min(along, -bracket, bracket)
                if ft < fx:
                    row = x[sl].copy()
                    row[i] += t
                    row = project_simplex(row)
                    moved = max(moved, float(np.abs(row - x[sl]).sum()))
                    x[sl] = row
                    fx = ft
        if moved < 1e-8 and f_start - fx < 1e-12:
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

    def p_none_at_or_above(self, thresholds: np.ndarray, competitors: int) -> np.ndarray:
        """P(no one of ``competitors`` i.i.d. codewords lands in a class with
        metric >= threshold - TIE_TOL), for each of an array of thresholds.

        The log-domain value ``competitors * log P(class metric < threshold
        - TIE_TOL)`` is exponentiated by ``math.exp``, not ``np.exp``: the two
        can differ in the last bit, and the per-type probabilities are
        written out in full."""
        if competitors <= 0:
            return np.ones(thresholds.size)
        j = np.searchsorted(-self.metrics, -(thresholds - TIE_TOL), side="right")
        log_p = float(competitors) * self.suffix_logsum[j]
        return np.fromiter(map(math.exp, log_p.tolist()), dtype=float, count=log_p.size)


def _outer_sum(values: list[np.ndarray]) -> np.ndarray:
    """Sums of one entry per array over every tuple of entries, flat in C
    order (the first array varies slowest), each summed left to right from
    0.0."""
    out = 0.0 + values[0]
    for v in values[1:]:
        out = np.add.outer(out, v).ravel()
    return out


def _output_product(parts: list, nx: int, dtype):
    """The product over the outputs of per-output composition sets.

    ``parts[y] = (comps, cols, logp, metric)``: the compositions (k_y,
    len(cols)) of output y's count over the input letters ``cols``, with each
    composition's log-probability and metric share.  Returns the summed
    log-probabilities and metrics of every tuple of per-output compositions,
    flat in C order (output 0 varies slowest), and the tuples' (N, |Y|, |X|)
    count matrices in ``dtype``, in the same order."""
    ny = len(parts)
    sizes = tuple(comps.shape[0] for comps, _, _, _ in parts)
    counts = np.zeros(sizes + (ny, nx), dtype=dtype)
    for y, (comps, cols, _, _) in enumerate(parts):
        shape = [1] * ny + [cols.size]
        shape[y] = sizes[y]
        counts[..., y, cols] = comps.reshape(shape)
    logp = _outer_sum([part[2] for part in parts])
    metric = _outer_sum([part[3] for part in parts])
    return logp, metric, counts.reshape(-1, ny, nx)


def _output_part(ry: int, cols: np.ndarray, logw: np.ndarray, logq: np.ndarray, n: int, logch=None):
    """One output's part for ``_output_product``: the compositions of its count
    ``ry`` over the letters ``cols``, their multinomial log-probabilities
    under the letters' log weights ``logw``, and their metric shares (with the
    letters' log Q ``logq``, or their log P(y|x) ``logch`` for the ML metric).
    None when there are no letters but ``ry > 0``."""
    if cols.size == 0:
        return (np.zeros((1, 0), dtype=np.int64), cols, np.zeros(1), np.zeros(1)) if ry == 0 else None
    comps = compositions_array(ry, cols.size)  # (k, len(cols))
    logp = gammaln(ry + 1) - gammaln(comps + 1).sum(axis=1) + comps @ logw
    if logch is None:
        metric = _output_metrics(comps, ry, logq, n)
    else:
        metric = loglik_metric(comps[:, None, :], n, logch[None])
    return comps, cols, logp, metric


def check_class_count(r, s: int, n: int) -> None:
    """Raise ``ResourceLimitError`` when a received word with output counts
    ``r`` has more than ``CLASS_CAP`` competitor classes over ``s`` letters."""
    count = 1
    for ry in r:
        count *= num_compositions(int(ry), s)
        if count > CLASS_CAP:
            raise ResourceLimitError(f"competitor class count exceeds cap {CLASS_CAP} at n={n}")


def competitor_class_table(r, q: Distribution, n: int, metric_channel: Channel | None = None) -> CompetitorClassTable:
    """Exact per-class probabilities and metrics for one codeword ~ Q^n given a
    received word with output counts ``r``.

    The class probability is a product of per-output multinomials restricted to
    supp(Q); the metric is D(ToV || TxQ) of the class (or the log-likelihood
    average when ``metric_channel`` is given, for the ML-decoder variant).
    ``counts`` is held in the narrowest unsigned dtype that holds n.
    """
    r = np.asarray(r, dtype=int)
    supp = q.support
    logq = np.log(q.probs[supp])
    logch = [None] * r.size if metric_channel is None else guarded_log(metric_channel.matrix.T, -np.inf)[:, supp]
    check_class_count(r, supp.size, n)

    parts = [_output_part(ry, supp, logq, logq, n, logch[y]) for y, ry in enumerate(r.tolist())]
    logp_all, metric_all, counts = _output_product(parts, q.probs.size, np.min_scalar_type(n))

    order = np.argsort(-metric_all, kind="stable")
    metrics = metric_all[order]
    log_probs = logp_all[order]

    suffix = np.full(metrics.size + 1, -np.inf)
    suffix[:-1] = np.logaddexp.accumulate(log_probs[::-1])[::-1]
    return CompetitorClassTable(
        metrics=metrics, log_probs=log_probs, suffix_logsum=suffix, counts=np.take(counts, order, axis=0), n=n
    )


@dataclass(frozen=True)
class TypeEventTable:
    """Per-joint-type event probabilities, one row per type, as read-only
    columns.

    ``counts[k]`` is the (ny, nx) count matrix of type k and
    ``probability[k]`` its probability; the other columns are conditional on
    type k.
    """

    counts: np.ndarray
    probability: np.ndarray
    p_fail_strict: np.ndarray
    p_correct_strict: np.ndarray
    p_feedback1: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            column = np.array(getattr(self, f.name))
            column.flags.writeable = False
            object.__setattr__(self, f.name, column)

    def __len__(self) -> int:
        return self.counts.shape[0]


@dataclass(frozen=True)
class ExactFiniteNReport:
    n: int
    m: int
    p_error: float
    p_correct_strict: float
    p_feedback1: float
    per_type_breakdown: TypeEventTable


def _accumulate(total: float, terms: np.ndarray) -> float:
    """``total`` plus the terms added one at a time, in order (the sum of a
    scalar loop, bit for bit)."""
    return float(np.add.accumulate(np.concatenate(([total], terms)))[-1])


def exact_finite_n(
    n: int,
    rate: float,
    delta: float,
    q: Distribution,
    p: Channel,
) -> ExactFiniteNReport:
    """Exact strict-decoding and confident-feedback probabilities at blocklength n.

    Enumerates all joint types of the (sent, received) pair; each type's exact
    multinomial probability is combined with the exact probability that none of
    the m-1 independent competitors attains a conditional-type class at or
    above the relevant metric threshold (1 - p)^{m-1}, all in log domain.
    ``p_feedback1`` is the probability that the sent message wins with margin
    strictly above delta.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    m = codebook_size(n, rate)
    if m > EXACT_CODEBOOK_CAP:
        raise ResourceLimitError(f"codebook size {m} exceeds the cap EXACT_CODEBOOK_CAP = {EXACT_CODEBOOK_CAP}")
    ny, nx = p.num_outputs, p.num_inputs
    types = num_compositions(n, ny * nx)
    if types > TYPE_CAP:
        raise ResourceLimitError(f"{types} joint types at n = {n} exceed the cap TYPE_CAP = {TYPE_CAP}")

    # Joint types of the (sent, received) pair are per-output compositions
    # over the cells with positive Q(x)P(y|x).
    qp = q.probs[None, :] * p.matrix.T  # (ny, nx)
    supp = q.support
    allowed = [supp[qp[y, supp] > 0] for y in range(ny)]
    logw = [np.log(qp[y, cols]) for y, cols in enumerate(allowed)]
    logq = [np.log(q.probs[cols]) for cols in allowed]
    competitors = m - 1

    p_error = 0.0
    p_correct = 0.0
    p_f1 = 0.0
    blocks = []
    for r in compositions_iter(n, ny):
        r = np.asarray(r, dtype=int)
        parts = [_output_part(ry, allowed[y], logw[y], logq[y], n) for y, ry in enumerate(r.tolist())]
        if any(part is None for part in parts):
            continue  # a received output that supp(Q) cannot reach
        table = competitor_class_table(r, q, n)

        logp_all, metric_all, counts = _output_product(parts, nx, np.int64)
        # Per-output factors above are r_y-multinomials; the factor below
        # distributes the n slots among the outputs.
        logp_all += gammaln(n + 1) - gammaln(r + 1).sum()

        probs = np.exp(logp_all)
        p_corr_given = table.p_none_at_or_above(metric_all, competitors)
        if delta == math.inf:
            p_f1_given = np.zeros(probs.size)
        else:
            p_f1_given = table.p_none_at_or_above(metric_all - delta, competitors)
        p_fail_given = 1.0 - p_corr_given
        p_correct = _accumulate(p_correct, probs * p_corr_given)
        p_error = _accumulate(p_error, probs * p_fail_given)
        p_f1 = _accumulate(p_f1, probs * p_f1_given)
        blocks.append((counts, probs, p_fail_given, p_corr_given, p_f1_given))

    return ExactFiniteNReport(
        n=n,
        m=m,
        p_error=p_error,
        p_correct_strict=p_correct,
        p_feedback1=p_f1,
        per_type_breakdown=TypeEventTable(*(np.concatenate(column) for column in zip(*blocks))),
    )


# ---------------------------------------------------------------------------
# support-restricted minimum for the convergence condition
# ---------------------------------------------------------------------------


class _SupportObjective:
    """Fast evaluator of Q -> E_c^ML(rate, Q) for full-alphabet Q rows.

    A row's support is where it is positive: its zero letters are masked out
    of E0 (log Q = -inf in the tilted kernel) and of the rho = -1 endpoint, so
    rows on different supports share one batch.  Maximizes E0(rho, Q) -
    rho*rate over rho by golden section on the concave objective (plus the
    rho = -1 and rho = 0 endpoints), instead of re-running the slope bisection
    of the exponents module at every descent step.  E0 comes from the tilted
    kernel of the exponents module; a batch of Q rows runs its golden sections
    in lockstep.
    """

    def __init__(self, rate: float, p: Channel):
        self.rate = rate
        self.matrix = p.matrix  # (|X|, |Y|)
        self.logp = guarded_log(self.matrix, -np.inf)

    def values_and_rhos(self, q: np.ndarray):
        """(value, rho*) arrays for a batch of Q rows ``q`` (B, |X|); each
        row follows the same golden-section sequence as it would alone."""
        logq = guarded_log(q, -np.inf)

        def g(rho):
            return -_log_partition(rho, logq, self.logp)[-1] - rho * self.rate

        lo = np.full(q.shape[0], -1.0 + _RHO_EDGE)
        hi = np.zeros(q.shape[0])
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
        val_m1 = _e0_minus_one(q, self.matrix) + self.rate
        at_m1 = val_m1 > val
        rho[at_m1], val[at_m1] = -1.0, val_m1[at_m1]
        return val, rho

    def gradients(self, q: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """Gradients in Q of E0(rho[b], .) at the rows ``q[b]`` (B, |X|):
        -(1 + rho) sum_y exp(gamma log P(y|x) + rho li_y - log_z) over the
        outputs reachable from supp(Q), with ``li``, ``log_z`` and gamma =
        1/(1+rho) from the tilted kernel.

        Zero at rho = -1, where E0 depends on Q only through its support, and
        at rho = 0, where E0 vanishes identically."""
        grad = np.zeros(q.shape)
        inner = (rho > -1 + 1e-9) & (rho < -1e-12)
        if inner.any():
            r = rho[inner]
            _, li, reachable, _, log_z = _log_partition(r, guarded_log(q[inner], -np.inf), self.logp)
            # Unreachable outputs (li = -inf) are masked out; the terms of
            # letters off supp(Q) may overflow to +inf.
            with np.errstate(invalid="ignore", over="ignore"):
                expo = (1.0 / (1.0 + r))[:, None, None] * self.logp + (r[:, None] * li - log_z[:, None])[:, None, :]
                cells = np.where(reachable[:, None, :], np.exp(expo), 0.0)
            grad[inner] = -(1.0 + r)[:, None] * cells.sum(axis=2)
        return grad


def _on_support(support, x: np.ndarray, nx: int) -> np.ndarray:
    """Full-alphabet rows (..., nx) with ``x[..., k]`` on letter ``support[k]``
    and zeros elsewhere."""
    full = np.zeros(x.shape[:-1] + (nx,))
    full[..., list(support)] = x
    return full


# Points of the start grid of the two-letter zoom.
_PAIR_GRID = 24
# Interior points per bracket and round of the two-letter zoom; each round
# keeps two of their 17 steps.
_ZOOM_POINTS = 16


def _minimize_over_pairs(obj: _SupportObjective, pairs: list, resolution: int) -> np.ndarray:
    """Minimum of Q -> E_c^ML over Q = (t, 1 - t) on each two-letter support
    of ``pairs``, all pairs in lockstep.

    The value is convex in t, so the neighbours of the argmin of any grid
    bracket the minimum.  A start grid gives each pair its bracket; every round
    evaluates ``_ZOOM_POINTS`` interior points of each live bracket in one
    batch and keeps the two steps around the argmin, until the bracket is as
    narrow as a 44-step golden section would leave it.
    """
    nx = obj.matrix.shape[0]
    grid = np.linspace(0.0, 1.0, max(resolution, 5))

    def values(ps, ts):  # ts (P, k) -> values (P, k)
        rows = np.stack([_on_support(pair, np.stack([t, 1.0 - t], axis=-1), nx) for pair, t in zip(ps, ts)])
        return obj.values_and_rhos(rows.reshape(-1, nx))[0].reshape(ts.shape)

    ts = np.broadcast_to(grid, (len(pairs), grid.size))
    fs = values(pairs, ts)
    best = fs.min(axis=1)
    live = np.arange(len(pairs))
    interior = np.arange(1, _ZOOM_POINTS + 1) / (_ZOOM_POINTS + 1)
    stop = None
    while True:
        # Each live row's bracket: the steps on either side of its argmin.
        k = fs.argmin(axis=1)
        rows = np.arange(live.size)
        lo, hi = np.maximum(k - 1, 0), np.minimum(k + 1, ts.shape[1] - 1)
        t_lo, t_hi, f_lo, f_hi = ts[rows, lo], ts[rows, hi], fs[rows, lo], fs[rows, hi]
        if stop is None:
            stop = (t_hi - t_lo) * _GOLDEN**44
        keep = t_hi - t_lo > stop
        if not keep.any():
            return best
        live, stop = live[keep], stop[keep]
        t_lo, t_hi, f_lo, f_hi = t_lo[keep], t_hi[keep], f_lo[keep], f_hi[keep]
        t_in = t_lo[:, None] + (t_hi - t_lo)[:, None] * interior
        f_in = values([pairs[j] for j in live], t_in)
        ts = np.column_stack((t_lo, t_in, t_hi))
        fs = np.column_stack((f_lo, f_in, f_hi))
        best[live] = np.minimum(best[live], f_in.min(axis=1))


def _minimize_over_support(obj: _SupportObjective, support: tuple) -> float:
    """Minimum of Q -> E_c^ML over Q on ``support`` (three or more letters):
    one projected descent from the uniform point, enough since the objective
    is convex.  For rho in (-1, 0), Z(Q) = sum_y (sum_x Q(x) P(y|x)^g)^(1+rho)
    with g = 1/(1+rho) is concave, so E0(rho, .) = -log Z is convex; E0(0, .)
    = 0 and E0(-1, .), a function of supp(Q) that never grows with it, are
    convex too, and so is E_c^ML = max_rho [E0(rho, .) - rho R].

    A step onto a face F of the support where rho* = -1 is refused: the
    gradient vanishes there, so the descent would stop, and the value
    E0(-1, F) + R is the minimum over F's interior (no Q with support F is
    lower).  F has capacity below R whenever the support does, so
    ``min_over_small_supports`` finds that value with F's own search."""
    nx = obj.matrix.shape[0]
    cols = list(support)

    def fg(x):
        q = _on_support(support, x[None], nx)
        value, rho = obj.values_and_rhos(q)
        if rho[0] == -1.0 and not x.all():
            return math.inf, None
        return float(value[0]), obj.gradients(q, rho)[0, cols]

    return _pgd_on_simplex(fg, np.full(len(support), 1.0 / len(support)))[1]


def min_over_small_supports(rate: float, p: Channel):
    """Minimum of E_c^ML(rate, Q) over all Q whose support has capacity < rate.

    Returns ``(value, worst_support)``; ``(inf, None)`` when no support
    qualifies (e.g. rate = 0).  Singletons are evaluated in one batch and the
    two-letter supports minimized in lockstep (``_minimize_over_pairs``);
    larger supports run one projected descent each (``_minimize_over_support``).
    Supports are compared in order of size, then lexicographically, and a
    later one is reported only when strictly lower.
    """
    nx = p.num_inputs
    if nx > SUPPORT_INPUT_CAP:
        raise ResourceLimitError(f"input alphabet {nx} exceeds the cap SUPPORT_INPUT_CAP = {SUPPORT_INPUT_CAP}")
    supports = [
        support
        for size in range(1, nx + 1)
        for support in combinations(range(nx), size)
        if capacity(p, support) < rate
    ]
    obj = _SupportObjective(rate, p)
    singles = [sup for sup in supports if len(sup) == 1]
    pairs = [sup for sup in supports if len(sup) == 2]
    vals = []
    if singles:
        vals += obj.values_and_rhos(np.eye(nx)[[sup[0] for sup in singles]])[0].tolist()
    if pairs:
        vals += _minimize_over_pairs(obj, pairs, _PAIR_GRID).tolist()
    vals += [_minimize_over_support(obj, sup) for sup in supports[len(vals):]]
    best_val = math.inf
    best_support = None
    for support, val in zip(supports, vals):
        if val < best_val:
            best_val = val
            best_support = support
    return best_val, best_support
