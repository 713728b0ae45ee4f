"""Independent ground truth for the exponent machinery.

The cross-checks use none of the tilted closed forms: the implicit exponents
are minimized numerically over joint types, and the constant-composition
bounds minimize the same objective over the joint masses Q(x) W(y|x), one
channel conditional W per point.  Both minima take the same steps: a grid
sweep at a type denominator, projected-gradient and coordinate descent, a
start at the channel point (joint mass QoP) when it is lower, and SLSQP on
the epigraph form.  Finite-blocklength event probabilities are computed
exactly by enumerating types.  The convergence-condition right-hand side is
a brute-force minimum over small supports; it is not a cross-check, and it
evaluates E0 with the tilted kernel of the exponents module.
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
    guarded_log,
    num_compositions,
    xlogx,
)
from .exponents import _RHO_EDGE, _e0_minus_one, _log_partition, _stationarity, capacity

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


def _pairwise_sum(terms):
    """numpy's pairwise sum over the leading axis of ``terms``, one elementwise
    add per step: below 8 entries left to right; up to 128, eight partial sums
    over blocks of 8, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then
    the entries left over in turn; beyond 128, the two halves apart (the
    first a multiple of 8 long)."""
    k = terms.shape[0]
    if k < 8:
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        return total
    if k > 128:
        half = k // 2 - k // 2 % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    r = terms[:8]
    for i in range(8, k - k % 8, 8):
        r = r + terms[i : i + 8]
    r = r[0::2] + r[1::2]
    total = (r[0] + r[1]) + (r[2] + r[3])
    for t in terms[k - k % 8 :]:
        total = total + t
    return total


def _cell_sum(cells):
    """The sum over the cells of ``cells`` (|Y| |X|, ...), plane by plane, in
    the order of ``.sum(axis=(-2, -1))`` over a C-contiguous batch (..., |Y|,
    |X|): numpy's ``add.reduce`` adds the pairwise sum of each matrix's cells
    to 0.0.  So a batch held cell-major sums bit for bit as held row-major."""
    return 0.0 + _pairwise_sum(cells)


def _cells(a):
    """The (|Y|, |X|) cells of a batch (..., |Y|, |X|) as a leading axis (|Y|
    |X|, ...): a view of a row-major or a cell-major batch."""
    flat = a.reshape(a.shape[:-2] + (-1,))
    return flat.transpose((-1,) + tuple(range(flat.ndim - 1)))


def decode_metric(counts, n: int, q: Distribution, received=None):
    """D(ToV || TxQ) of joint count matrices ``counts[..., y, x]`` with total
    ``n``: the decoder's metric average, +inf where counts sit off supp(Q).

    One (|Y|, |X|) matrix gives a float, a batch (..., |Y|, |X|) an array of
    the batch shape; masses with ``n = 1`` give the divergence itself.

    The x log x and c log Q terms are summed plane by plane over the cells
    (``_cell_sum``), fastest on a batch held cell-major.  An integer batch
    with more cells than n reads x log x from a table over 0..n.
    ``received``, per-output counts (..., |Y|) that broadcast against the
    batch (those of each codebook's received word, with an axis of one for
    its codewords), gives the r log r term once per codebook.  None of the
    layout, the table and ``received`` changes a bit of the result: the terms
    are the same floats, summed in the same order.
    """
    c = np.asarray(counts)
    if np.issubdtype(c.dtype, np.integer) and c.size > n:
        xl = xlogx(np.arange(n + 1)).take
    else:
        c = np.asarray(c, dtype=float)
        xl = xlogx
    rows = c.sum(axis=-1) if received is None else np.asarray(received)
    vals = (
        _cell_sum(xl(_cells(c)))
        - xl(rows).sum(axis=-1)
        - _cell_sum(_cells(c * guarded_log(q.probs, 0.0)))
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
    where P is zero): -inf where counts sit on a zero of P.  Summed over the
    cells as ``decode_metric`` sums them."""
    with np.errstate(invalid="ignore"):
        cells = np.where(counts > 0, counts * logp, 0.0)
    return _cell_sum(_cells(cells)) / n


# ---------------------------------------------------------------------------
# implicit exponents and constant-composition bounds: grid sweep + polish
# ---------------------------------------------------------------------------


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based): of
    ``v``, or of each row of ``v`` (B, n)."""
    rows = v.reshape(-1, v.shape[-1])
    n = rows.shape[1]
    a = -np.sort(-rows, axis=1)
    cum = (np.cumsum(a, axis=1) - 1.0) / np.arange(1, n + 1)
    above = a > cum
    last = n - 1 - above[:, ::-1].argmax(axis=1)
    out = np.maximum(rows - cum[np.arange(rows.shape[0]), last, None], 0.0)
    stuck = ~above.any(axis=1)
    if stuck.any():
        # Entries spanning a huge range can round a[0] - 1 to a[0], leaving no
        # index.  Adding a constant to every entry does not move the
        # projection, and after this shift a[0] = 0 > cum[0] = -1.
        out[stuck] = project_simplex(rows[stuck] - rows[stuck].max(axis=1, keepdims=True))
    return out.reshape(v.shape)


def _golden_step(lo: float, hi: float, c: float, d: float, left: bool):
    """One golden-section step on the bracket [lo, hi] with interior points
    c < d: keep [lo, d] (``left``) or [c, hi], and place the new interior
    point.  Returns the new (lo, hi, c, d)."""
    if left:
        hi, d = d, c
        return lo, hi, hi - _GOLDEN * (hi - lo), d
    lo, c = c, d
    return lo, hi, c, lo + _GOLDEN * (hi - lo)


# Directions of the steps of one look-ahead tree after its root: step k is
# followed by step 2k + 1, which keeps the left side, and by step 2k + 2.
_TREE_LEFT = [True, False] * 7


def _golden_min(fun, lo: np.ndarray, hi: np.ndarray):
    """Golden-section searches for a minimum of ``fun`` on each bracket
    [lo[b], hi[b]], in lockstep: 44 steps, each keeping the side of the lower
    interior value (the left one on ties).  Returns (points, values), one
    per bracket.

    ``fun`` maps a (B, k) array of points, row b on bracket b, to their
    values.  Each call takes every point that the next four steps of each
    bracket could place (1 + 2 + 4 + 8), then the steps follow the actual
    comparisons: each bracket places the points of a one-point-per-call
    search, bit for bit, in 12 calls instead of 46.  The steps run in Python
    floats."""
    state = [(a, b, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)) for a, b in zip(lo.tolist(), hi.tolist())]
    f = fun(np.array([s[2:] for s in state])).tolist()
    for _ in range(11):
        trees, points = [], []
        for s, (fc, fd) in zip(state, f):
            lefts = [fc <= fd] + _TREE_LEFT
            tree = [_golden_step(*s, lefts[0])]
            for k in range(7):
                tree += [_golden_step(*tree[k], True), _golden_step(*tree[k], False)]
            trees.append((tree, lefts))
            points.append([t[2] if left else t[3] for t, left in zip(tree, lefts)])
        values = fun(np.array(points)).tolist()
        for b, ((tree, lefts), vals) in enumerate(zip(trees, values)):
            fc, fd = f[b]
            k = 0
            for _ in range(4):
                state[b] = tree[k]
                fc, fd = (vals[k], fc) if lefts[k] else (fd, vals[k])
                k = 2 * k + (1 if fc <= fd else 2)
            f[b] = fc, fd
    best = [(s[2], fc) if fc <= fd else (s[3], fd) for s, (fc, fd) in zip(state, f)]
    return np.array([t for t, _ in best]), np.array([ft for _, ft in best])


def _pgd_on_simplex(fg, x0: np.ndarray, project=project_simplex):
    """Projected (sub)gradient descent with backtracking on the simplex, or
    on the set that ``project`` projects onto."""
    x = x0.copy()
    fx, g = fg(x)
    step = 0.5
    for _ in range(400):
        improved = False
        while step > 1e-13:
            cand = project(x - step * g)
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


class Sweep:
    """The grid of a brute-force minimum and its terms (d, metric), shared by
    every kind and rate on one (Q, P).

    A point is a stack of simplex rows of length ``row_len``, flattened: one
    row over the joint cells (``joint_sweep``), or the rows W(.|x) for x in
    supp(Q) (``conditional_sweep``), whose joint mass is Q(x) W(y|x).
    ``polished`` keeps each (kind, rate) polish for the life of the sweep.
    The coordinate line searches of the polish span [-bracket, bracket]: a
    whole row of W, or a quarter on the joint grid.
    """

    def __init__(self, q: Distribution, p: Channel, conditional: bool, grid: np.ndarray):
        self.q, self.p, self.conditional, self.grid = q, p, conditional, grid  # grid: (N, point size)
        self.row_len = p.num_outputs if conditional else grid.shape[1]
        self.bracket = 1.0 if conditional else 0.25
        self.support = q.support
        qp = q.probs[None, :] * p.matrix.T  # (|Y|, |X|)
        self.logqp, self.logq, self.qp_zero = guarded_log(qp, 0.0), guarded_log(q.probs, 0.0), qp == 0
        # The channel point: its joint mass is QoP, so d is exactly 0 there.
        self.channel_point = p.matrix[self.support].ravel() if conditional else qp.ravel()
        # Chunks of 2**15 points keep the joint masses and their temporaries
        # small next to the grid; each point's terms are its own.
        chunks = [self.terms(grid[i : i + 2**15])[:2] for i in range(0, grid.shape[0], 2**15)]
        self.d, self.metric = (np.concatenate(part) for part in zip(*chunks))
        self.polished = {}

    def masses(self, x: np.ndarray) -> np.ndarray:
        """The (B, |Y|, |X|) joint masses of points ``x`` (B, size)."""
        ny, nx = self.p.num_outputs, self.p.num_inputs
        if not self.conditional:
            return x.reshape(-1, ny, nx)
        m = np.zeros((x.shape[0], ny, nx))
        for k, letter in enumerate(self.support.tolist()):
            m[:, :, letter] = x[:, k * ny : (k + 1) * ny] * self.q.probs[letter]
        return m

    def terms(self, x: np.ndarray):
        """(d, g, log m, log t) at each point of ``x`` (B, size), with m its
        joint mass and t the output marginal of m: d = D(m || QoP), +inf where
        m sits where QoP is zero, and g = D(m || TxQ).  The logs are floored
        at 1e-300, for the gradients."""
        m = self.masses(x)
        pos = m > 0
        logm = np.log(np.maximum(m, 1e-300))
        mlogm = np.where(pos, m * logm, 0.0).sum(axis=(1, 2))
        d = mlogm - (m * self.logqp).sum(axis=(1, 2))
        d[(pos & self.qp_zero).any(axis=(1, 2))] = np.inf
        t = m.sum(axis=2)
        logt = np.log(np.maximum(t, 1e-300))
        tlogt = np.where(t > 0, t * logt, 0.0).sum(axis=1)
        g = mlogm - tlogt - (m * self.logq).sum(axis=(1, 2))
        return d, g, logm, logt

    def chain(self, grad: np.ndarray) -> np.ndarray:
        """A gradient in the joint mass (|Y|, |X|) as one in the point."""
        if not self.conditional:
            return grad.ravel()
        return (grad[:, self.support] * self.q.probs[self.support]).T.ravel()

    def center(self, g: np.ndarray) -> np.ndarray:
        """``g`` with each row's mean removed: its projection on the tangent
        space of the stack of simplices."""
        rows = g.reshape(-1, self.row_len)
        return (rows - rows.sum(axis=1, keepdims=True) / self.row_len).ravel()

    def project(self, v: np.ndarray) -> np.ndarray:
        """Each row of ``v`` projected on its simplex."""
        return project_simplex(v.reshape(-1, self.row_len)).ravel()

    def argmin(self, kind: ImplicitKind, rate: float):
        """The grid point of least objective, or None when none is finite."""
        obj = _grid_objective(kind, rate, self.d, self.metric)
        best = int(np.argmin(obj))
        return self.grid[best] if np.isfinite(obj[best]) else None

    def polish(self, kind: ImplicitKind, rate: float):
        """(point, value) of ``descend`` from the grid argmin of ``kind``, or
        None when no grid point has a finite objective; computed once."""
        key = (kind, rate)
        if key not in self.polished:
            x0 = self.argmin(kind, rate)
            self.polished[key] = None if x0 is None else self.descend(kind, rate, x0)
        return self.polished[key]

    def descend(self, kind: ImplicitKind, rate: float, x0: np.ndarray):
        """(point, value) of ``_polish`` from ``x0``, then of
        ``_epigraph_descent`` from the polished point, or from the channel
        point if it is lower: d is exactly 0 there, so a zero minimum is found
        without roundoff."""
        obj = _Objective(kind, rate, self)
        x, fx = _polish(obj, x0)
        f_channel = float(obj.values(self.channel_point[None])[0])
        return _epigraph_descent(obj, *((self.channel_point, f_channel) if f_channel < fx else (x, fx)))


def _sweep(q: Distribution, p: Channel, resolution: int, conditional: bool) -> Sweep:
    """Checks the alphabet and the resolution, and sweeps every point at the
    largest type denominator <= resolution whose grid fits ``GRID_CAP``."""
    nx, ny = p.num_inputs, p.num_outputs
    if nx * ny > GRID_CELL_CAP:
        raise ResourceLimitError(f"alphabet product {nx * ny} exceeds the cap GRID_CELL_CAP = {GRID_CELL_CAP}")
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be at least MIN_RESOLUTION = {MIN_RESOLUTION}")
    if len(q) != nx:
        raise ValueError("distribution/channel size mismatch")
    rows, parts = (q.support.size, ny) if conditional else (1, nx * ny)

    den = resolution
    while den > 1 and num_compositions(den, parts) ** rows > GRID_CAP:
        den -= 1
    grid = compositions_array(den, parts).astype(float) / den
    grid = grid[np.indices((grid.shape[0],) * rows).reshape(rows, -1).T]  # (N, rows, parts)
    return Sweep(q, p, conditional, grid.reshape(grid.shape[0], rows * parts))


def joint_sweep(q: Distribution, p: Channel, resolution: int) -> Sweep:
    """The grid of ``implicit_exponent``: joint types (|Y|, |X|)."""
    return _sweep(q, p, resolution, conditional=False)


def conditional_sweep(q: Distribution, p: Channel, resolution: int) -> Sweep:
    """The grid of ``cc_bound``: channel conditionals W(y|x) on supp(Q), one
    composition per row."""
    return _sweep(q, p, resolution, conditional=True)


class _Objective:
    """The refined objective of one kind and rate at the points of a sweep:
    d + weight * [excess]^+ with d = D(m || QoP), excess = sign * (g - rate)
    and g = D(m || TxQ), at each point's joint mass m; the strict constraint
    is its exact penalty.  ``values`` takes a batch of points, ``fg`` one
    point and gives a (sub)gradient too; ``fg``'s value is row 0 of
    ``values``."""

    def __init__(self, kind: ImplicitKind, rate: float, sweep: Sweep):
        self.rule = _KIND_RULES[kind]
        self.rate = rate
        self.sweep = sweep

    def _terms(self, x: np.ndarray):
        d, g, logm, logt = self.sweep.terms(x)
        sign, weight = self.rule
        excess = sign * (g - self.rate)
        # np.where rather than np.maximum: max(excess, 0.0) as Python takes it,
        # signed zeros included.
        return d + weight * np.where(0.0 > excess, 0.0, excess), d, excess, logm, logt

    def values(self, x: np.ndarray) -> np.ndarray:
        """The objective at each point of ``x`` (B, size)."""
        return self._terms(x)[0]

    def _grad_d(self, logm: np.ndarray) -> np.ndarray:
        """The gradient of d in the joint mass."""
        grad_d = logm + 1.0 - self.sweep.logqp
        grad_d[self.sweep.qp_zero] = 1e6  # forbidden cells: repel
        return grad_d

    def _grad_other(self, grad_d: np.ndarray, logm: np.ndarray, logt: np.ndarray) -> np.ndarray:
        """The gradient of d + weight * excess in the point."""
        sign, weight = self.rule
        grad_g = logm - logt[:, None] - self.sweep.logq[None, :]
        grad_g[self.sweep.qp_zero] = 0.0
        return self.sweep.chain(grad_d + sign * weight * grad_g)

    def pieces(self, x: np.ndarray):
        """((f1, f2), (g1, g2)) at one point: the objective is max(f1, f2)
        with f1 = d and f2 = d + weight * excess; g1 and g2 are their
        gradients in the point."""
        _, d, excess, logm, logt = (a[0] for a in self._terms(x[None]))
        grad_d = self._grad_d(logm)
        f1 = float(d)
        return (f1, f1 + self.rule[1] * float(excess)), (self.sweep.chain(grad_d), self._grad_other(grad_d, logm, logt))

    def fg(self, x: np.ndarray):
        """(value, subgradient) at one point."""
        value, _, excess, logm, logt = (a[0] for a in self._terms(x[None]))
        value, excess = float(value), float(excess)
        if value == math.inf:
            return math.inf, np.zeros(x.size)
        grad_d = self._grad_d(logm)
        if excess < -1e-5:
            return value, self.sweep.chain(grad_d)
        grad_other = self._grad_other(grad_d, logm, logt)
        if excess > 1e-5:
            return value, grad_other

        # Each objective is max(D, D + weight * excess); near the kink use the
        # minimum-norm point of the two branch gradients' convex hull (the
        # steepest-descent direction for a max of smooth functions).  Work in
        # the tangent space (centered gradients); raw gradients carry
        # constant components per row that the projection removes but that
        # would corrupt the hull weight.
        g1 = self.sweep.center(self.sweep.chain(grad_d))
        g2 = self.sweep.center(grad_other)
        diff = g1 - g2
        denom = float(diff @ diff)
        lam = 0.5 if denom == 0 else min(max(float(g2 @ (g2 - g1)) / denom, 0.0), 1.0)
        return value, lam * g1 + (1.0 - lam) * g2


def _epigraph_descent(obj: _Objective, x0: np.ndarray, f0: float):
    """SLSQP on the epigraph form of ``obj`` from (x0, f0): minimize t subject
    to t >= f1 and t >= f2, the two pieces of the objective, over the rows'
    simplices, with the cells where Q o P is zero held at 0.  Descent on
    max(f1, f2) can stall where the kink f1 = f2 meets a face of the
    simplices; here the kink is a constraint.  Returns (x0, f0) unless the
    point reached, clipped to the simplices, has a lower objective."""
    # Imported here: it takes about a quarter of a second and 23 MB, and only
    # the brute-force minima use it.
    from scipy.optimize import minimize

    size, row_len = x0.size, obj.sweep.row_len
    last = {}

    def pieces(z):
        key = z.tobytes()
        if key not in last:
            last.clear()
            last[key] = obj.pieces(np.maximum(z[:-1], 0.0))
        return last[key]

    def piece(k):
        return {
            "type": "ineq",
            "fun": lambda z: z[-1] - pieces(z)[0][k],
            "jac": lambda z: np.append(-pieces(z)[1][k], 1.0),
        }

    sums = np.hstack([np.kron(np.eye(size // row_len), np.ones(row_len)), np.zeros((size // row_len, 1))])
    forbidden = obj.sweep.chain(obj.sweep.qp_zero * 1.0) != 0  # chain scales by Q(x) > 0
    objective_grad = np.append(np.zeros(size), 1.0)
    res = minimize(
        lambda z: z[-1], np.append(x0, f0), jac=lambda z: objective_grad, method="SLSQP",
        bounds=[(0.0, 0.0) if cell else (0.0, 1.0) for cell in forbidden] + [(None, None)],
        constraints=[piece(0), piece(1), {"type": "eq", "fun": lambda z: sums @ z - 1.0, "jac": lambda z: sums}],
        options={"ftol": 1e-15, "maxiter": 200},
    )
    x = np.maximum(res.x[:-1], 0.0).reshape(-1, row_len)
    x = (x / x.sum(axis=1, keepdims=True)).ravel()
    fx = float(obj.values(x[None])[0])
    return (x, fx) if fx < f0 else (x0, f0)


def _polish(obj: _Objective, x0: np.ndarray):
    """Alternate projected-gradient and coordinate-descent rounds until a full
    cycle stops improving."""
    sweep = obj.sweep
    x, fx = _pgd_on_simplex(obj.fg, x0, sweep.project)
    for _ in range(6):
        x, _ = _refine_rows(obj.values, x, sweep.row_len, sweep.bracket)
        x, f_pgd = _pgd_on_simplex(obj.fg, x, sweep.project)
        if fx - f_pgd < 1e-12:
            fx = min(fx, f_pgd)
            break
        fx = f_pgd
    return x, fx


def _refine_rows(values, x0: np.ndarray, row_len: int, bracket: float):
    """Cyclic coordinate descent over a stack of simplex rows: per coordinate,
    line-minimize over [-bracket, bracket] with per-row projection; stops
    when a full sweep moves less than 1e-8, or after 40 sweeps.  ``values``
    maps a batch of points to their objective values."""
    x = x0.copy()
    fx = float(values(x[None])[0])
    nrows = x.size // row_len
    for _ in range(40):
        moved = 0.0
        f_start = fx
        for r in range(nrows):
            sl = slice(r * row_len, (r + 1) * row_len)
            for i in range(row_len):
                def along(ts, sl=sl, i=i):  # ts (1, k): one bracket's points
                    rows = np.repeat(x[None, sl], ts.size, axis=0)
                    rows[:, i] += ts[0]
                    cand = np.repeat(x[None], ts.size, axis=0)
                    cand[:, sl] = project_simplex(rows)
                    return values(cand)[None]

                t, ft = (float(v[0]) for v in _golden_min(along, np.array([-bracket]), np.array([bracket])))
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


def _minimum(kind: ImplicitKind, rate: float, sweep: Sweep) -> float:
    """The polished minimum of ``kind`` at ``rate`` over ``sweep``'s points:
    +inf when no grid point has a finite objective.  The objective is a
    divergence plus a penalty that is never negative, so a negative minimum
    is roundoff and is returned as 0."""
    polished = sweep.polish(kind, rate)
    if polished is None:
        return math.inf
    value = polished[1]
    if kind is ImplicitKind.CORRECT_STRICT:
        # The strict feasible-set optimum sits on the kink of the penalized
        # objective, where descent from the grid can stall; the minimum of
        # the unconstrained |R - metric|^+ form shares it in the binding
        # regime, so also polish from that (purely numerical) solution and
        # keep the better of the two.
        x_ml, _ = sweep.polish(ImplicitKind.CORRECT_ML, rate)
        value = min(value, sweep.descend(kind, rate, x_ml)[1])
    return max(float(value), 0.0)


def implicit_exponent(kind: ImplicitKind, rate: float, sweep: Sweep) -> float:
    """Brute-force value of the implicit exponent expression selected by ``kind``.

    Minimizes over the joint types of ``sweep`` (a ``joint_sweep``): the best
    grid point, refined by projected-gradient and coordinate descent, then
    SLSQP on the epigraph form from there or from QoP if it is lower.  For
    CORRECT_STRICT the feasible set is D(ToV || TxQ) >= rate; +inf is returned
    when no grid point is feasible.
    """
    if sweep.conditional:
        raise ValueError("implicit_exponent minimizes over a joint_sweep")
    return _minimum(kind, rate, sweep)


def cc_bound(kind: ImplicitKind, rate: float, sweep: Sweep) -> float:
    """Constant-composition counterpart: the objective of
    ``implicit_exponent`` restricted to joint masses Q(x) W(y|x), minimized
    over the conditionals W of ``sweep`` (a ``conditional_sweep``) with the
    same steps: the polish, then SLSQP on the epigraph form from there or from
    the channel's own rows if they are lower.  There D(ToV || TxQ) is I(QoW).
    +inf for CORRECT_STRICT when I(QoW) >= rate is
    infeasible on the grid (e.g. rate above the entropy of Q)."""
    if not sweep.conditional:
        raise ValueError("cc_bound minimizes over a conditional_sweep")
    return _minimum(kind, rate, sweep)


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


def _stabilize_ties(order, keys) -> None:
    """Turn ``order``, an unstable argsort with ``keys`` the values in its
    order, into the stable argsort in place: the indices within each run of
    equal keys go in ascending order.  Only the runs' positions are sorted,
    by one int64 key run * size + index.  Each temporary is freed once spent:
    under heavy ties the runs cover most positions."""
    size = keys.size
    tied = keys[1:] == keys[:-1]
    if not tied.any():
        return
    in_run = np.zeros(size, dtype=bool)
    in_run[:-1] = tied
    in_run[1:] |= tied
    starts = in_run.copy()
    starts[1:] &= ~tied
    del tied
    run = np.cumsum(starts[in_run], dtype=np.int64)
    del starts
    run *= size
    key = order[in_run]
    key += run
    del run
    key.sort()
    key %= size
    order[in_run] = key


def competitor_class_table(r, q: Distribution, n: int, logp: np.ndarray | None = None) -> CompetitorClassTable:
    """Exact per-class probabilities and metrics for one codeword ~ Q^n given a
    received word with output counts ``r``.

    The class probability is a product of per-output multinomials restricted to
    supp(Q); the metric is D(ToV || TxQ) of the class, or the ML decoder's
    log-likelihood average when ``logp[y, x] = log P(y|x)`` is given.
    ``counts`` is held in the narrowest unsigned dtype that holds n.
    """
    r = np.asarray(r, dtype=int)
    supp = q.support
    logq = np.log(q.probs[supp])
    logch = [None] * r.size if logp is None else logp[:, supp]
    check_class_count(r, supp.size, n)

    parts = [_output_part(ry, supp, logq, logq, n, logch[y]) for y, ry in enumerate(r.tolist())]
    logp_all, metric_all, counts = _output_product(parts, q.probs.size, np.min_scalar_type(n))

    # Descending: the argsort of the metrics negated in place and back (an
    # exact round trip), so no negated copy of the largest array is held.
    np.negative(metric_all, out=metric_all)
    order = np.argsort(metric_all)
    np.negative(metric_all, out=metric_all)
    _stabilize_ties(order, metric_all[order])
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
    if not delta >= 0:  # also refuses NaN; delta = +inf gives no feedback 1
        raise ValueError(f"delta must be non-negative and not NaN, got {delta!r}")
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
    for r in compositions_array(n, ny):
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
        -(1 + rho) times the stationarity values s_x / Z of the tilted kernel.

        Zero at rho = -1, where E0 depends on Q only through its support, and
        at rho = 0, where E0 vanishes identically."""
        grad = np.zeros(q.shape)
        inner = (rho > -1 + 1e-9) & (rho < -1e-12)
        if inner.any():
            r = rho[inner]
            grad[inner] = -(1.0 + r)[:, None] * _stationarity(r, guarded_log(q[inner], -np.inf), self.logp)[0]
        return grad


def _on_support(support, x: np.ndarray, nx: int) -> np.ndarray:
    """Full-alphabet rows (..., nx) with ``x[..., k]`` on letter ``support[k]``
    and zeros elsewhere."""
    full = np.zeros(x.shape[:-1] + (nx,))
    full[..., list(support)] = x
    return full


# Points of the start grid of the two-letter search.
_PAIR_GRID = 24


def _minimize_over_pairs(obj: _SupportObjective, pairs: list) -> np.ndarray:
    """Minimum of Q -> E_c^ML over Q = (t, 1 - t) on each two-letter support
    of ``pairs``, all pairs in lockstep.

    The value is convex in t, so the neighbours of the argmin of any grid
    bracket the minimum.  A start grid of ``_PAIR_GRID`` points gives each
    pair its bracket, a golden section searches it, and the lower of the
    golden and grid minima is kept.
    """
    nx = obj.matrix.shape[0]

    def values(ts):  # ts (P, k) -> values (P, k)
        rows = np.stack([_on_support(pair, np.stack([t, 1.0 - t], axis=-1), nx) for pair, t in zip(pairs, ts)])
        return obj.values_and_rhos(rows.reshape(-1, nx))[0].reshape(ts.shape)

    grid = np.linspace(0.0, 1.0, _PAIR_GRID)
    fs = values(np.tile(grid, (len(pairs), 1)))
    k = fs.argmin(axis=1)
    _, f_golden = _golden_min(values, grid[np.maximum(k - 1, 0)], grid[np.minimum(k + 1, grid.size - 1)])
    return np.minimum(f_golden, fs.min(axis=1))


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
        vals += _minimize_over_pairs(obj, pairs).tolist()
    vals += [_minimize_over_support(obj, sup) for sup in supports[len(vals):]]
    best_val = math.inf
    best_support = None
    for support, val in zip(supports, vals):
        if val < best_val:
            best_val = val
            best_support = support
    return best_val, best_support
