"""Monte Carlo simulation of i.i.d. random codes with the channel-independent
decoder and the one-bit-feedback input adaptation loop.

One pure batched function, ``decode``, makes every literal decision: the
unique argmax of the decode metric over each codebook, from the codebook, its
received word and Q.  The natural metric never reads the channel matrix; the
ML decoder (``use_ml_decoder``) does, through log P.

Codebooks are regenerated fresh every block from the current Q.  When the
codebook size ceil(e^{nR}) fits ``codebook_cap`` the codebook is materialized
and decoded literally; beyond the cap the block outcome is sampled from its
exact distribution instead, using the competitor conditional-type class
tables (the codewords other than the transmitted one are i.i.d. and
independent of the received word, so only the top metric order statistics
matter).  Both paths return only their decode; ``_block`` reports it, with
the feedback bit: from the top two metrics and delta (margin scheme), or
from the winner's metric, the rate and delta (threshold scheme).
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .itcore import (
    Channel,
    Distribution,
    JointDistribution,
    ResourceLimitError,
    TIE_TOL,
    TypeWithDenominator,
    codebook_size,
    empirical_joint_type,
    guarded_log,
)
from .exponents import (
    Boundary,
    correct_exponent_ml,  # not called here; the benchmark tracer rebinds it (tests/test_tracer_bindings.py)
    correct_exponent_ml_sweep,
    error_exponent_sweep,
    minus_one_family,
    minus_one_member,
    tilted_joint,
)
from .oracle import CompetitorClassTable, check_class_count, competitor_class_table, decode_metric, loglik_metric

# Largest literal block, in symbol cells m * n of its codebook.  A literal
# block peaks at about 10.6 bytes a cell on a 3x3 channel at n = 16, m = 2^20
# (tracemalloc): the float64 uniforms and the symbols while the codebook is
# drawn, then the metric's float64 planes, 8 bytes per joint cell and
# codeword, while it is scored.  So with the default CODEBOOK_CAP the cap
# holds such a block under about 200 MB.  A sampled block draws one word, so
# it is held to n <= LITERAL_CELL_CAP.
LITERAL_CELL_CAP = 2**24
# Default largest codebook that a block materializes; larger ones are sampled.
CODEBOOK_CAP = 2**20
# Largest batch of ``fixed_q_event_counts``, in symbol cells m * trials * n of
# its codebooks.
TRIAL_CELL_CAP = 400_000_000


class Scheme(Enum):
    MARGIN = "margin"
    THRESHOLD = "threshold"


@dataclass(frozen=True)
class SimConfig:
    n: int
    rate: float
    delta: float
    blocks: int
    q0: Distribution
    channel_schedule: tuple
    seed: int
    scheme: Scheme = Scheme.MARGIN
    codebook_cap: int = CODEBOOK_CAP
    use_ml_decoder: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n!r}")
        if self.blocks < 0:
            raise ValueError(f"blocks must be non-negative, got {self.blocks!r}")
        for name in ("rate", "delta"):  # `not >=` also refuses NaN; delta = +inf never updates
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative and not NaN, got {getattr(self, name)!r}")
        sched = tuple(self.channel_schedule)
        if not sched or sched[0][0] != 0:
            raise ValueError("channel schedule must start at block 0")
        idx = [i for i, _ in sched]
        if any(b >= a for a, b in zip(idx[1:], idx[:-1])):
            raise ValueError("channel schedule indices must be strictly increasing")
        if self.use_ml_decoder and self.scheme is not Scheme.THRESHOLD:
            raise ValueError("the ML-metric decoder is only available with the threshold scheme")
        object.__setattr__(self, "channel_schedule", sched)


@dataclass(frozen=True)
class BlockOutcome:
    decoded: int | None
    correct: bool
    feedback: int
    winner_metric: float
    runner_up_metric: float
    joint_type: TypeWithDenominator
    q_next: Distribution


@dataclass(frozen=True)
class UpdateStat:
    block: int
    desync: bool
    l1_to_minimizer: float
    guard_holds: bool
    error_exp_at_rate: float
    correct_exp_at_rate_plus_delta: float


@dataclass(frozen=True)
class RunSummary:
    blocks: int
    feedback_rate: float
    error_rate: float
    updates: int
    desync_blocks: tuple
    update_stats: tuple
    q_final: Distribution


@dataclass(frozen=True)
class SimResult:
    trace: tuple
    summary: RunSummary


def _draw_by_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The letter of each uniform in ``u`` under the non-decreasing ``cdf``:
    the number of cdf entries <= u, with the entries at and beyond the last
    letter of positive probability (the first entry equal to the last) taken
    as +inf.  That is ``np.searchsorted(cdf, u, side="right")`` capped at that
    letter, so no draw leaves the alphabet or lands on a letter of
    probability zero when the cdf ends below 1.  Counted by one comparison per
    letter before the last positive one, in the narrowest unsigned dtype that
    holds |X|."""
    last = int(np.argmax(cdf == cdf[-1]))
    out = np.zeros(u.shape, dtype=np.min_scalar_type(cdf.size))
    for c in cdf[:last].tolist():
        out += (u >= c).view(np.uint8)
    return out


def _check_cells(words: int, n: int) -> None:
    if words * n > LITERAL_CELL_CAP:
        cells = f"n = {n}" if words == 1 else f"m * n = {words} * {n}"
        raise ResourceLimitError(
            f"a block of {cells} symbol cells exceeds the cap LITERAL_CELL_CAP = {LITERAL_CELL_CAP}"
        )


def build_codebook(
    q: Distribution, n: int, rate: float, rng: np.random.Generator, codebook_cap: int = CODEBOOK_CAP
) -> np.ndarray:
    """M x n symbol array, entries i.i.d. ~ q, M = ceil(e^{n*rate}), in the
    narrowest unsigned dtype that holds |X|."""
    m = codebook_size(n, rate)
    if m > codebook_cap:
        raise ResourceLimitError(f"codebook size {m} exceeds cap {codebook_cap}")
    _check_cells(m, n)
    return _draw_by_cdf(np.cumsum(q.probs), rng.random((m, n)))


def _transmit(x: np.ndarray, p: Channel, rng: np.random.Generator) -> np.ndarray:
    """Channel outputs for the inputs ``x`` (any shape), one uniform per
    symbol drawn in C order, by inverse CDF: the number of the input's cdf
    entries below u, with the entries at and beyond its last output of
    positive probability taken as +inf, as in ``_draw_by_cdf``."""
    cdf = np.cumsum(p.matrix, axis=1)
    cdf[cdf == cdf[:, -1:]] = np.inf
    u = rng.random(x.shape)
    return (u[..., None] > cdf[x, :-1]).sum(axis=-1, dtype=np.int64)


def _codeword_counts(books: np.ndarray, y: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """Joint type counts (..., M, |Y|, |X|) of every codeword of ``books``
    (..., M, n) with its received word ``y`` (..., n).

    The counts are a view of cell-major planes (|Y|, |X|, ..., M), each
    contiguous over the codewords, in the narrowest unsigned dtype that holds
    n: every symbol's joint cell y |X| + x is laid out one position per row,
    and each plane counts its cell row by row."""
    lead = books.shape[:-1]
    axes = tuple(range(len(lead)))
    cells = books.transpose((-1,) + axes).astype(np.min_scalar_type(ny * nx), order="C")  # a copy: added to below
    cells += (y.transpose((-1,) + axes[:-1]) * nx).astype(cells.dtype)[..., None]
    planes = np.empty((ny * nx,) + lead, dtype=np.min_scalar_type(books.shape[-1]))
    for cell, plane in enumerate(planes):
        np.add.reduce((cells == cell).view(np.uint8), axis=0, dtype=planes.dtype, out=plane)
    return planes.reshape((ny, nx) + lead).transpose(tuple(a + 2 for a in axes) + (0, 1))


def decode(books: np.ndarray, y: np.ndarray, q: Distribution, ny: int, logp: np.ndarray | None = None):
    """Unique-argmax decoding of every codebook of ``books`` (..., M, n) from
    its received word ``y`` (..., n) over ``ny`` output letters.

    The decode metric is the natural one, or the ML one (``loglik_metric``)
    when ``logp[y, x] = log P(y|x)`` is given.  Returns the joint type counts
    (..., M, ny, |X|), the decode metrics (..., M) and, for each codebook,
    the index of the unique top decode metric (-1 on a tie within TIE_TOL)
    with the top two decode metrics.  A single codeword wins vacuously over a
    runner-up of -inf.  Each codebook's results are those of decoding it
    alone, bit for bit.
    """
    n = books.shape[-1]
    counts = _codeword_counts(books, y, len(q), ny)
    if logp is None:
        metrics = decode_metric(counts, n, q, received=counts[..., :1, :, :].sum(axis=-1))
    else:
        metrics = loglik_metric(counts, n, logp)
    if metrics.shape[-1] == 1:
        best, second = metrics[..., 0], np.full(metrics.shape[:-1], -math.inf)
        return counts, metrics, np.zeros(metrics.shape[:-1], dtype=np.int64), best, second
    top2 = np.argpartition(-metrics, 1, axis=-1)[..., :2]  # the larger first
    best, second = np.moveaxis(np.take_along_axis(metrics, top2, axis=-1), -1, 0)
    return counts, metrics, np.where(best > second + TIE_TOL, top2[..., 0], -1), best, second


def _margin_decide(decoded, winner_metric, runner_up_metric, delta: float):
    """Feedback bits of the margin scheme, elementwise: 1 where a codeword was
    decoded and its metric beats the runner-up's by more than delta (never at
    delta = +inf)."""
    return decoded & (delta != math.inf) & (winner_metric - runner_up_metric > delta + TIE_TOL)


def threshold_decide(winner_metric: float, rate: float, delta: float) -> int:
    """Feedback bit of the alternative scheme: 1 iff the winner's metric
    average strictly exceeds rate + delta."""
    return int(winner_metric > rate + delta)


# ---------------------------------------------------------------------------
# single-block execution: a literal or a sampled decode, then the feedback bit
# ---------------------------------------------------------------------------


def _draw_iid(probs: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    return _draw_by_cdf(np.cumsum(probs), rng.random(size))


def _sample_max_class(
    table: CompetitorClassTable, competitors, rng: np.random.Generator, start: int = 0
) -> int | None:
    """Index of the highest-metric class hit by ``competitors`` i.i.d. codewords
    conditioned to lie in classes >= start; None when competitors == 0."""
    if competitors <= 0:
        return None
    logs = table.suffix_logsum
    flog = float(competitors) * (logs[start:] - logs[start])  # non-increasing
    logu = math.log(rng.random())
    cnt = int(np.searchsorted(-flog, -logu, side="right"))
    return start + cnt - 1


def _top_class_is_tied(
    table: CompetitorClassTable, competitors, j: int, rng: np.random.Generator
) -> bool:
    """Given the max class is j, whether two or more competitors share it."""
    if competitors <= 1:
        return False
    alpha = math.exp(table.log_probs[j] - table.suffix_logsum[j])
    alpha = min(max(alpha, 0.0), 1.0)
    if alpha >= 1.0:
        return True
    mfl = float(competitors)
    log_one = math.log(mfl) + math.log(alpha) + (mfl - 1.0) * math.log1p(-alpha)
    p_ge1 = -math.expm1(mfl * math.log1p(-alpha))
    p_single = math.exp(log_one) / p_ge1 if p_ge1 > 0 else 0.0
    return rng.random() > p_single


def _virtual_block(
    q: Distribution, p: Channel, m: int, rng: np.random.Generator, config: SimConfig, table_cache: dict,
    logp: np.ndarray | None,
):
    """Sample the decode of one block without materializing the codebook.

    Equal in distribution to the literal fresh-codebook block: competitor
    conditional-type classes given the received word are enumerated exactly
    and the top metric order statistics are drawn by inverse CDF.
    """
    n = config.n
    x = _draw_iid(q.probs, n, rng)
    y = _transmit(x, p, rng)
    jt = empirical_joint_type(x, y, p.num_inputs, p.num_outputs)
    r = tuple(int(v) for v in jt.counts.sum(axis=1))
    # Classes are ordered by the decode metric, so the sent word competes with
    # its own decode metric.
    b0 = decode_metric(jt.counts, n, q) if logp is None else float(loglik_metric(jt.counts, n, logp))

    table = table_cache.get(r)
    if table is None:
        table = table_cache[r] = competitor_class_table(np.asarray(r), q, n, logp=logp)
    competitors = m - 1
    jstar = _sample_max_class(table, competitors, rng)
    sent_index = int(rng.integers(0, min(m, 2**62)))
    erasure = (None, False, jt, None, b0, b0)
    bmax = -math.inf if jstar is None else float(table.metrics[jstar])  # None at m = 1: b0 (finite) wins
    if b0 > bmax + TIE_TOL:
        return sent_index, True, jt, jt.counts, b0, bmax
    if not bmax > b0 + TIE_TOL or _top_class_is_tied(table, competitors, jstar, rng):
        return erasure
    jsecond = _sample_max_class(table, competitors - 1, rng, start=jstar + 1)
    second_best = table.metrics[jsecond] if jsecond is not None else -math.inf
    runner_up = max(b0, float(second_best))
    if not bmax > runner_up + TIE_TOL:
        return erasure
    return (sent_index + 1) % max(m, 2), False, jt, table.counts[jstar].astype(np.int64), bmax, runner_up


def _literal_block(q: Distribution, p: Channel, rng: np.random.Generator, config: SimConfig, logp: np.ndarray | None):
    """Decode one block over a materialized fresh codebook."""
    n = config.n
    codebook = build_codebook(q, n, config.rate, rng, config.codebook_cap)
    sent = int(rng.integers(0, codebook.shape[0]))
    y = _transmit(codebook[sent], p, rng)
    counts, metrics, winner, best, second = decode(codebook, y, q, p.num_outputs, logp)
    jt = TypeWithDenominator(counts[sent].astype(np.int64), n)
    winner = int(winner)
    if winner < 0:
        return None, False, jt, None, float(metrics[sent]), float(metrics[sent])
    return winner, winner == sent, jt, counts[winner].astype(np.int64), float(best), float(second)


def _block(q: Distribution, p: Channel, m: int, rng: np.random.Generator, config: SimConfig, table_cache: dict):
    """One block at codebook distribution q with m codewords: the literal
    decode when m fits ``config.codebook_cap``, the sampled one beyond it (with
    the class tables of (q, p) in ``table_cache``, by received type), then the
    feedback bit of ``config.scheme``.  Returns the outcome (with ``q_next =
    q``) and the winner's joint type counts (None on an erasure).

    Both paths decode with one ``logp[y, x] = log P(y|x)`` (None under the
    natural decoder) and return (decoded, correct, the sent word's joint type,
    the winner's int64 (|Y|, |X|) counts, winner and runner-up metrics in the
    decode domain); on an erasure decoded and the counts are None and both
    metrics are the sent word's.  The counts own their data: ``nts_run`` keeps
    them to the last block.  The outcome reports natural metrics (scored here
    under the ML decoder, whose runner-up stays in the ML domain)."""
    logp = guarded_log(p.matrix.T, -np.inf) if config.use_ml_decoder else None
    if m <= config.codebook_cap:
        out = _literal_block(q, p, rng, config, logp)
    else:
        out = _virtual_block(q, p, m, rng, config, table_cache, logp)
    decoded, correct, jt, winner_counts, winner_metric, runner_up = out
    if logp is not None:
        if decoded is None:
            winner_metric = runner_up = decode_metric(jt.counts, config.n, q)
        else:
            winner_metric = decode_metric(winner_counts, config.n, q)
    if config.scheme is Scheme.THRESHOLD:
        feedback = int(decoded is not None and threshold_decide(winner_metric, config.rate, config.delta))
    else:
        feedback = int(_margin_decide(decoded is not None, winner_metric, runner_up, config.delta))
    outcome = BlockOutcome(
        decoded=decoded,
        correct=correct,
        feedback=feedback,
        winner_metric=winner_metric,
        runner_up_metric=runner_up,
        joint_type=jt,
        q_next=q,
    )
    return outcome, winner_counts


def _check_caps(config: SimConfig, m: int) -> None:
    """Refuse, before any block runs, a run whose blocks can exceed a cap: the
    symbol cells a block draws (m * n on the literal path, n on the sampled
    one), or the competitor class count of the sampled path at its largest
    received type.

    Q's support never grows, so the class count peaks at |supp Q0| letters.
    log C(r + s - 1, s - 1) is concave in r, so over received types it peaks
    at the balanced split of n among the outputs that supp Q0 reaches."""
    n, supp = config.n, config.q0.support
    if m <= config.codebook_cap:
        _check_cells(m, n)
        return
    _check_cells(1, n)
    reach = max(int((ch.matrix[supp] > 0).any(axis=0).sum()) for _, ch in config.channel_schedule)
    check_class_count([n // reach + (y < n % reach) for y in range(reach)], supp.size, n)


def _channel_at(schedule: tuple, block: int) -> Channel:
    """The channel of the last schedule entry at or before ``block``."""
    return next(ch for idx, ch in reversed(schedule) if idx <= block)


def nts_run(config: SimConfig) -> SimResult:
    """Run the adaptation loop: every block draws a fresh codebook from the
    current Q, transmits a uniform message, decodes, and on feedback 1
    replaces Q by the input marginal of the winning codeword's joint type
    (decoder side; blocks where the winner differs from the sent message are
    reported as desynchronized updates, not corrected)."""
    rng = np.random.default_rng(config.seed)
    q = config.q0
    m = codebook_size(config.n, config.rate)
    _check_caps(config, m)
    trace = []
    updates = []
    cache_q = cache_p = None

    for block in range(config.blocks):
        p = _channel_at(config.channel_schedule, block)
        if q is not cache_q or p is not cache_p:  # class tables hold for one (Q, channel)
            table_cache, cache_q, cache_p = {}, q, p
        outcome, winner_counts = _block(q, p, m, rng, config, table_cache)
        if outcome.feedback == 1:
            updates.append((block, not outcome.correct, winner_counts, q, p))
            q = Distribution(winner_counts.sum(axis=0) / config.n)
            outcome = dataclasses.replace(outcome, q_next=q)
        trace.append(outcome)

    blocks = max(config.blocks, 1)
    summary = RunSummary(
        blocks=config.blocks,
        feedback_rate=len(updates) / blocks,
        error_rate=sum(not out.correct for out in trace) / blocks,
        updates=len(updates),
        desync_blocks=tuple(block for block, desync, *_ in updates if desync),
        update_stats=_update_stats(updates, config),
        q_final=q,
    )
    return SimResult(trace=tuple(trace), summary=summary)


def _update_stats(updates: list, config: SimConfig) -> tuple:
    """The ``UpdateStat`` of each update (block, desync, winner counts, Q,
    channel): E_r(R, Q), E_c(R + delta, Q) and the L1 distance from the
    winner's joint type to the minimizer of that correct-decoding exponent.

    These diagnostics never feed back into Q, so they are solved after the
    last block.  Updated distributions are type marginals (multiples of 1/n)
    and repeat, so each distinct Q of a channel is solved once, all of them in
    one batched sweep per exponent.  The minimizer is the tilted joint at
    rho*, or at rho* = -1 the family member at R + delta (T_-1 o v_minus, the
    ML one, beyond r_plus, where the strict formula does not apply)."""
    rate_plus = config.rate + config.delta
    channels: dict = {}
    for *_, q, p in updates:
        channels.setdefault(id(p), (p, {}))[1].setdefault(q.probs.tobytes(), q)
    solved = {}
    for key, (p, distinct) in channels.items():
        qs = list(distinct.values())
        rows = np.array([q.probs for q in qs])
        errors = error_exponent_sweep(config.rate, rows, p).value
        corrects = correct_exponent_ml_sweep(rate_plus, rows, p)
        for q, ee, ec, rho, flag in zip(qs, errors, corrects.value, corrects.rho_star, corrects.boundary):
            fam = minus_one_family(q, p) if flag is Boundary.RHO_MINUS_ONE else None
            if fam is None:
                mass = tilted_joint(float(rho), q, p).joint.mass
            elif rate_plus <= fam.r_plus:
                mass = minus_one_member(fam, q, rate_plus).mass
            else:  # no strict member: the ML minimizer
                mass = JointDistribution.from_t_v(fam.t_minus1.probs, fam.v_minus).mass
            solved[key, q.probs.tobytes()] = float(ee), float(ec), mass
    stats = []
    for block, desync, winner_counts, q, p in updates:
        ee, ec, mass = solved[id(p), q.probs.tobytes()]
        stats.append(
            UpdateStat(
                block=block,
                desync=desync,
                l1_to_minimizer=float(np.abs(winner_counts / config.n - mass).sum()),
                guard_holds=ee > ec,
                error_exp_at_rate=ee,
                correct_exp_at_rate_plus_delta=ec,
            )
        )
    return tuple(stats)


def fixed_q_outcomes(
    q: Distribution,
    p: Channel,
    n: int,
    rate: float,
    delta: float,
    blocks: int,
    seed: int,
    scheme: Scheme = Scheme.MARGIN,
    codebook_cap: int = CODEBOOK_CAP,
) -> tuple:
    """Independent single-block outcomes at a frozen codebook distribution.

    Same per-block law as nts_run but Q is never updated; used for event
    statistics and conditioned type studies at fixed Q.  The parameters are
    checked as those of a ``SimConfig``."""
    config = SimConfig(
        n=n, rate=rate, delta=delta, blocks=blocks, q0=q, channel_schedule=((0, p),),
        seed=seed, scheme=scheme, codebook_cap=codebook_cap,
    )
    rng = np.random.default_rng(seed)
    m = codebook_size(n, rate)
    _check_caps(config, m)
    table_cache: dict = {}
    return tuple(_block(q, p, m, rng, config, table_cache)[0] for _ in range(blocks))


def fixed_q_event_counts(
    q: Distribution,
    p: Channel,
    n: int,
    rate: float,
    delta: float,
    trials: int,
    seed: int,
) -> dict:
    """Vectorized single-block trials at fixed Q (no adaptation): counts of
    {error, correct-strict, sent-wins-with-margin} over ``trials`` blocks,
    each decoded by ``decode``.

    Used to validate the exact finite-n analyzer by Monte Carlo.  The
    parameters are checked as those of a ``SimConfig``, with ``trials`` in the
    place of ``blocks``."""
    SimConfig(n=n, rate=rate, delta=delta, blocks=trials, q0=q, channel_schedule=((0, p),), seed=seed)
    m = codebook_size(n, rate)
    if m * trials * n > TRIAL_CELL_CAP:
        raise ResourceLimitError(
            f"a trial batch of m * trials * n = {m} * {trials} * {n} symbol cells"
            f" exceeds the cap TRIAL_CELL_CAP = {TRIAL_CELL_CAP}"
        )
    rng = np.random.default_rng(seed)
    books = _draw_iid(q.probs, trials * m * n, rng).reshape(trials, m, n)
    y = _transmit(books[:, 0, :], p, rng)  # message index is immaterial by symmetry
    _, _, winner, best, second = decode(books, y, q, p.num_outputs)
    correct = winner == 0
    return {
        "trials": trials,
        "error": int((~correct).sum()),
        "correct_strict": int(correct.sum()),
        "feedback1": int(_margin_decide(correct, best, second, delta).sum()),
    }


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    stderr: float
    n_points: int
    censored: tuple


def estimate_exponent(samples) -> ExponentFit:
    """Least-squares slope of -log(frequency) against n, with standard error.

    Zero frequencies are censored points: excluded with a warning."""
    samples = list(samples)
    ns = [s[0] for s in samples]
    if len(set(ns)) < 3:
        raise ValueError("need at least 3 distinct blocklengths")
    censored = tuple(n for n, f in samples if f == 0)
    if censored:
        warnings.warn(f"zero frequencies at n={censored} censored from the fit")
    for n, f in samples:
        if f < 0 or f > 1:
            raise ValueError(f"frequency {f} outside [0, 1] at n={n}")
    pts = [(n, f) for n, f in samples if f > 0]
    if len({n for n, _ in pts}) < 2:
        raise ValueError("fewer than 2 distinct blocklengths left after censoring")
    x = np.array([n for n, _ in pts], dtype=float)
    z = -np.log(np.array([f for _, f in pts], dtype=float))
    k = x.size
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ (z - z.mean())) / sxx
    resid = z - z.mean() - slope * xc
    dof = k - 2
    stderr = math.sqrt(max(float(resid @ resid), 0.0) / dof / sxx) if dof > 0 else math.inf
    return ExponentFit(slope=slope, stderr=stderr, n_points=k, censored=censored)
