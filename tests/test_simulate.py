import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nts.exponents
import nts.simulate
from compositions_reference import compositions_iter
from decode_reference import reference_counts, reference_decode_metric, reference_loglik_metric
from update_stats_reference import record_updates, reference_update_stats
from nts.exponents import Boundary, correct_exponent_ml_sweep, minus_one_family
from nts.itcore import TIE_TOL, Channel, Distribution, ResourceLimitError, guarded_log
from nts.oracle import CLASS_CAP, decode_metric, exact_finite_n, loglik_metric
from nts.simulate import (
    LITERAL_CELL_CAP,
    TRIAL_CELL_CAP,
    Scheme,
    SimConfig,
    _draw_by_cdf,
    _margin_decide,
    _transmit,
    build_codebook,
    decode,
    estimate_exponent,
    fixed_q_event_counts,
    fixed_q_outcomes,
    nts_run,
    threshold_decide,
)

BSC = Channel.bsc(0.1)
UNIF = Distribution.uniform(2)
Q34 = Distribution(np.array([0.75, 0.25]))
P2 = Channel(np.array([[0.8, 0.2], [0.3, 0.7]]))
Q64 = Distribution(np.array([0.6, 0.4]))


def _both_paths(p, q, n, rate, delta, blocks, scheme, ml):
    """Outcomes at fixed Q along the literal path and the virtual path (forced
    by a codebook cap of 1), on independent seeds."""
    if not ml:
        return [
            fixed_q_outcomes(q, p, n, rate, delta, blocks, seed, scheme=scheme, codebook_cap=cap)
            for seed, cap in ((2, 2**20), (3, 1))
        ]
    # The ML decoder runs only inside nts_run; delta = +inf never gives
    # feedback 1, so Q stays fixed.
    return [
        nts_run(
            SimConfig(
                n=n, rate=rate, delta=delta, blocks=blocks, q0=q, channel_schedule=((0, p),),
                seed=seed, scheme=scheme, codebook_cap=cap, use_ml_decoder=True,
            )
        ).trace
        for seed, cap in ((2, 2**20), (3, 1))
    ]


class TestBuildCodebook:
    def test_rate_zero_single_codeword(self):
        cb = build_codebook(UNIF, 8, 0.0, np.random.default_rng(0))
        assert cb.shape == (1, 8)

    def test_point_mass_constant_codewords(self):
        q = Distribution.point_mass(2, 1)
        cb = build_codebook(q, 10, 0.3, np.random.default_rng(0))
        assert np.all(cb == 1)

    def test_letter_frequencies_concentrate(self):
        q = Distribution(np.array([0.3, 0.7]))
        cb = build_codebook(q, 50, 0.15, np.random.default_rng(1), codebook_cap=2**20)
        total = cb.size
        freq = (cb == 0).sum() / total
        se = math.sqrt(0.3 * 0.7 / total)
        assert abs(freq - 0.3) <= 5 * se

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            build_codebook(UNIF, 100, 1.0, np.random.default_rng(0), codebook_cap=2**10)

    def test_deterministic_given_seed(self):
        a = build_codebook(UNIF, 6, 0.4, np.random.default_rng(5))
        b = build_codebook(UNIF, 6, 0.4, np.random.default_rng(5))
        assert np.array_equal(a, b)


@st.composite
def cdf_and_uniforms(draw):
    """A non-decreasing cdf over 1-6 letters, with repeated entries from
    zero-probability letters and a last entry at or below 1, the last letter
    of positive probability, and uniforms that include every cdf entry and
    its two float neighbours."""
    weights = np.array(draw(st.lists(st.integers(0, 5), min_size=1, max_size=6).filter(any)), dtype=float)
    scale = draw(st.sampled_from([1.0, 0.75, 1.0 - 2.0**-40]))
    cdf = np.cumsum(weights / weights.sum()) * scale
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.concatenate(([0.0], cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0), rng.random(64)))
    return cdf, int(np.flatnonzero(weights)[-1]), u[u < 1.0]


class _StuckRng:
    """A generator whose every uniform is the largest double below 1."""

    def random(self, shape):
        return np.full(shape, np.nextafter(1.0, 0.0))


class TestDrawByCdf:
    @settings(max_examples=200, deadline=None)
    @given(cdf_and_uniforms())
    def test_equals_searchsorted_right(self, case):
        # searchsorted(side="right"), capped at the last letter of positive
        # probability: a uniform at or above a cdf that ends below 1 draws
        # that letter, not one past the alphabet or of probability zero.
        cdf, last, u = case
        assert np.array_equal(_draw_by_cdf(cdf, u), np.minimum(np.searchsorted(cdf, u, side="right"), last))

    def test_draws_stay_in_the_alphabet(self):
        # These sum to 1, but their cumsums end at 1 - 2^-53 and 1 - 2^-52,
        # at or below the largest uniform: counting every cdf entry would draw
        # one letter past the alphabet, or a zero-probability letter after it.
        stuck = np.nextafter(1.0, 0.0)
        for w in ([9, 18, 1], [6, 23, 1]):
            q = Distribution(np.array(w) / sum(w))
            assert np.cumsum(q.probs)[-1] <= stuck
            assert np.all(build_codebook(q, 4, 0.5, _StuckRng()) == 2)
            assert np.all(build_codebook(Distribution(np.array(w + [0]) / sum(w)), 4, 0.5, _StuckRng()) == 2)
        p = Channel(np.array([[9, 18, 1, 0], [6, 23, 1, 0], [1, 1, 0, 0]]) / np.array([[28], [30], [2]]))
        assert np.array_equal(_transmit(np.array([[0, 1, 2, 1]]), p, _StuckRng()), [[2, 2, 1, 2]])

    def test_codebook_draws_follow_searchsorted(self):
        q = Distribution(np.array([0.2, 0.0, 0.5, 0.3]))
        book = build_codebook(q, 9, 0.5, np.random.default_rng(4))
        u = np.random.default_rng(4).random(book.shape)
        assert np.array_equal(book, np.searchsorted(np.cumsum(q.probs), u, side="right"))
        assert not np.any(book == 1)


def _no_block(*args):
    raise AssertionError("a block ran")


def _class_count(r, s):
    return math.prod(math.comb(ry + s - 1, s - 1) for ry in r)


class TestCapsBeforeAnyBlock:
    """Configs whose blocks can exceed a cap are refused before any block."""

    def _config(self, n, rate, q0=UNIF, p=BSC, blocks=10):
        return SimConfig(n=n, rate=rate, delta=0.1, blocks=blocks, q0=q0, channel_schedule=((0, p),), seed=0)

    def test_literal_cells(self, monkeypatch):
        monkeypatch.setattr("nts.simulate._block", _no_block)
        with pytest.raises(ResourceLimitError, match="LITERAL_CELL_CAP"):
            nts_run(self._config(10**400, 0.0))
        with pytest.raises(ResourceLimitError, match="LITERAL_CELL_CAP"):
            fixed_q_outcomes(UNIF, BSC, 10**400, 0.0, 0.1, blocks=1, seed=0)
        with pytest.raises(ResourceLimitError, match="LITERAL_CELL_CAP"):
            build_codebook(UNIF, LITERAL_CELL_CAP + 1, 0.0, np.random.default_rng(0))

    def test_sampled_block_length(self, monkeypatch):
        # A point-mass Q0 has one class per received type, so only the n
        # symbols that a sampled block draws can be too many.
        monkeypatch.setattr("nts.simulate._block", _no_block)
        with pytest.raises(ResourceLimitError, match=f"n = {10**30} symbol cells exceeds the cap LITERAL_CELL_CAP"):
            nts_run(self._config(10**30, 1e-28, q0=Distribution.point_mass(2, 0)))

    def test_trial_batch_names_the_cap(self):
        cells = f"m \\* trials \\* n = 1 \\* 3 \\* {10**9} symbol cells"
        with pytest.raises(ResourceLimitError, match=f"{cells} exceeds the cap TRIAL_CELL_CAP = {TRIAL_CELL_CAP}"):
            fixed_q_event_counts(UNIF, BSC, 10**9, 0.0, 0.1, trials=3, seed=0)

    def test_balanced_received_type_has_the_most_classes(self):
        for s in range(1, 5):
            for ny in range(1, 5):
                for n in range(13):
                    balanced = [n // ny + (y < n % ny) for y in range(ny)]
                    most = max(_class_count(r, s) for r in compositions_iter(n, ny))
                    assert _class_count(balanced, s) == most

    def test_class_count_at_the_balanced_received_type(self, monkeypatch):
        # Three letters, two outputs: the first n whose balanced received
        # type has more classes than the cap.
        q, p = Distribution.uniform(3), Channel(np.array([[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]]))
        n = 2
        while _class_count((n // 2, n - n // 2), 3) <= CLASS_CAP:
            n += 1
        assert nts_run(self._config(n - 1, 0.3, q, p, blocks=0)).trace == ()
        monkeypatch.setattr("nts.simulate._block", _no_block)
        with pytest.raises(ResourceLimitError, match=f"exceeds cap {CLASS_CAP}"):
            nts_run(self._config(n, 0.3, q, p))
        with pytest.raises(ResourceLimitError, match=f"exceeds cap {CLASS_CAP}"):
            fixed_q_outcomes(q, p, n, 0.3, 0.1, blocks=1, seed=0)

    def test_only_outputs_that_supp_q0_reaches_count(self):
        # Output 2 is reachable only from letter 2, which Q0 omits, so the
        # received types split n between two outputs, not three.
        p = Channel(np.array([[0.7, 0.3, 0.0], [0.4, 0.6, 0.0], [0.1, 0.1, 0.8]]))
        q = Distribution(np.array([0.5, 0.5, 0.0]))
        n = 3000
        assert _class_count((n // 2, n // 2), 2) <= CLASS_CAP < _class_count((1000, 1000, 1000), 2)
        assert nts_run(self._config(n, 0.2, q, p, blocks=0)).trace == ()

    def test_refusal_is_worst_case_over_received_types(self, monkeypatch):
        # The received types of this skewed run sit near (4411, 89), about
        # 0.4M classes, but the balanced (2250, 2250) has 2251^2 > CLASS_CAP
        # and can be received, so the run is refused before its first block.
        q0, n = Distribution(np.array([0.99, 0.01])), 4500
        assert _class_count((4411, 89), 2) < CLASS_CAP < _class_count((2250, 2250), 2)
        monkeypatch.setattr("nts.simulate._block", _no_block)
        with pytest.raises(ResourceLimitError, match=f"exceeds cap {CLASS_CAP}"):
            nts_run(self._config(n, 0.01, q0, Channel.bsc(0.01)))


def _natural_decode(codebook, y, q, delta):
    """(winner, top metric, runner-up metric, margin feedback bit) of one
    codebook over two output letters."""
    _, _, winner, best, second = decode(np.asarray(codebook), np.asarray(y), q, 2)
    return int(winner), float(best), float(second), int(_margin_decide(winner >= 0, best, second, delta))


class TestNaturalDecode:
    """``decode`` with the natural metric, then the margin rule."""

    def test_hand_example(self):
        decoded, best, second, feedback = _natural_decode([[0, 1], [0, 0]], [0, 1], Q34, 0.5)
        assert decoded == 0
        assert best == pytest.approx(0.836988, abs=1e-6)
        assert second == pytest.approx(0.287682, abs=1e-6)
        assert feedback == 1

    def test_exact_tie_is_erasure(self):
        decoded, best, second, feedback = _natural_decode([[0, 1], [0, 1]], [0, 1], Q34, 0.0)
        assert decoded == -1 and feedback == 0
        assert best == second

    def test_single_codeword_wins_vacuously(self):
        decoded, _, second, feedback = _natural_decode([[0, 1]], [0, 1], Q34, 0.3)
        assert decoded == 0 and second == -math.inf and feedback == 1

    def test_delta_inf_forces_zero(self):
        decoded, _, _, feedback = _natural_decode([[0, 1]], [0, 1], Q34, math.inf)
        assert decoded == 0 and feedback == 0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        codebook = build_codebook(UNIF, 12, 0.2, rng)
        y = rng.integers(0, 2, size=12)
        decoded, best, second, feedback = _natural_decode(codebook, y, UNIF, 0.05)
        perm = rng.permutation(codebook.shape[0])
        decoded_p, best_p, second_p, feedback_p = _natural_decode(codebook[perm], y, UNIF, 0.05)
        assert (decoded_p == -1) if decoded == -1 else (perm[decoded_p] == decoded)
        assert (best_p, second_p, feedback_p) == (best, second, feedback)

    def test_decoder_never_reads_channel(self):
        # The counts and natural metrics are those of (codebook, y, Q) alone:
        # an ML metric changes only the metrics scored, through log P.
        codebook = np.array([[0, 1, 1], [1, 0, 0]])
        y = np.array([0, 1, 0])
        logp = np.log(P2.matrix.T)
        counts, nat = decode(codebook, y, Q34, 2)[:2]
        counts_ml, ml = decode(codebook, y, Q34, 2, logp)[:2]
        assert np.array_equal(counts, counts_ml)
        assert list(nat) == [decode_metric(c, 3, Q34) for c in counts]
        assert list(ml) == [loglik_metric(c, 3, logp) for c in counts]


@st.composite
def stacked_codebooks(draw):
    """1-4 codebooks of 1-5 words of 1-5 symbols over 2-3 input and output
    letters, with their received words.  Some codebooks repeat one word in
    every row (an exact tie), and half the draws give log P for the ML
    metric."""
    nx, ny = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    t, m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = Distribution(rng.dirichlet(np.ones(nx)))
    books = rng.integers(0, nx, size=(t, m, n)).astype(np.uint8)
    tied = np.array(draw(st.lists(st.booleans(), min_size=t, max_size=t)))
    books[tied] = books[tied, :1]
    y = rng.integers(0, ny, size=(t, n))
    logp = np.log(rng.dirichlet(np.ones(ny), size=nx).T) if draw(st.booleans()) else None
    return books, y, q, ny, logp


def _weights(size):
    # Integer weights give exact zeros.
    return st.lists(st.integers(0, 4), min_size=size, max_size=size).filter(any)


@st.composite
def decode_against_reference(draw):
    """Codebooks (lead..., M, n) with 0-2 leading trial axes, M = 1 to 40,
    |X| and |Y| of 1-4 letters (16 cells reach numpy's second block of
    eight) and n up to 300 (uint16 counts), their received words, a Q that
    may have zero letters (some codewords sit off its support) and, for half
    the draws, log P with zeros for the ML metric."""
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    m, n = draw(st.integers(1, 40)), draw(st.sampled_from([1, 2, 5, 16, 255, 300]))
    q = np.array(draw(_weights(nx)), dtype=float)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    books = rng.integers(0, nx, size=lead + (m, n)).astype(np.uint8)
    y = rng.integers(0, ny, size=lead + (n,))
    logp = None
    if draw(st.booleans()):
        rows = np.array([draw(_weights(ny)) for _ in range(nx)], dtype=float)
        logp = guarded_log(rows.T / rows.sum(axis=1), -np.inf)
    return books, y, Distribution(q / q.sum()), ny, logp


class TestDecode:
    @settings(max_examples=150, deadline=None)
    @given(stacked_codebooks())
    def test_stack_decodes_as_each_codebook_alone(self, case):
        books, y, q, ny, logp = case
        stacked = decode(books, y, q, ny, logp)
        for i in range(books.shape[0]):
            counts, metrics, winner, best, second = alone = decode(books[i], y[i], q, ny, logp)
            for whole, part in zip(stacked, alone):
                assert np.array_equal(whole[i], part)
            n = books.shape[-1]
            expected = decode_metric(counts, n, q) if logp is None else loglik_metric(counts, n, logp)
            assert np.array_equal(metrics, expected)
            top = sorted(metrics, reverse=True) + [-math.inf]
            assert (best, second) == (top[0], top[1])
            assert winner == (int(np.argmax(metrics)) if top[0] > top[1] + TIE_TOL else -1)

    @settings(max_examples=150, deadline=None)
    @given(decode_against_reference())
    def test_equals_reference_arithmetic(self, case):
        # The cell-major counts and the plane-wise sums give the bytes of a
        # bincount and of .sum over C-contiguous matrices.
        books, y, q, ny, logp = case
        n = books.shape[-1]
        counts, returned, _, best, second = decode(books, y, q, ny, logp)
        ref = reference_counts(books, y, len(q), ny)
        assert counts.shape == ref.shape and np.array_equal(counts, ref)
        assert counts.dtype == np.min_scalar_type(n)
        ref_nat = reference_decode_metric(ref, n, q)
        for batch in (counts, ref, ref.astype(float)):
            assert decode_metric(batch, n, q).tobytes() == ref_nat.tobytes()
        metrics = ref_nat
        if logp is not None:
            metrics = reference_loglik_metric(ref, n, logp)
            for batch in (counts, ref):
                assert loglik_metric(batch, n, logp).tobytes() == metrics.tobytes()
        assert returned.tobytes() == metrics.tobytes()
        top = -np.sort(-metrics, axis=-1)
        assert best.tobytes() == top[..., 0].tobytes()
        assert second.tobytes() == (top[..., 1] if books.shape[-2] > 1 else np.full(best.shape, -math.inf)).tobytes()


class TestThresholdDecide:
    def test_boundary_is_strict(self):
        assert threshold_decide(0.5, 0.3, 0.2) == 0
        assert threshold_decide(0.5 + 1e-9, 0.3, 0.2) == 1

    def test_large_metric(self):
        assert threshold_decide(1e9, 0.3, 0.2) == 1


class TestAgainstExactAnalyzer:
    def test_literal_mc_matches_exact(self):
        n, rate, delta = 6, math.log(3) / 6, 0.2
        rep = exact_finite_n(n, rate, delta, UNIF, BSC)
        counts = fixed_q_event_counts(UNIF, BSC, n, rate, delta, trials=30000, seed=9)
        t = counts["trials"]
        for key, exact in (
            ("error", rep.p_error),
            ("correct_strict", rep.p_correct_strict),
            ("feedback1", rep.p_feedback1),
        ):
            se = math.sqrt(exact * (1 - exact) / t)
            assert abs(counts[key] / t - exact) <= 5 * se
        # Pinned: any change to the literal decoder's decisions moves these.
        assert counts == {"trials": 30000, "error": 10686, "correct_strict": 19314, "feedback1": 16961}

    def test_virtual_path_matches_exact(self):
        # Force the sampled path by setting the codebook cap below m.
        n, rate, delta = 6, math.log(3) / 6, 0.15
        q = Distribution(np.array([0.6, 0.4]))
        rep = exact_finite_n(n, rate, delta, q, BSC)
        outs = fixed_q_outcomes(q, BSC, n, rate, delta, blocks=20000, seed=4, codebook_cap=1)
        t = len(outs)
        freq_err = sum(not o.correct for o in outs) / t
        freq_f1 = sum(o.correct and o.feedback == 1 for o in outs) / t
        se_err = math.sqrt(rep.p_error * (1 - rep.p_error) / t)
        se_f1 = math.sqrt(rep.p_feedback1 * (1 - rep.p_feedback1) / t)
        assert abs(freq_err - rep.p_error) <= 5 * se_err
        assert abs(freq_f1 - rep.p_feedback1) <= 5 * se_f1

    def test_literal_and_virtual_paths_agree(self):
        # Margin, threshold and threshold with the ML decoder: correct,
        # erasure and feedback frequencies agree within 6 standard errors.
        for p, q, delta, scheme, ml in (
            (BSC, UNIF, 0.1, Scheme.MARGIN, False),
            (P2, Q64, 0.1, Scheme.THRESHOLD, False),
            (P2, Q64, math.inf, Scheme.THRESHOLD, True),
        ):
            lit, vir = _both_paths(p, q, 5, 0.3, delta, 15000, scheme, ml)
            for event in (
                lambda o: o.correct,
                lambda o: o.decoded is None,
                lambda o: o.feedback == 1,
            ):
                f_lit = sum(map(event, lit)) / len(lit)
                f_vir = sum(map(event, vir)) / len(vir)
                pooled = (f_lit + f_vir) / 2
                se = math.sqrt(pooled * (1 - pooled) * (1 / len(lit) + 1 / len(vir)))
                assert abs(f_lit - f_vir) <= 6 * se, (scheme, ml)

    @pytest.mark.parametrize("ml", [False, True], ids=["natural", "ml"])
    def test_erasure_rows_carry_the_sent_metric(self, ml):
        # On an erasure both metric columns hold the sent word's natural
        # metric, on either path, so the simulate CSV does not depend on it.
        n = 5
        for outs in _both_paths(P2, Q64, n, 0.3, math.inf if ml else 0.1, 3000, Scheme.THRESHOLD, ml):
            erasures = [o for o in outs if o.decoded is None]
            assert erasures
            for o in erasures:
                sent = decode_metric(o.joint_type.counts, n, Q64)
                assert o.winner_metric == pytest.approx(sent, abs=1e-12)
                assert o.runner_up_metric == pytest.approx(sent, abs=1e-12)


class TestNtsRun:
    def _config(self, **kw):
        base = dict(
            n=8,
            rate=0.2,
            delta=0.05,
            blocks=30,
            q0=Distribution(np.array([0.7, 0.3])),
            channel_schedule=((0, BSC),),
            seed=11,
        )
        base.update(kw)
        return SimConfig(**base)

    def test_zero_blocks(self):
        res = nts_run(self._config(blocks=0))
        assert res.trace == ()
        assert np.allclose(res.summary.q_final.probs, [0.7, 0.3])

    def test_delta_inf_never_updates(self):
        res = nts_run(self._config(delta=math.inf, blocks=40))
        assert res.summary.updates == 0
        assert np.allclose(res.summary.q_final.probs, [0.7, 0.3])

    def test_updates_stay_in_initial_support(self):
        q0 = Distribution(np.array([0.5, 0.5, 0.0]))
        p = Channel(np.array([[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]]))
        cfg = SimConfig(
            n=10, rate=0.15, delta=0.02, blocks=60, q0=q0,
            channel_schedule=((0, p),), seed=3,
        )
        res = nts_run(cfg)
        for out in res.trace:
            assert out.q_next.probs[2] == 0.0

    @pytest.mark.parametrize("cap", [2**20, 1], ids=["literal", "sampled"])
    def test_kept_winner_counts_own_their_data(self, monkeypatch, cap):
        # nts_run keeps each update's winner counts until the last block, so
        # they must be a (|Y|, |X|) int64 array of their own, not a view that
        # holds a whole block's counts.
        _, updates = record_updates(monkeypatch, self._config(blocks=60, codebook_cap=cap))
        assert updates
        for _, _, counts, _, _ in updates:
            assert counts.flags.owndata and counts.dtype == np.int64 and counts.shape == (2, 2)

    def test_update_uses_winner_marginal_type(self):
        res = nts_run(self._config(blocks=80))
        for out in res.trace:
            if out.feedback == 1 and out.correct:
                marg = out.joint_type.counts.sum(axis=0) / out.joint_type.n
                assert np.allclose(out.q_next.probs, marg, atol=1e-12)

    def test_feedback_requires_margin(self):
        res = nts_run(self._config(blocks=60))
        for out in res.trace:
            if out.feedback == 1:
                assert out.decoded is not None
                assert out.winner_metric - out.runner_up_metric > 0.05

    def test_channel_schedule_switches(self):
        flip = Channel(np.array([[0.1, 0.9], [0.9, 0.1]]))
        cfg = self._config(blocks=10, channel_schedule=((0, BSC), (5, flip)))
        res = nts_run(cfg)
        assert len(res.trace) == 10

    def test_class_tables_follow_the_channel(self, monkeypatch):
        # ML class tables depend on the channel.  With delta = +inf Q never
        # changes, so after the switch at block 20 every sampled block must
        # still read tables built from its own channel's log P.
        first = Channel(np.array([[0.9, 0.1], [0.2, 0.8]]))
        second = Channel(np.array([[0.6, 0.4], [0.05, 0.95]]))
        built, reads, blocks = {}, [], []
        build, block, sample = (
            nts.simulate.competitor_class_table, nts.simulate._virtual_block, nts.simulate._sample_max_class
        )

        def build_spy(r, q, n, logp=None):
            table = build(r, q, n, logp=logp)
            built[id(table)] = (table, logp)
            return table

        def block_spy(q, p, *args):
            blocks.append(p)
            return block(q, p, *args)

        def sample_spy(table, *args, **kwargs):
            reads.append((blocks[-1], built[id(table)][1]))
            return sample(table, *args, **kwargs)

        monkeypatch.setattr(nts.simulate, "competitor_class_table", build_spy)
        monkeypatch.setattr(nts.simulate, "_virtual_block", block_spy)
        monkeypatch.setattr(nts.simulate, "_sample_max_class", sample_spy)
        config = self._config(
            n=6, rate=0.3, delta=math.inf, blocks=40, q0=Distribution(np.array([0.7, 0.3])), seed=1,
            channel_schedule=((0, first), (20, second)), scheme=Scheme.THRESHOLD, codebook_cap=1,
            use_ml_decoder=True,
        )
        nts_run(config)
        assert blocks == [first] * 20 + [second] * 20
        assert {id(p) for p, _ in reads} == {id(first), id(second)}
        for p, logp in reads:
            assert np.array_equal(logp, guarded_log(p.matrix.T, -np.inf))

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            self._config(channel_schedule=((1, BSC),))
        with pytest.raises(ValueError):
            self._config(channel_schedule=((0, BSC), (0, BSC)))

    @pytest.mark.parametrize(
        "field, value",
        [("rate", -0.5), ("rate", math.nan), ("delta", -0.1), ("delta", math.nan), ("n", 0), ("blocks", -1)],
    )
    def test_bad_parameter_refused_before_any_block(self, monkeypatch, field, value):
        monkeypatch.setattr("nts.simulate._block", _no_block)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            nts_run(self._config(**{field: value}))
        with pytest.raises(ValueError, match=f"^{field} must be"):
            fixed_q_outcomes(UNIF, BSC, **{**dict(n=8, rate=0.2, delta=0.05, blocks=1, seed=0), field: value})

    def test_ml_decoder_only_with_threshold(self):
        with pytest.raises(ValueError):
            self._config(use_ml_decoder=True)
        cfg = self._config(scheme=Scheme.THRESHOLD, use_ml_decoder=True, blocks=20)
        res = nts_run(cfg)
        assert len(res.trace) == 20

    def test_threshold_scheme_runs(self):
        res = nts_run(self._config(scheme=Scheme.THRESHOLD, blocks=40))
        for out in res.trace:
            if out.feedback == 1:
                assert out.winner_metric > 0.2 + 0.05

    def test_reproducible(self):
        a = nts_run(self._config(blocks=25))
        b = nts_run(self._config(blocks=25))
        assert [o.feedback for o in a.trace] == [o.feedback for o in b.trace]
        assert np.allclose(a.summary.q_final.probs, b.summary.q_final.probs)


# Literal-path instances of the benchmark's seed-1 ``nts_adapt`` workload:
# the ternary anchor, whose Q collapses to two letters (rho* = -1 within
# r_plus), and a 3x3 and a 3x2 channel whose Q reaches rho* = -1 beyond r_plus.
TERNARY = ([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]], [1 / 3, 1 / 3, 1 / 3], 15, 0.5991464547107982,
           0.06252035976861893, 1592511952)
RAND_3X3 = (
    [[0.8067110453198669, 0.04543034115010198, 0.14785861353003105],
     [0.09681061710139759, 0.8269527108802922, 0.0762366720183102],
     [0.0578888084490187, 0.09942087100122399, 0.8426903205497573]],
    [0.4508594729764526, 0.20226251683818086, 0.3468780101853665], 14, 0.6468706922963517, 0.06948996687089393,
    2105350519,
)
RAND_3X2 = (
    [[0.8463398354804845, 0.15366016451951547], [0.4714891459166698, 0.5285108540833301],
     [0.04681930585210127, 0.9531806941478986]],
    [0.36465235401244683, 0.23601635138671148, 0.3993312946008418], 12, 0.7675283643313486, 0.06406315163139581,
    1215963124,
)


class TestUpdateStats:
    """``nts_run`` solves its update statistics after the last block, each
    distinct (Q, channel) once; they equal the per-Q solves exactly."""

    def _check(self, monkeypatch, config):
        result, updates = record_updates(monkeypatch, config)
        expected, regimes = reference_update_stats(updates, config)
        assert result.summary.update_stats == expected
        assert result.summary.updates == len(expected)
        return result, regimes, updates

    @staticmethod
    def _literal(case, blocks=50):
        rows, q0, n, rate, delta, seed = case
        return SimConfig(
            n=n, rate=rate, delta=delta, blocks=blocks, q0=Distribution(np.array(q0)),
            channel_schedule=((0, Channel(np.array(rows))),), seed=seed,
        )

    def test_readme_run_interior_and_rho_zero(self, monkeypatch):
        config = SimConfig(
            n=200, rate=0.25, delta=0.05, blocks=200, q0=Distribution(np.array([0.9, 0.1])),
            channel_schedule=((0, Channel.bsc(0.05)),), seed=1,
        )
        _, regimes, _ = self._check(monkeypatch, config)
        assert {"interior", "rho_zero"} <= regimes

    def test_strict_minimizer_by_bisection(self, monkeypatch):
        _, regimes, updates = self._check(monkeypatch, self._literal(TERNARY))
        assert "minus_one_bisected" in regimes
        assert any(np.count_nonzero(q.probs) == 2 for *_, q, _ in updates)

    @pytest.mark.parametrize("case", [RAND_3X3, RAND_3X2], ids=["3x3", "3x2"])
    def test_ml_fallback_beyond_r_plus(self, monkeypatch, case):
        _, regimes, _ = self._check(monkeypatch, self._literal(case))
        assert "rho_minus_one_beyond_r_plus" in regimes

    @pytest.mark.parametrize("case", [TERNARY, RAND_3X3, RAND_3X2], ids=["ternary", "3x3", "3x2"])
    def test_minus_one_rows_build_one_family_each(self, monkeypatch, case):
        # No scalar correct-decoding exponent: each distinct rho* = -1 row
        # builds its family once and takes the member from it.
        families = []

        def family(q, p):
            families.append((q.probs.tobytes(), id(p)))
            return minus_one_family(q, p)

        def scalar_exponent(*args):
            raise AssertionError("the update statistics called a scalar exponent")

        monkeypatch.setattr(nts.simulate, "minus_one_family", family)
        for name in ("correct_exponent_strict", "correct_exponent_ml"):
            monkeypatch.setattr(nts.exponents, name, scalar_exponent)
            monkeypatch.setattr(nts.simulate, name, scalar_exponent, raising=False)
        config = self._literal(case)
        *_, updates = self._check(monkeypatch, config)
        rate_plus = config.rate + config.delta
        minus_one = {
            (q.probs.tobytes(), id(p))
            for *_, q, p in updates
            if correct_exponent_ml_sweep(rate_plus, q, p).boundary[0] is Boundary.RHO_MINUS_ONE
        }
        assert minus_one
        assert sorted(families) == sorted(minus_one)

    @pytest.mark.parametrize("where, regime", [(0.5, "minus_one_bisected"), (1.05, "rho_minus_one_beyond_r_plus")])
    def test_minus_one_member_on_a_wide_family(self, where, regime):
        # Two equal rows give r_minus < r_plus, so the member at R + delta and
        # the ML minimizer T_-1 o v_minus differ.
        p = Channel(np.array([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9]]))
        q = Distribution(np.array([0.25, 0.25, 0.5]))
        fam = minus_one_family(q, p)
        rate = fam.r_minus + where * (fam.r_plus - fam.r_minus)
        config = SimConfig(n=4, rate=rate - 0.05, delta=0.05, blocks=1, q0=q, channel_schedule=((0, p),), seed=0)
        updates = [(0, False, np.array([[1, 1, 0], [0, 0, 2]]), q, p)]
        expected, regimes = reference_update_stats(updates, config)
        assert regimes == {regime}
        assert nts.simulate._update_stats(updates, config) == expected

    def test_same_q_under_two_channels(self, monkeypatch):
        a, b = Channel.bsc(0.1), Channel.bsc(0.2)
        config = SimConfig(
            n=8, rate=0.2, delta=0.05, blocks=60, q0=Distribution(np.array([0.7, 0.3])),
            channel_schedule=tuple((k, (a, b)[(k // 5) % 2]) for k in range(0, 60, 5)), seed=0,
        )
        *_, updates = self._check(monkeypatch, config)
        channels = {}
        for *_, q, p in updates:
            channels.setdefault(q.probs.tobytes(), set()).add(id(p))
        assert any(len(ids) == 2 for ids in channels.values())

    @pytest.mark.parametrize("blocks, delta", [(0, 0.05), (40, 50.0)])
    def test_no_update_gives_an_empty_tuple(self, monkeypatch, blocks, delta):
        config = SimConfig(
            n=8, rate=0.2, delta=delta, blocks=blocks, q0=Distribution(np.array([0.7, 0.3])),
            channel_schedule=((0, BSC),), seed=11,
        )
        result, _, _ = self._check(monkeypatch, config)
        assert result.summary.update_stats == ()
        assert result.summary.updates == 0


class TestFixedQOutcomes:
    def test_parameters_checked_as_sim_config(self):
        for n, delta, field in ((0, 0.1, "n"), (5, -0.1, "delta")):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                fixed_q_outcomes(UNIF, BSC, n, 0.3, delta, blocks=1, seed=0)
            with pytest.raises(ValueError, match=f"^{field} must be"):
                fixed_q_event_counts(UNIF, BSC, n, 0.3, delta, trials=1, seed=0)


class TestThresholdScheme:
    def test_feedback_frequency_decays_with_blocklength(self):
        # At a rate+delta above I(QoP) the threshold event is exponentially
        # rare, so its frequency should drop as n grows.
        q = Distribution(np.array([0.6, 0.4]))
        rate, delta = 0.45, 0.2
        freqs = []
        for n, seed in ((4, 1), (10, 2)):
            outs = fixed_q_outcomes(q, BSC, n, rate, delta, blocks=4000, seed=seed, scheme=Scheme.THRESHOLD)
            freqs.append(sum(o.feedback for o in outs) / len(outs))
        assert freqs[1] < freqs[0]


class TestEstimateExponent:
    def test_exact_exponential(self):
        samples = [(n, math.exp(-0.2 * n)) for n in (10, 20, 30)]
        fit = estimate_exponent(samples)
        assert fit.slope == pytest.approx(0.2, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-12)

    def test_constant_frequency(self):
        fit = estimate_exponent([(10, 1.0), (20, 1.0), (30, 1.0)])
        assert fit.slope == 0.0

    def test_censoring_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = estimate_exponent([(10, 0.5), (20, 0.25), (30, 0.125), (40, 0.0)])
            assert any("censored" in str(w.message) for w in caught)
        assert fit.censored == (40,)

    def test_too_few_blocklengths(self):
        with pytest.raises(ValueError):
            estimate_exponent([(10, 0.5), (20, 0.25)])

    def test_frequency_domain(self):
        with pytest.raises(ValueError):
            estimate_exponent([(10, 0.5), (20, 1.5), (30, 0.2)])
