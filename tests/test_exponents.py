import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import nts.exponents

from nts.itcore import Channel, Distribution, JointDistribution, kl_masses, mutual_information
from nts.exponents import (
    _RHO_EDGE,
    Boundary,
    StrictDomainReport,
    _kernel_inputs,
    _tilted,
    capacity,
    correct_exponent_ml,
    correct_exponent_ml_sweep,
    correct_exponent_strict,
    e0,
    error_exponent,
    error_exponent_sweep,
    minus_one_family,
    minus_one_member,
    tilted_joint,
)

BSC = Channel.bsc(0.1)
UNIF = Distribution.uniform(2)

# 3-input example with a two-letter argmax set on the first output.
WIDE = Channel(np.array([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9]]))
WIDE_Q = Distribution(np.array([0.25, 0.25, 0.5]))


def random_instance(rng, max_size=3):
    nx = int(rng.integers(2, max_size + 1))
    ny = int(rng.integers(2, max_size + 1))
    p = Channel(rng.dirichlet(np.ones(ny), size=nx))
    q = Distribution(rng.dirichlet(np.ones(nx)))
    return q, p


class TestE0:
    def test_zero_at_rho_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q, p = random_instance(rng)
            assert abs(e0(0.0, q, p)) <= 1e-12

    def test_bsc_cutoff_rate(self):
        expected = math.log(2 / (1 + 2 * math.sqrt(0.09)))
        assert e0(1.0, UNIF, BSC) == pytest.approx(expected, abs=1e-12)
        assert e0(1.0, UNIF, BSC) == pytest.approx(0.223144, abs=1e-6)

    def test_bsc_minus_one(self):
        assert e0(-1.0, UNIF, BSC) == pytest.approx(-math.log(1.8), abs=1e-12)
        assert e0(-1.0, UNIF, BSC) == pytest.approx(-0.587787, abs=1e-6)

    def test_rho_below_minus_one_rejected(self):
        with pytest.raises(ValueError):
            e0(-1.5, UNIF, BSC)

    def test_concavity_in_rho(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            q, p = random_instance(rng)
            r1, r3 = sorted(rng.uniform(-0.95, 2.0, size=2))
            r2 = 0.5 * (r1 + r3)
            chord = 0.5 * (e0(r1, q, p) + e0(r3, q, p))
            assert e0(r2, q, p) >= chord - 1e-10


class TestTiltedJoint:
    def test_rho_zero_is_source_channel_joint(self):
        sol = tilted_joint(0.0, UNIF, BSC)
        qp = UNIF.probs[None, :] * BSC.matrix.T
        assert np.allclose(sol.joint.mass, qp, atol=1e-14)

    def test_rho_zero_slope_is_mutual_information(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            q, p = random_instance(rng)
            sol = tilted_joint(0.0, q, p)
            j = JointDistribution(q.probs[None, :] * p.matrix.T)
            assert sol.slope == pytest.approx(mutual_information(j), abs=1e-12)

    def test_slope_matches_finite_difference(self):
        h = 1e-5
        rng = np.random.default_rng(8)
        for _ in range(10):
            q, p = random_instance(rng)
            rho = float(rng.uniform(-0.95, 1.5))
            fd = (e0(rho + h, q, p) - e0(rho - h, q, p)) / (2 * h)
            assert tilted_joint(rho, q, p).slope == pytest.approx(fd, abs=1e-5)

    def test_slope_nonincreasing_in_rho(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            q, p = random_instance(rng)
            rhos = np.linspace(-0.9, 1.5, 13)
            slopes = [tilted_joint(r, q, p).slope for r in rhos]
            assert all(a >= b - 1e-9 for a, b in zip(slopes, slopes[1:]))

    def test_conditional_proportionality(self):
        rng = np.random.default_rng(10)
        q, p = random_instance(rng)
        rho = 0.4
        sol = tilted_joint(rho, q, p)
        v = sol.joint.cond_x_given_y
        t = sol.joint.marginal_y
        raw = q.probs[None, :] * np.where(p.matrix.T > 0, p.matrix.T ** (1 / (1 + rho)), 0.0)
        for y in np.flatnonzero(t > 0):
            assert np.allclose(v[y], raw[y] / raw[y].sum(), atol=1e-9)

    def test_rejects_rho_at_or_below_minus_one(self):
        with pytest.raises(ValueError):
            tilted_joint(-1.0, UNIF, BSC)


class TestMinusOneFamily:
    def test_identity_channel(self):
        fam = minus_one_family(UNIF, Channel(np.eye(2)))
        assert np.allclose(fam.t_minus1.probs, [0.5, 0.5])
        assert fam.r_minus == pytest.approx(math.log(2), abs=1e-12)
        assert fam.r_plus == pytest.approx(math.log(2), abs=1e-12)

    def test_two_letter_argmax_example(self):
        fam = minus_one_family(WIDE_Q, WIDE)
        assert np.allclose(fam.t_minus1.probs, [0.5, 0.5])
        assert list(fam.argmax_sets[0]) == [0, 1]
        assert list(fam.argmax_sets[1]) == [2]
        assert fam.r_minus == pytest.approx(math.log(2), abs=1e-12)
        assert fam.r_plus == pytest.approx(1.5 * math.log(2), abs=1e-12)
        assert fam.r_plus == pytest.approx(1.039721, abs=1e-6)

    def test_family_rows_inside_argmax_sets(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            q, p = random_instance(rng)
            fam = minus_one_family(q, p)
            for y, members in enumerate(fam.argmax_sets):
                if fam.t_minus1.probs[y] == 0:
                    continue
                outside = np.setdiff1d(np.arange(p.num_inputs), members)
                assert np.all(fam.v_minus[y, outside] == 0)
                assert np.all(fam.v_plus[y, outside] == 0)

    def test_e0_minus1_plus_capacity_nonpositive(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            q, p = random_instance(rng)
            fam = minus_one_family(q, p)
            cap = capacity(p, list(q.support))
            assert fam.e0_minus1 + cap <= 1e-9


class TestErrorExponent:
    def test_zero_at_and_above_mutual_information(self):
        i0 = tilted_joint(0.0, UNIF, BSC).slope
        res = error_exponent(i0, UNIF, BSC)
        assert res.value == 0.0 and res.rho_star == 0.0
        assert res.boundary_flag is Boundary.RHO_ZERO
        assert error_exponent(i0 + 0.1, UNIF, BSC).value == 0.0

    def test_rate_zero_gives_e0_at_one(self):
        res = error_exponent(0.0, UNIF, BSC)
        assert res.rho_star == 1.0
        assert res.value == pytest.approx(e0(1.0, UNIF, BSC), abs=1e-12)
        assert res.value == pytest.approx(0.223144, abs=1e-6)

    def test_value_identity(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            q, p = random_instance(rng)
            i0 = tilted_joint(0.0, q, p).slope
            rate = float(rng.uniform(0.2, 0.9)) * i0
            res = error_exponent(rate, q, p)
            assert res.value == pytest.approx(e0(res.rho_star, q, p) - res.rho_star * rate, abs=1e-9)

    def test_minimizer_reproduces_value_in_implicit_objective(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            q, p = random_instance(rng)
            i0 = tilted_joint(0.0, q, p).slope
            rate = float(rng.uniform(0.3, 0.95)) * i0
            res = error_exponent(rate, q, p)
            if res.boundary_flag is not Boundary.INTERIOR:
                continue
            qp = q.probs[None, :] * p.matrix.T
            d = kl_masses(res.minimizer.mass, qp)
            metric = kl_masses(res.minimizer.mass, np.outer(res.minimizer.marginal_y, q.probs))
            assert d + max(metric - rate, 0.0) == pytest.approx(res.value, abs=1e-8)


class TestCorrectExponents:
    def test_zero_at_and_below_mutual_information(self):
        i0 = tilted_joint(0.0, UNIF, BSC).slope
        assert correct_exponent_ml(i0, UNIF, BSC).value == 0.0
        assert correct_exponent_ml(0.5 * i0, UNIF, BSC).value == 0.0
        assert correct_exponent_strict(0.5 * i0, UNIF, BSC).value == 0.0

    def test_both_exponents_zero_exactly_at_mutual_information(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            q, p = random_instance(rng)
            i0 = tilted_joint(0.0, q, p).slope
            assert error_exponent(i0, q, p).value == 0.0
            assert correct_exponent_ml(i0, q, p).value == 0.0

    def test_identity_channel_rate_one(self):
        res = correct_exponent_ml(1.0, UNIF, Channel(np.eye(2)))
        assert res.value == pytest.approx(1.0 - math.log(2), abs=1e-12)
        assert res.value == pytest.approx(0.306853, abs=1e-6)
        assert res.rho_star == -1.0
        assert res.boundary_flag is Boundary.RHO_MINUS_ONE

    def test_ml_linear_above_r_minus(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            q, p = random_instance(rng)
            fam = minus_one_family(q, p)
            rate = fam.r_minus * float(rng.uniform(1.05, 1.8)) + 0.05
            res = correct_exponent_ml(rate, q, p)
            assert res.value == pytest.approx(fam.e0_minus1 + rate, abs=1e-10)

    def test_strict_matches_ml_below_r_plus(self):
        rng = np.random.default_rng(18)
        for _ in range(12):
            q, p = random_instance(rng)
            fam = minus_one_family(q, p)
            rate = float(rng.uniform(0.05, 0.98)) * fam.r_plus
            strict = correct_exponent_strict(rate, q, p)
            assert not isinstance(strict, StrictDomainReport)
            assert strict.value == pytest.approx(correct_exponent_ml(rate, q, p).value, abs=1e-10)

    def test_strict_minimizer_divergence_equals_rate(self):
        fam = minus_one_family(WIDE_Q, WIDE)
        rate = 0.5 * (fam.r_minus + fam.r_plus)
        res = correct_exponent_strict(rate, WIDE_Q, WIDE)
        d = kl_masses(res.minimizer.mass, np.outer(res.minimizer.marginal_y, WIDE_Q.probs))
        assert d == pytest.approx(rate, abs=1e-8)

    def test_strict_domain_report_above_r_plus(self):
        fam = minus_one_family(WIDE_Q, WIDE)
        res = correct_exponent_strict(fam.r_plus * 1.05, WIDE_Q, WIDE)
        assert isinstance(res, StrictDomainReport)
        assert res.r_plus == pytest.approx(fam.r_plus)


BAD_RATES = pytest.mark.parametrize("rate", [-0.1, math.nan], ids=["negative", "nan"])


class TestBadRateRefused:
    """A negative or NaN rate raises a ValueError that names the rate,
    instead of returning a value computed from it."""

    @BAD_RATES
    def test_error_exponent(self, rate):
        with pytest.raises(ValueError, match="^rate must be non-negative"):
            error_exponent(rate, UNIF, BSC)

    @BAD_RATES
    def test_correct_exponent_ml(self, rate):
        with pytest.raises(ValueError, match="^rate must be non-negative"):
            correct_exponent_ml(rate, UNIF, BSC)

    @BAD_RATES
    def test_correct_exponent_strict(self, rate):
        with pytest.raises(ValueError, match="^rate must be non-negative"):
            correct_exponent_strict(rate, UNIF, BSC)

    @BAD_RATES
    def test_error_exponent_sweep(self, rate):
        with pytest.raises(ValueError, match="^rate must be non-negative"):
            error_exponent_sweep([0.1, rate], UNIF, BSC)

    @BAD_RATES
    def test_correct_exponent_ml_sweep(self, rate):
        with pytest.raises(ValueError, match="^rate must be non-negative"):
            correct_exponent_ml_sweep([0.1, rate], UNIF, BSC)


class TestCapacity:
    def test_identity(self):
        assert capacity(Channel(np.eye(2))) == pytest.approx(math.log(2), abs=1e-9)

    def test_bsc(self):
        hb = -0.1 * math.log(0.1) - 0.9 * math.log(0.9)
        assert capacity(BSC) == pytest.approx(math.log(2) - hb, abs=1e-8)
        assert capacity(BSC) == pytest.approx(0.368064, abs=1e-6)

    def test_identical_rows(self):
        p = Channel(np.array([[0.3, 0.7], [0.3, 0.7]]))
        assert capacity(p) == pytest.approx(0.0, abs=1e-12)

    def test_singleton_support(self):
        assert capacity(BSC, [1]) == 0.0

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            capacity(BSC, [])


# ---------------------------------------------------------------------------
# properties of the batched tilted kernel
# ---------------------------------------------------------------------------


def _weights(size):
    # Integer weights give exact zeros and no near-degenerate entries.
    return st.lists(st.integers(0, 20), min_size=size, max_size=size).filter(any)


@st.composite
def channel_and_q(draw):
    nx, ny = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    rows = np.array([draw(_weights(ny)) for _ in range(nx)], dtype=float)
    q = np.array(draw(_weights(nx)), dtype=float)
    return Distribution(q / q.sum()), Channel(rows / rows.sum(axis=1, keepdims=True))


RHO_GRID = np.linspace(-0.95, 1.0, 40)


class TestBatchedKernel:
    @settings(max_examples=60, deadline=None)
    @given(channel_and_q())
    def test_e0_concave_and_slope_nonincreasing(self, qp):
        q, p = qp
        e0s, slopes, _, _ = _tilted(RHO_GRID, *_kernel_inputs(q, p))
        assert np.all(e0s[:-2] - 2 * e0s[1:-1] + e0s[2:] <= 1e-10)
        assert np.all(np.diff(slopes) <= 1e-10)

    @settings(max_examples=60, deadline=None)
    @given(channel_and_q())
    def test_rho_zero_gives_zero_and_mutual_information(self, qp):
        q, p = qp
        e0s, slopes, _, _ = _tilted(np.array([0.0]), *_kernel_inputs(q, p))
        info = mutual_information(JointDistribution(q.probs[None, :] * p.matrix.T))
        assert abs(e0s[0]) <= 1e-10
        assert abs(slopes[0] - info) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(channel_and_q(), st.lists(st.floats(-0.999, 2.0), min_size=1, max_size=8))
    def test_batch_matches_scalar_wrappers(self, qp, rhos):
        q, p = qp
        e0s, slopes, _, _ = _tilted(np.array(rhos), *_kernel_inputs(q, p))
        for rho, value, slope in zip(rhos, e0s, slopes):
            sol = tilted_joint(rho, q, p)
            assert abs(value - e0(rho, q, p)) <= 1e-12
            assert abs(value - sol.e0) <= 1e-12
            assert abs(slope - sol.slope) <= 1e-12


class TestExponentProperties:
    @settings(max_examples=60, deadline=None)
    @given(channel_and_q(), st.floats(0.0, 2.0))
    def test_exponents_are_nonnegative(self, qp, rate):
        q, p = qp
        assert error_exponent(rate, q, p).value >= 0.0
        assert correct_exponent_ml(rate, q, p).value >= 0.0
        strict = correct_exponent_strict(rate, q, p)
        if not isinstance(strict, StrictDomainReport):
            assert strict.value >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(channel_and_q(), st.lists(st.floats(0.0, 2.0), min_size=2, max_size=6))
    def test_monotone_in_rate(self, qp, rates):
        # Error exponent non-increasing and ML correct exponent
        # non-decreasing in R.
        q, p = qp
        rates = sorted(rates)
        errors = [error_exponent(rate, q, p).value for rate in rates]
        corrects = [correct_exponent_ml(rate, q, p).value for rate in rates]
        assert all(b <= a for a, b in zip(errors, errors[1:]))
        assert all(b >= a for a, b in zip(corrects, corrects[1:]))


# ---------------------------------------------------------------------------
# the batched sweep: one (rate, Q row) pair per element
# ---------------------------------------------------------------------------

# Where a rate sits against the slopes s(0) and s(edge) of its Q row: beyond
# s(0) (rho* = 0), beyond s(edge) (rho* at the edge), between them
# (bisected), or exactly on one of the two.
REGIMES = ("zero", "edge", "interior", "at_zero", "at_edge")


def _regime_rate(regime: str, u: float, s_zero: float, s_edge: float) -> float:
    at = {"zero": s_zero + (s_zero - s_edge) * u, "edge": s_edge - (s_zero - s_edge) * u,
          "interior": s_edge + (s_zero - s_edge) * u, "at_zero": s_zero, "at_edge": s_edge}
    return max(at[regime], 0.0)


@st.composite
def rows_with_rates(draw):
    """A 2-4 input channel with zero entries, Q rows of mixed supports, and
    for each row a draw (regime, u) of where its rate sits."""
    nx, ny = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    rows = np.array([draw(_weights(ny)) for _ in range(nx)], dtype=float)
    qs = []
    for _ in range(draw(st.integers(2, 8))):
        support = draw(st.lists(st.booleans(), min_size=nx, max_size=nx).filter(any))
        weights = np.array(draw(st.lists(st.integers(1, 20), min_size=nx, max_size=nx)), dtype=float) * support
        qs.append(Distribution(weights / weights.sum()))
    draws = [(draw(st.sampled_from(REGIMES)), draw(st.floats(0.0, 1.0))) for _ in qs]
    return qs, Channel(rows / rows.sum(axis=1, keepdims=True)), draws


class TestBatchedSweep:
    @settings(max_examples=80, deadline=None)
    @given(rows_with_rates())
    def test_each_element_equals_its_single_q_sweep(self, case):
        qs, p, draws = case
        rows = np.array([q.probs for q in qs])
        for sweep, edge_rho in ((error_exponent_sweep, 1.0), (correct_exponent_ml_sweep, -1.0 + _RHO_EDGE)):
            rates = []
            for q, (regime, u) in zip(qs, draws):
                _, slopes, _, _ = _tilted(np.array([0.0, edge_rho]), *_kernel_inputs(q, p))
                rates.append(_regime_rate(regime, u, *slopes.tolist()))
            batch = sweep(rates, rows, p)
            for b, (q, rate) in enumerate(zip(qs, rates)):
                single = sweep([rate], q, p)
                assert batch.value[b] == single.value[0]
                assert batch.rho_star[b] == single.rho_star[0]
                assert batch.boundary[b] is single.boundary[0]

    def test_regimes_are_all_drawn(self):
        # Both edges and rho* = 0 and interior rates, on one batch of rows of
        # different supports, as the property test draws them.
        qs = [Distribution(np.array(w, dtype=float) / sum(w)) for w in ([1, 1, 1], [3, 0, 1], [0, 2, 5])]
        p = Channel(np.array([[0.7, 0.3, 0.0], [0.1, 0.6, 0.3], [0.0, 0.2, 0.8]]))
        rows = np.array([q.probs for q in qs])
        for sweep, edge_rho, edge_flag in (
            (error_exponent_sweep, 1.0, Boundary.RHO_ONE),
            (correct_exponent_ml_sweep, -1.0 + _RHO_EDGE, Boundary.RHO_MINUS_ONE),
        ):
            flags = set()
            for regime in REGIMES:
                rates = [
                    _regime_rate(regime, 0.5, *_tilted(np.array([0.0, edge_rho]), *_kernel_inputs(q, p))[1].tolist())
                    for q in qs
                ]
                flags |= set(sweep(rates, rows, p).boundary)
            assert flags == {Boundary.INTERIOR, Boundary.RHO_ZERO, edge_flag}

    def test_empty_batch(self):
        for sweep in (error_exponent_sweep, correct_exponent_ml_sweep):
            for rates, q in (([], UNIF), (0.2, np.zeros((0, 2)))):
                out = sweep(rates, q, BSC)
                assert (out.value.shape, out.rho_star.shape, out.boundary) == ((0,), (0,), ())


def _member_by_200_halvings(fam, q, rate):
    """Reference for ``minus_one_member``: the lambda bisection with 200
    halvings at most, stopping only on a bracket narrower than 1e-16, which
    cannot happen for lambda >= 0.5."""
    t = fam.t_minus1.probs
    tq = np.outer(t, q.probs)

    def gap(lam):
        v = (1 - lam) * fam.v_minus + lam * fam.v_plus
        return kl_masses(t[:, None] * v, tq) - rate

    lo, hi = 0.0, 1.0
    if gap(0.0) >= 0:
        lam = 0.0
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gap(mid) < 0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-16:
                break
        lam = 0.5 * (lo + hi)
    return JointDistribution.from_t_v(t, (1 - lam) * fam.v_minus + lam * fam.v_plus)


@st.composite
def family_and_rate(draw):
    """A 2-5 input channel whose first two rows are equal (as in WIDE), a Q
    with mass on both, and a rate between r_minus and r_plus, either end
    included."""
    nx, ny = draw(st.integers(2, 5)), draw(st.integers(2, 4))
    rows = [draw(_weights(ny)) for _ in range(nx - 1)]
    rows = np.array([rows[0]] + rows, dtype=float)
    weights = [draw(st.integers(1, 20)) for _ in range(2)] + [draw(st.integers(0, 20)) for _ in range(nx - 2)]
    q = Distribution(np.array(weights, dtype=float) / sum(weights))
    u = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    return q, Channel(rows / rows.sum(axis=1, keepdims=True)), u


class TestMinusOneMember:
    @settings(max_examples=150, deadline=None)
    @given(family_and_rate())
    def test_equals_the_200_halving_bisection_in_few_steps(self, case):
        q, p, u = case
        fam = minus_one_family(q, p)
        assume(fam.r_minus < fam.r_plus)
        rate = min(fam.r_minus + u * (fam.r_plus - fam.r_minus), fam.r_plus)
        with mock.patch.object(nts.exponents, "kl_masses", wraps=kl_masses) as gap_calls:
            member = minus_one_member(fam, q, rate)
        assert np.array_equal(member.mass, _member_by_200_halvings(fam, q, rate).mass)
        assert gap_calls.call_count <= 60

    def test_the_bisection_reaches_lambda_above_one_half(self):
        # The stall stop matters where lambda >= 0.5: there the bracket never
        # gets narrower than 1e-16.
        fam = minus_one_family(WIDE_Q, WIDE)
        rate = fam.r_minus + 0.9 * (fam.r_plus - fam.r_minus)
        with mock.patch.object(nts.exponents, "kl_masses", wraps=kl_masses) as gap_calls:
            member = minus_one_member(fam, WIDE_Q, rate)
        assert np.array_equal(member.mass, _member_by_200_halvings(fam, WIDE_Q, rate).mass)
        (m0, m1, _), _ = member.mass  # output 0: v = ((1 + lam) / 2, (1 - lam) / 2, 0)
        assert (m0 - m1) / (m0 + m1) > 0.5
        assert gap_calls.call_count <= 60
