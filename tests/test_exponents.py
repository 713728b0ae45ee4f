import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nts.itcore import Channel, Distribution, JointDistribution, kl_masses, mutual_information
from nts.exponents import (
    Boundary,
    StrictDomainReport,
    _kernel_inputs,
    _tilted,
    capacity,
    correct_exponent_ml,
    correct_exponent_strict,
    e0,
    error_exponent,
    minus_one_family,
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
