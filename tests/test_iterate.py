import math

import numpy as np
import pytest

from nts.itcore import Channel, Distribution, JointDistribution, mutual_information
from nts.exponents import capacity, e0, tilted_joint
from nts.iterate import (
    check_lower_than,
    fixed_rate_run,
    fixed_rate_step,
    fixed_slope_run,
    fixed_slope_step,
    stationarity_residual,
)

BSC = Channel.bsc(0.1)
UNIF = Distribution.uniform(2)
ASYM = Channel(np.array([[0.7, 0.3, 0.0], [0.0, 0.35, 0.65]]))


def random_instance(rng, max_size=3):
    nx = int(rng.integers(2, max_size + 1))
    ny = int(rng.integers(2, max_size + 1))
    p = Channel(rng.dirichlet(np.ones(ny), size=nx))
    q = Distribution(rng.dirichlet(np.ones(nx)))
    return q, p


class TestFixedRateStep:
    def test_fixed_point_below_mutual_information(self):
        rec = fixed_rate_step(UNIF, 0.2, BSC)
        assert rec.rho_hat == 0.0
        assert np.allclose(rec.q_after.probs, UNIF.probs, atol=1e-14)
        assert rec.exponent_before == 0.0

    def test_identity_channel_strictly_decreases(self):
        q = Distribution(np.array([0.9, 0.1]))
        rec = fixed_rate_step(q, 0.5, Channel(np.eye(2)))
        assert -1.0 < rec.rho_hat < 0.0
        assert rec.exponent_after < rec.exponent_before

    def test_monotone_with_certificate(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            q, p = random_instance(rng)
            i0 = tilted_joint(0.0, q, p).slope
            rate = float(rng.uniform(1.02, 2.5)) * max(i0, 1e-3)
            rec = fixed_rate_step(q, rate, p)
            assert rec.exponent_after <= rec.exponent_before + 1e-10
            assert rec.exponent_before - rec.exponent_after >= rec.guaranteed_decrease - 1e-8
            assert set(rec.q_after.support) <= set(q.support)

    def test_q_after_is_minimizer_marginal(self):
        q = Distribution(np.array([0.6, 0.4]))
        rec = fixed_rate_step(q, 0.5, BSC)
        assert np.allclose(rec.q_after.probs, rec.minimizer.marginal_x, atol=1e-12)


class TestFixedRateRun:
    @pytest.mark.parametrize(
        "q0, rate, p",
        [
            ((0.95, 0.05), 0.3, BSC),
            ((0.5, 0.3, 0.2), 0.9, Channel(np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]))),
            ((0.6, 0.4), 0.8, ASYM),
        ],
    )
    def test_records_equal_two_solve_steps(self, q0, rate, p):
        # The run reuses each step's "after" solve as the next "before"; the
        # records must equal those of steps that solve both themselves.
        run = fixed_rate_run(Distribution(np.array(q0)), rate, p, max_iter=40)
        q = run.records[0].q_before
        for rec in run.records:
            ref = fixed_rate_step(q, rate, p)
            assert np.array_equal(rec.q_before.probs, ref.q_before.probs)
            assert np.array_equal(rec.q_after.probs, ref.q_after.probs)
            assert np.array_equal(rec.minimizer.mass, ref.minimizer.mass)
            assert (rec.rho_hat, rec.exponent_before, rec.exponent_after, rec.guaranteed_decrease) == (
                ref.rho_hat,
                ref.exponent_before,
                ref.exponent_after,
                ref.guaranteed_decrease,
            )
            after, ref_after = rec.result_after, ref.result_after
            assert (after.value, after.rho_star, after.boundary_flag) == (
                ref_after.value,
                ref_after.rho_star,
                ref_after.boundary_flag,
            )
            assert np.array_equal(after.minimizer.mass, ref_after.minimizer.mass)
            q = ref.q_after
        assert len(run.records) >= 2

    def test_single_step_when_rate_below_i(self):
        run = fixed_rate_run(UNIF, 0.2, BSC)
        assert len(run.records) == 1
        assert run.final_exponent == 0.0
        assert run.reached_zero

    def test_bsc_converges_to_zero_with_rate_matching(self):
        run = fixed_rate_run(Distribution(np.array([0.95, 0.05])), 0.3, BSC, tol=1e-10, max_iter=5000)
        assert run.final_exponent < 1e-6
        j = JointDistribution(run.final_q.probs[None, :] * BSC.matrix.T)
        assert mutual_information(j) >= 0.3 - 1e-4

    def test_e0_minus1_plus_capacity_nonpositive_along_run(self):
        run = fixed_rate_run(Distribution(np.array([0.8, 0.2])), 0.5, BSC, tol=1e-9, max_iter=50)
        for rec in run.records[:10]:
            q = rec.q_before
            assert e0(-1.0, q, BSC) + capacity(BSC, list(q.support)) <= 1e-9

    def test_support_never_grows(self):
        rng = np.random.default_rng(22)
        q, p = random_instance(rng)
        run = fixed_rate_run(q, 1.0, p, tol=1e-9, max_iter=60)
        supports = [set(rec.q_before.support) for rec in run.records]
        supports.append(set(run.final_q.support))
        for a, b in zip(supports, supports[1:]):
            assert b <= a


class TestCheckLowerThan:
    def test_capacity_achieving_q_holds(self):
        rep = check_lower_than(UNIF, 0.3, BSC)
        assert rep.holds and rep.lhs == 0.0 and rep.rhs > 0

    def test_rate_zero_always_holds(self):
        rep = check_lower_than(Distribution(np.array([0.9, 0.1])), 0.0, BSC)
        assert rep.rhs == math.inf and rep.holds

    def test_identity_example(self):
        rep = check_lower_than(UNIF, 0.3, Channel(np.eye(2)))
        assert rep.holds
        assert rep.lhs == 0.0
        assert rep.rhs == pytest.approx(0.3, abs=1e-8)


class TestFixedSlope:
    def test_stationary_point_is_fixed(self):
        rec = fixed_slope_step(UNIF, -0.5, BSC)
        assert np.allclose(rec.q_after.probs, UNIF.probs, atol=1e-10)

    def test_symmetry_preserved(self):
        rec = fixed_slope_step(UNIF, -0.3, BSC)
        assert rec.q_after.probs[0] == pytest.approx(0.5, abs=1e-12)

    def test_objective_ordering_each_step(self):
        q = Distribution(np.array([0.9, 0.1]))
        prev = math.inf
        for rec in fixed_slope_run(q, -0.5, ASYM, tol=1e-12).records:
            assert rec.objective_mid <= prev + 1e-12
            assert rec.objective_after <= rec.objective_mid + 1e-12
            prev = rec.objective_after

    def test_rho_domain(self):
        with pytest.raises(ValueError):
            fixed_slope_step(UNIF, 0.0, BSC)
        with pytest.raises(ValueError):
            fixed_slope_step(UNIF, -1.0, BSC)

    def test_terminal_matches_grid_minimum(self):
        for rho in (-0.8, -0.5, -0.2):
            run = fixed_slope_run(UNIF, rho, ASYM, tol=1e-13)
            grid = np.linspace(0.0, 1.0, 2001)
            gm = min(e0(rho, Distribution(np.array([t, 1 - t])), ASYM) for t in grid)
            assert run.final_objective <= gm + 1e-3
            assert run.stationarity < 1e-8

    def test_terminal_below_random_q_values(self):
        rho = -0.4
        run = fixed_slope_run(Distribution(np.array([0.3, 0.7])), rho, ASYM, tol=1e-13)
        rng = np.random.default_rng(23)
        for _ in range(50):
            qq = Distribution(rng.dirichlet(np.ones(2)))
            assert run.final_objective <= e0(rho, qq, ASYM) + 1e-6

    def test_support_restriction_preserved(self):
        p = Channel(np.array([[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]]))
        q0 = Distribution(np.array([0.5, 0.5, 0.0]))
        run = fixed_slope_run(q0, -0.5, p, tol=1e-11)
        for rec in run.records:
            assert rec.q_after.probs[2] == 0.0


class TestStationarityResidual:
    def test_uniform_on_symmetric_channel(self):
        assert stationarity_residual(UNIF, -0.5, BSC) < 1e-12

    def test_positive_away_from_optimum(self):
        assert stationarity_residual(Distribution(np.array([0.95, 0.05])), -0.5, ASYM) > 1e-4

    def test_terminal_residual_small(self):
        run = fixed_slope_run(Distribution(np.array([0.2, 0.8])), -0.6, ASYM, tol=1e-13)
        assert run.stationarity < 1e-8

    def test_rho_domain(self):
        with pytest.raises(ValueError):
            stationarity_residual(UNIF, -1.0, BSC)
