"""Deterministic iterative minimization of the correct-decoding exponent.

Two procedures over the codebook distribution Q:

* fixed rate: repeatedly replace Q by the input marginal of the minimizing
  joint of the ML correct-decoding exponent at rate R.  The exponent sequence
  is non-increasing, each step certified by the supporting-line decrease
  bound.
* fixed slope: the explicit two-stage update at a slope parameter rho in
  (-1, 0), driving the interleaved objective down to min_Q E0(rho, Q) over
  the initial support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .itcore import Channel, Distribution, JointDistribution, kl_masses
from .exponents import ExponentResult, _kernel_inputs, _tilted, correct_exponent_ml, tilted_objective
from .oracle import min_over_small_supports


@dataclass(frozen=True)
class RateStepRecord:
    q_before: Distribution
    q_after: Distribution
    rho_hat: float
    minimizer: JointDistribution
    exponent_before: float
    exponent_after: float
    guaranteed_decrease: float
    # correct_exponent_ml(rate, q_after): the next step's "before" evaluation.
    result_after: ExponentResult


@dataclass(frozen=True)
class RateRunResult:
    records: tuple
    reached_zero: bool
    support_shrank: bool
    final_q: Distribution
    final_exponent: float


@dataclass(frozen=True)
class SlopeStepRecord:
    q_before: Distribution
    q_after: Distribution
    objective_mid: float
    objective_after: float


@dataclass(frozen=True)
class SlopeRunResult:
    records: tuple
    final_q: Distribution
    final_objective: float
    stationarity: float


@dataclass(frozen=True)
class LowerThanReport:
    holds: bool
    lhs: float
    rhs: float
    worst_support: tuple | None


def fixed_rate_step(
    q: Distribution, rate: float, p: Channel, before: ExponentResult | None = None
) -> RateStepRecord:
    """One update Q <- input marginal of the minimizing joint at rate R.

    The guaranteed decrease is (1 + rho_hat') * D(Q' || Q) with rho_hat' the
    supporting-line slope at the new distribution.  ``before`` is
    ``correct_exponent_ml(rate, q, p)`` if the caller already has it.
    """
    res = before if before is not None else correct_exponent_ml(rate, q, p)
    q_after = Distribution(res.minimizer.marginal_x)
    res_after = correct_exponent_ml(rate, q_after, p)
    decrease = (1.0 + res_after.rho_star) * kl_masses(q_after.probs, q.probs)
    return RateStepRecord(
        q_before=q,
        q_after=q_after,
        rho_hat=res.rho_star,
        minimizer=res.minimizer,
        exponent_before=res.value,
        exponent_after=res_after.value,
        guaranteed_decrease=decrease,
        result_after=res_after,
    )


def fixed_rate_run(
    q0: Distribution,
    rate: float,
    p: Channel,
    tol: float = 1e-9,
    max_iter: int = 100_000,
) -> RateRunResult:
    """Iterate fixed_rate_step until both the exponent change and the total
    variation of Q fall below tol (or max_iter)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    records = []
    q = q0
    before = None
    for _ in range(max_iter):
        rec = fixed_rate_step(q, rate, p, before)
        records.append(rec)
        before = rec.result_after
        exp_change = rec.exponent_before - rec.exponent_after
        tv = 0.5 * float(np.abs(rec.q_after.probs - q.probs).sum())
        q = rec.q_after
        if abs(exp_change) < tol and tv < tol:
            break
    final_exp = records[-1].exponent_after
    support_shrank = records[-1].q_after.support.size < q0.support.size
    return RateRunResult(
        records=tuple(records),
        reached_zero=final_exp < tol,
        support_shrank=support_shrank,
        final_q=records[-1].q_after,
        final_exponent=final_exp,
    )


def check_lower_than(q0: Distribution, rate: float, p: Channel) -> LowerThanReport:
    """Convergence-to-zero condition: E_c^ML(R, Q0) strictly below the minimum
    of E_c^ML(R, .) over distributions whose support has capacity < R."""
    lhs = correct_exponent_ml(rate, q0, p).value
    rhs, worst = min_over_small_supports(rate, p)
    return LowerThanReport(holds=lhs < rhs, lhs=lhs, rhs=rhs, worst_support=worst)


def _slope_update(q: Distribution, rho: float, p: Channel):
    """(T, V, q_next) of the fixed-slope two-stage update at Q: the tilted
    pair at rho and the input marginal of T o V."""
    _, _, t, v = _tilted(np.array([float(rho)]), *_kernel_inputs(q, p))
    return t[0], v[0], Distribution(t[0] @ v[0])


def fixed_slope_step(q: Distribution, rho: float, p: Channel) -> SlopeStepRecord:
    """One fixed-slope update: (T, V) from the tilted formulas at Q, then
    Q <- input marginal of T o V; records the objective after each stage."""
    if not (-1.0 < rho < 0.0):
        raise ValueError(f"rho must lie strictly inside (-1, 0), got {rho}")
    t, v, q_next = _slope_update(q, rho, p)
    joint = JointDistribution.from_t_v(t, v)
    mid = tilted_objective(joint, q, p, rho)
    after = tilted_objective(joint, q_next, p, rho)
    return SlopeStepRecord(q_before=q, q_after=q_next, objective_mid=mid, objective_after=after)


def fixed_slope_run(
    q0: Distribution,
    rho: float,
    p: Channel,
    tol: float = 1e-9,
    max_iter: int = 100_000,
) -> SlopeRunResult:
    if tol <= 0:
        raise ValueError("tol must be positive")
    records = []
    q = q0
    prev_obj = math.inf
    for _ in range(max_iter):
        rec = fixed_slope_step(q, rho, p)
        records.append(rec)
        tv = 0.5 * float(np.abs(rec.q_after.probs - q.probs).sum())
        change = prev_obj - rec.objective_after
        prev_obj = rec.objective_after
        q = rec.q_after
        if abs(change) < tol and tv < tol:
            break
    return SlopeRunResult(
        records=tuple(records),
        final_q=q,
        final_objective=records[-1].objective_after,
        stationarity=stationarity_residual(q, rho, p),
    )


def stationarity_residual(q: Distribution, rho: float, p: Channel) -> float:
    """Max-min spread over supp(Q) of the per-letter stationarity values
    sum_y P^gamma(y|x) [sum_a Q(a) P^gamma(y|a)]^rho; zero at a minimizer.

    With the tilted pair at rho these values are e^{-E0} (T o V)(x) / Q(x).
    """
    if not (-1.0 < rho < 0.0):
        raise ValueError(f"rho must lie strictly inside (-1, 0), got {rho}")
    e0s, _, t, v = _tilted(np.array([float(rho)]), *_kernel_inputs(q, p))
    supp = q.support
    vals = math.exp(-e0s[0]) * (t[0] @ v[0])[supp] / q.probs[supp]
    return float(vals.max() - vals.min())
