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
from .exponents import (
    ExponentResult, _kernel_inputs, _stationarity, _tilted, capacity, correct_exponent_ml, tilted_objective
)
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
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not math.isfinite(rate):
        raise ValueError(f"rate must be finite, got {rate}")
    records = []
    q = q0
    before = None
    for step in range(max_iter):
        rec = fixed_rate_step(q, rate, p, before)
        _check_finite("exponent", (rec.exponent_before, rec.exponent_after), step)
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
    of E_c^ML(R, .) over distributions whose support has capacity < R.

    When supp(Q0) itself has capacity < R, Q0 lies in the set the minimum
    ranges over, so rhs <= lhs and ``holds`` is False.  It is set so outright:
    where Q0 is the minimizer both sides are one value computed two ways, and
    comparing them would only compare their roundoff.  ``lhs`` and ``rhs`` are
    still reported."""
    lhs = correct_exponent_ml(rate, q0, p).value
    rhs, worst = min_over_small_supports(rate, p)
    holds = lhs < rhs and capacity(p, q0.support) >= rate
    return LowerThanReport(holds=holds, lhs=lhs, rhs=rhs, worst_support=worst)


def _check_finite(name: str, values, step: int) -> None:
    """Raise ``ValueError`` naming the step when a loop value is not finite."""
    for value in values:
        if not math.isfinite(value):
            raise ValueError(f"non-finite {name} {value} at step {step}")


def fixed_slope_step(q: Distribution, rho: float, p: Channel) -> SlopeStepRecord:
    """One fixed-slope update: (T, V) from the tilted formulas at Q, then
    Q <- input marginal of T o V; records the objective after each stage."""
    if not (-1.0 < rho < 0.0):
        raise ValueError(f"rho must lie strictly inside (-1, 0), got {rho}")
    _, _, t, v = _tilted(np.array([float(rho)]), *_kernel_inputs(q, p))
    joint = JointDistribution.from_t_v(t[0], v[0])
    q_next = Distribution(t[0] @ v[0])
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
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not math.isfinite(rho):
        raise ValueError(f"rho must be finite, got {rho}")
    records = []
    q = q0
    prev_obj = math.inf
    for step in range(max_iter):
        rec = fixed_slope_step(q, rho, p)
        _check_finite("objective", (rec.objective_mid, rec.objective_after), step)
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
    sum_y P^gamma(y|x) [sum_a Q(a) P^gamma(y|a)]^rho; zero at a minimizer."""
    if not (-1.0 < rho < 0.0):
        raise ValueError(f"rho must lie strictly inside (-1, 0), got {rho}")
    values, log_z = _stationarity(np.array([float(rho)]), *_kernel_inputs(q, p)[:2])
    vals = math.exp(log_z[0]) * values[0][q.support]
    return float(vals.max() - vals.min())
