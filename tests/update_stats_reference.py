"""The update statistics of ``nts.simulate.nts_run`` solved one Q at a time:
the reference that ``nts_run(...).summary.update_stats`` is compared against.

``record_updates`` spies on the block step of ``nts_run`` and returns, for
each feedback-1 block, the (block, desync, winner counts, Q, channel) the
statistics are solved from."""

import numpy as np

import nts.simulate
from nts.exponents import (
    Boundary,
    StrictDomainReport,
    correct_exponent_ml,
    correct_exponent_strict,
    error_exponent,
    minus_one_family,
)
from nts.simulate import UpdateStat


def record_updates(monkeypatch, config) -> tuple:
    """Run ``nts_run(config)`` and return its result with the update records."""
    calls = []
    block = nts.simulate._block

    def spy(q, p, *args):
        outcome, winner_counts = block(q, p, *args)
        calls.append((outcome, winner_counts, q, p))
        return outcome, winner_counts

    monkeypatch.setattr(nts.simulate, "_block", spy)
    result = nts.simulate.nts_run(config)
    updates = [
        (index, not outcome.correct, winner_counts, q, p)
        for index, (outcome, winner_counts, q, p) in enumerate(calls)
        if outcome.feedback == 1
    ]
    return result, updates


def reference_update_stats(updates, config):
    """(``UpdateStat`` tuple, set of regimes met): E_r(R, Q) and the strict
    E_c(R + delta, Q), or the ML one beyond r_plus, solved per distinct
    (Q, channel), with the L1 distance from the winner's joint type to that
    exponent's minimizer.

    The regimes name how each distinct Q's correct-decoding exponent was
    solved: ``interior``, ``rho_zero``, ``minus_one_bisected`` (rho* = -1
    within r_plus, minimizer found by the lambda bisection),
    ``minus_one_at_r_minus`` (the same with lambda = 0), and the ML
    exponent's flag with ``_beyond_r_plus`` where the strict exponent does not
    apply (``rho_minus_one_beyond_r_plus`` is the ML fallback at rho* = -1)."""
    rate_plus = config.rate + config.delta
    cache = {}
    regimes = set()
    stats = []
    for block, desync, winner_counts, q, p in updates:
        key = (q.probs.tobytes(), id(p))
        if key not in cache:
            ee = error_exponent(config.rate, q, p).value
            res = correct_exponent_strict(rate_plus, q, p)
            if isinstance(res, StrictDomainReport):
                res = correct_exponent_ml(rate_plus, q, p)
                regime = f"{res.boundary_flag.value}_beyond_r_plus"
            elif res.boundary_flag is Boundary.RHO_MINUS_ONE:
                bisected = minus_one_family(q, p).r_minus < rate_plus
                regime = "minus_one_bisected" if bisected else "minus_one_at_r_minus"
            else:
                regime = res.boundary_flag.value
            regimes.add(regime)
            cache[key] = (ee, res.value, res.minimizer.mass)
        ee, ec, mass = cache[key]
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
    return tuple(stats), regimes
