"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time

import numpy as np

from nts.itcore import Channel, Distribution, JointDistribution, mutual_information
from nts.exponents import (
    StrictDomainReport,
    correct_exponent_ml,
    correct_exponent_strict,
    e0,
    error_exponent,
    minus_one_family,
    tilted_joint,
)
from nts.oracle import ImplicitKind, exact_finite_n, implicit_exponent, joint_sweep
from nts.iterate import check_lower_than, fixed_rate_run, fixed_rate_step, fixed_slope_run
from nts.simulate import SimConfig, estimate_exponent, fixed_q_event_counts, fixed_q_outcomes, nts_run
from nts.cli import run_command

BSC10 = Channel.bsc(0.1)
UNIF = Distribution.uniform(2)


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def random_instance(rng):
    nx = int(rng.integers(2, 4))
    ny = int(rng.integers(2, 4))
    p = Channel(rng.dirichlet(np.ones(ny), size=nx))
    q = Distribution(rng.dirichlet(np.ones(nx)))
    return q, p


def test_criterion_01_explicit_vs_implicit_equivalence():
    resolution = 60
    tol = 3 / resolution + 1e-3
    rng = np.random.default_rng(2024)
    worst = 0.0
    start = time.time()
    for _ in range(20):
        q, p = random_instance(rng)
        i0 = tilted_joint(0.0, q, p).slope
        fam = minus_one_family(q, p)
        sweep = joint_sweep(q, p, resolution)

        rate_err = float(rng.uniform(0.25, 0.85)) * i0
        diff = abs(
            implicit_exponent(ImplicitKind.ERROR_IID, rate_err, sweep)
            - error_exponent(rate_err, q, p).value
        )
        worst = max(worst, diff)

        rate_corr = i0 + float(rng.uniform(0.15, 0.75)) * max(fam.r_plus - i0, 0.0)
        rate_corr = min(rate_corr, fam.r_plus)  # strict kind restricted to R <= r_plus
        diff = abs(
            implicit_exponent(ImplicitKind.CORRECT_ML, rate_corr, sweep)
            - correct_exponent_ml(rate_corr, q, p).value
        )
        worst = max(worst, diff)

        strict = correct_exponent_strict(rate_corr, q, p)
        assert not isinstance(strict, StrictDomainReport)
        diff = abs(
            implicit_exponent(ImplicitKind.CORRECT_STRICT, rate_corr, sweep)
            - strict.value
        )
        worst = max(worst, diff)
    elapsed = time.time() - start
    report(
        1,
        worst <= tol and elapsed < 120,
        f"worst |explicit - implicit| = {worst:.2e} (tol {tol:.2e}), {elapsed:.0f}s",
    )


def test_criterion_02_analytic_anchors():
    rng = np.random.default_rng(7)
    ok_e0 = all(abs(e0(0.0, *random_instance(rng))) <= 1e-12 for _ in range(10))

    ok_slope = True
    for _ in range(10):
        q, p = random_instance(rng)
        j = JointDistribution(q.probs[None, :] * p.matrix.T)
        ok_slope &= abs(tilted_joint(0.0, q, p).slope - mutual_information(j)) <= 1e-8

    bsc_vals = (
        abs(e0(1.0, UNIF, BSC10) - 0.223144) <= 1e-6,
        abs(e0(-1.0, UNIF, BSC10) - (-0.587787)) <= 1e-6,
        abs(tilted_joint(0.0, UNIF, BSC10).slope - 0.368064) <= 1e-6,
    )
    report(
        2,
        ok_e0 and ok_slope and all(bsc_vals),
        f"E0(0)=0 to 1e-12: {ok_e0}; slope(0)=I to 1e-8: {ok_slope}; BSC anchors: {all(bsc_vals)}",
    )


def test_criterion_03_fixed_rate_monotonicity_certificate():
    rng = np.random.default_rng(99)
    worst_slack = math.inf
    ok = True
    for _ in range(200):
        q, p = random_instance(rng)
        i0 = tilted_joint(0.0, q, p).slope
        rate = float(rng.uniform(0.9, 2.6)) * max(i0, 5e-3)
        rec = fixed_rate_step(q, rate, p)
        slack = (rec.exponent_before - rec.exponent_after) - rec.guaranteed_decrease
        worst_slack = min(worst_slack, slack)
        ok &= slack >= -1e-8
        ok &= set(rec.q_after.support) <= set(q.support)
    report(3, ok, f"200 random steps; worst decrease-vs-bound slack {worst_slack:.2e}")


def test_criterion_04_convergence_to_zero():
    cases = [
        (BSC10, Distribution(np.array([0.95, 0.05])), 0.30),
        (Channel.bsc(0.2), Distribution(np.array([0.9, 0.1])), 0.18),
        (Channel(np.eye(2)), Distribution(np.array([0.85, 0.15])), 0.50),
        (Channel(np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.15, 0.15, 0.7]])), Distribution.uniform(3), 0.35),
        (Channel(np.array([[0.7, 0.3, 0.0], [0.0, 0.35, 0.65]])), Distribution(np.array([0.6, 0.4])), 0.25),
    ]
    start = time.time()
    ok = True
    details = []
    for p, q0, rate in cases:
        check = check_lower_than(q0, rate, p)
        ok &= check.holds
        run = fixed_rate_run(q0, rate, p, tol=1e-10, max_iter=10_000)
        j = JointDistribution(run.final_q.probs[None, :] * p.matrix.T)
        final_i = mutual_information(j)
        ok &= run.final_exponent < 1e-6
        ok &= final_i >= rate - 1e-4
        details.append(f"{run.final_exponent:.1e}/{len(run.records)}it")
    elapsed = time.time() - start
    report(4, ok and elapsed < 30, f"terminal exponents {details}, {elapsed:.1f}s")


def test_criterion_05_fixed_slope():
    p = Channel(np.array([[0.7, 0.3, 0.0], [0.0, 0.35, 0.65]]))
    q0 = Distribution(np.array([0.35, 0.65]))
    ok = True
    details = []
    for rho in (-0.8, -0.5, -0.2):
        run = fixed_slope_run(q0, rho, p, tol=1e-13)
        prev = math.inf
        for rec in run.records:
            ok &= rec.objective_mid <= prev + 1e-12
            ok &= rec.objective_after <= rec.objective_mid + 1e-12
            prev = rec.objective_after
        ok &= run.stationarity < 1e-8
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-4)
        gmin = min(e0(rho, Distribution(np.array([t, 1 - t])), p) for t in grid)
        ok &= run.final_objective <= gmin + 1e-3
        details.append(f"rho={rho}: gap {run.final_objective - gmin:+.1e}, stat {run.stationarity:.1e}")
    report(5, ok, "; ".join(details))


def test_criterion_06_exact_vs_monte_carlo():
    n, rate = 6, math.log(3) / 6
    trials = 100_000
    start = time.time()
    ok = True
    worst = 0.0
    for delta in (0.0, 0.2):
        rep = exact_finite_n(n, rate, delta, UNIF, BSC10)
        assert rep.m == 3
        counts = fixed_q_event_counts(UNIF, BSC10, n, rate, delta, trials, seed=int(delta * 100) + 1)
        for key, exact in (
            ("error", rep.p_error),
            ("correct_strict", rep.p_correct_strict),
            ("feedback1", rep.p_feedback1),
        ):
            se = math.sqrt(exact * (1 - exact) / trials)
            dev = abs(counts[key] / trials - exact) / se
            worst = max(worst, dev)
            ok &= dev <= 4.0
    elapsed = time.time() - start
    report(6, ok and elapsed < 60, f"worst deviation {worst:.2f} sigma over 1e5 trials, {elapsed:.1f}s")


def test_criterion_07_selection_exponent_trend():
    p = Channel.bsc(0.15)
    q = Distribution(np.array([0.6, 0.4]))
    rate, delta = 0.45, 0.2
    strict = correct_exponent_strict(rate + delta, q, p)
    assert not isinstance(strict, StrictDomainReport)
    target = strict.value
    assert 0.05 <= target <= 0.3
    samples = [(n, exact_finite_n(n, rate, delta, q, p).p_feedback1) for n in (4, 6, 8, 10)]
    fit = estimate_exponent(samples)
    rel = abs(fit.slope - target) / target
    report(7, rel <= 0.30, f"regressed slope {fit.slope:.4f} vs E_c strict {target:.4f} (rel {rel:.1%})")


def test_criterion_08_type_convergence():
    p, q = BSC10, UNIF
    rate, delta = 0.35, 0.05
    strict = correct_exponent_strict(rate + delta, q, p)
    minimizer = strict.minimizer.mass
    means = []
    for n in (50, 100, 200, 400):
        gaps = []
        chunk = 0
        while len(gaps) < 500 and chunk < 40:
            outs = fixed_q_outcomes(
                q, p, n, rate, delta, blocks=800, seed=1000 * n + chunk, codebook_cap=1
            )
            gaps += [
                float(np.abs(o.joint_type.counts / n - minimizer).sum())
                for o in outs
                if o.correct and o.feedback == 1
            ]
            chunk += 1
        assert len(gaps) >= 500
        means.append(float(np.mean(gaps)))
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    report(8, decreasing, f"mean L1 gaps over n=(50,100,200,400): {[round(m, 4) for m in means]}")


def test_criterion_09_end_to_end_adaptation():
    p = Channel.bsc(0.05)
    q0 = Distribution(np.array([0.9, 0.1]))
    rate, delta = 0.25, 0.05
    ec0 = correct_exponent_ml(rate + delta, q0, p).value
    successes = 0
    start = time.time()
    for seed in range(20):
        cfg = SimConfig(
            n=200, rate=rate, delta=delta, blocks=2000, q0=q0,
            channel_schedule=((0, p),), seed=seed,
        )
        res = nts_run(cfg)
        qf = res.summary.q_final
        j = JointDistribution(qf.probs[None, :] * p.matrix.T)
        ecf = correct_exponent_ml(rate + delta, qf, p).value
        if mutual_information(j) > rate and ecf < ec0:
            successes += 1
    elapsed = time.time() - start
    report(9, successes >= 19, f"{successes}/20 seeds improved (I > R and Ec down), {elapsed:.0f}s")


def test_criterion_10_cli_determinism(tmp_path):
    import json

    cfg_path = tmp_path / "bsc.json"
    cfg_path.write_text(
        json.dumps(
            {
                "channel": {"rows": [[0.9, 0.1], [0.1, 0.9]]},
                "q0": [0.5, 0.5],
                "params": {"rate_grid": {"start": 0.0, "stop": 0.7, "step": 0.01}},
            }
        )
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_command(["curves", "--config", str(cfg_path), "--out-dir", str(out_a)]) == 0
    assert run_command(["curves", "--config", str(cfg_path), "--out-dir", str(out_b)]) == 0
    identical = (out_a / "curves.csv").read_bytes() == (out_b / "curves.csv").read_bytes()

    lines = (out_a / "curves.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    i_rate, i_err, i_corr = header.index("rate"), header.index("error_exponent"), header.index("correct_ml")
    i_true = mutual_information(JointDistribution(UNIF.probs[None, :] * BSC10.matrix.T))
    last_err_pos = max(float(r[i_rate]) for r in rows if float(r[i_err]) > 0)
    first_corr_pos = min(float(r[i_rate]) for r in rows if float(r[i_corr]) > 0)
    err_brackets = last_err_pos < i_true <= last_err_pos + 0.01 + 1e-12
    corr_brackets = first_corr_pos - 0.01 - 1e-12 <= i_true < first_corr_pos
    report(
        10,
        identical and err_brackets and corr_brackets,
        f"byte-identical: {identical}; zero crossings bracket I={i_true:.6f} "
        f"(err last>0 at {last_err_pos:.2f}, corr first>0 at {first_corr_pos:.2f})",
    )
