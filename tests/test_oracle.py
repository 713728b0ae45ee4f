import ast
import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.optimize import minimize
from scipy.special import gammaln

from compositions_reference import compositions_iter
from nts.itcore import (
    Channel,
    Distribution,
    ResourceLimitError,
    TIE_TOL,
    codebook_size,
    compositions_array,
    guarded_log,
)
from nts.exponents import _log_partition, capacity, correct_exponent_ml, error_exponent, tilted_joint
from nts import exponents, oracle
from nts.oracle import (
    EXACT_CODEBOOK_CAP,
    GRID_CELL_CAP,
    MIN_RESOLUTION,
    SUPPORT_INPUT_CAP,
    TYPE_CAP,
    ImplicitKind,
    _GOLDEN,
    _Objective,
    _SupportObjective,
    _cell_sum,
    _cells,
    _golden_min,
    _minimize_over_pairs,
    _minimize_over_support,
    _on_support,
    _output_metrics,
    cc_bound,
    competitor_class_table,
    conditional_sweep,
    decode_metric,
    exact_finite_n,
    implicit_exponent,
    joint_sweep,
    loglik_metric,
    min_over_small_supports,
    project_simplex,
)

BSC = Channel.bsc(0.1)
UNIF = Distribution.uniform(2)
# A 3x3 channel and Q where, at R = 0.55556, the CORRECT_ML minimum sits
# where the kink of [excess]^+ meets a face of the simplex.
KINK_ROWS = [[0.0, 0.3149, 0.6851], [0.1456, 0.4927, 0.3617], [0.8003, 0.1121, 0.0876]]
KINK_Q = [v / 0.9999 for v in (0.2714, 0.1803, 0.5482)]


class TestImplicitExponent:
    def test_zero_above_mutual_information(self):
        i0 = tilted_joint(0.0, UNIF, BSC).slope
        val = implicit_exponent(ImplicitKind.ERROR_IID, i0 + 0.05, joint_sweep(UNIF, BSC, 30))
        assert abs(val) < 1e-6

    def test_error_kind_matches_explicit(self):
        val = implicit_exponent(ImplicitKind.ERROR_IID, 0.1, joint_sweep(UNIF, BSC, 60))
        assert val == pytest.approx(error_exponent(0.1, UNIF, BSC).value, abs=2e-2)

    def test_correct_ml_matches_explicit(self):
        val = implicit_exponent(ImplicitKind.CORRECT_ML, 0.55, joint_sweep(UNIF, BSC, 60))
        assert val == pytest.approx(correct_exponent_ml(0.55, UNIF, BSC).value, abs=2e-2)

    def test_correct_ml_where_the_kink_meets_a_face(self):
        # The polish alone stalled at 0.0651 here.
        q, p = Distribution(np.array(KINK_Q)), Channel(np.array(KINK_ROWS))
        val = implicit_exponent(ImplicitKind.CORRECT_ML, 0.55556, joint_sweep(q, p, 60))
        assert val == pytest.approx(correct_exponent_ml(0.55556, q, p).value, abs=1e-9)

    def test_strict_infeasible_is_inf(self):
        # Max achievable metric is -log min Q(x) = log 2 for uniform binary Q.
        val = implicit_exponent(ImplicitKind.CORRECT_STRICT, math.log(2) + 0.2, joint_sweep(UNIF, BSC, 30))
        assert val == math.inf

    def test_strict_at_least_ml(self):
        rng = np.random.default_rng(3)
        for _ in range(4):
            p = Channel(rng.dirichlet(np.ones(2), size=2))
            q = Distribution(rng.dirichlet(np.ones(2)))
            rate = float(rng.uniform(0.1, 0.5))
            minima = ((implicit_exponent, joint_sweep(q, p, 40)), (cc_bound, conditional_sweep(q, p, 40)))
            for minimum, sweep in minima:
                ml = minimum(ImplicitKind.CORRECT_ML, rate, sweep)
                strict = minimum(ImplicitKind.CORRECT_STRICT, rate, sweep)
                assert strict >= ml - 1e-6

    def test_alphabet_cap(self):
        p = Channel(np.full((4, 3), 1 / 3))
        q = Distribution.uniform(4)
        for sweep in (joint_sweep, conditional_sweep):
            with pytest.raises(ResourceLimitError, match=f"alphabet product 12 exceeds the cap GRID_CELL_CAP = {GRID_CELL_CAP}"):
                sweep(q, p, 30)

    def test_resolution_floor(self):
        for sweep in (joint_sweep, conditional_sweep):
            with pytest.raises(ValueError, match=f"resolution must be at least MIN_RESOLUTION = {MIN_RESOLUTION}"):
                sweep(UNIF, BSC, MIN_RESOLUTION - 1)

    def test_each_minimum_takes_its_own_grid(self):
        with pytest.raises(ValueError, match="joint_sweep"):
            implicit_exponent(ImplicitKind.ERROR_IID, 0.1, conditional_sweep(UNIF, BSC, 20))
        with pytest.raises(ValueError, match="conditional_sweep"):
            cc_bound(ImplicitKind.ERROR_IID, 0.1, joint_sweep(UNIF, BSC, 20))


class TestOracleBoundary:
    def test_cross_checks_run_without_the_exponents_module(self, monkeypatch):
        # The brute-force minima and the exact analyzer are ground truth for
        # the closed forms only while they use none of them.
        def stub(*args, **kwargs):
            raise AssertionError("the oracle called into nts.exponents")

        for name, value in vars(exponents).items():
            if inspect.isfunction(value) and value.__module__ == exponents.__name__:
                monkeypatch.setattr(exponents, name, stub)
        imported = [
            alias.asname or alias.name
            for node in ast.walk(ast.parse(inspect.getsource(oracle)))
            if isinstance(node, ast.ImportFrom) and node.module == "exponents"
            for alias in node.names
        ]
        assert imported
        for name in imported:
            monkeypatch.setattr(oracle, name, stub)

        joint, conditional = joint_sweep(UNIF, BSC, 20), conditional_sweep(UNIF, BSC, 20)
        for kind in ImplicitKind:
            assert implicit_exponent(kind, 0.3, joint) >= 0
            assert cc_bound(kind, 0.3, conditional) >= 0
        rep = exact_finite_n(6, 0.2, 0.1, UNIF, BSC)
        assert rep.p_error + rep.p_correct_strict == pytest.approx(1.0, abs=1e-12)

    def test_zero_exponent_is_exactly_zero(self):
        # Rate 0.3 is below I(Q o P) of BSC(0.1), so both correct-decoding
        # minima are zero; the refinement used to end at -2.2e-16.  The
        # ternary rate is above I(Q o P), so the error exponent is zero; the
        # polish alone ended at 6.66e-16 there.
        joint, conditional = joint_sweep(UNIF, BSC, 60), conditional_sweep(UNIF, BSC, 60)
        for kind in (ImplicitKind.CORRECT_ML, ImplicitKind.CORRECT_STRICT):
            assert implicit_exponent(kind, 0.3, joint) == 0.0
            assert cc_bound(kind, 0.3, conditional) == 0.0
        ternary = joint_sweep(Distribution.uniform(3), Channel(np.array(TERNARY[0])), 60)
        assert implicit_exponent(ImplicitKind.ERROR_IID, 0.5150124947027395, ternary) == 0.0


class TestCcBound:
    def test_upper_bounds_iid_error_exponent(self):
        sweep = conditional_sweep(UNIF, BSC, 40)
        for rate in (0.05, 0.2):
            cb = cc_bound(ImplicitKind.ERROR_IID, rate, sweep)
            assert cb >= error_exponent(rate, UNIF, BSC).value - 2e-2

    def test_strict_above_entropy_is_inf(self):
        q = Distribution(np.array([0.8, 0.2]))
        hq = -(0.8 * math.log(0.8) + 0.2 * math.log(0.2))
        assert cc_bound(ImplicitKind.CORRECT_STRICT, hq + 0.1, conditional_sweep(q, BSC, 30)) == math.inf

    def test_identity_channel_at_log2_is_zero(self):
        val = cc_bound(ImplicitKind.CORRECT_ML, math.log(2), conditional_sweep(UNIF, Channel(np.eye(2)), 40))
        assert abs(val) < 1e-6

    def test_matches_the_implicit_exponent_on_the_ternary_symmetric_channel(self):
        # For a symmetric channel and uniform Q the constant-composition
        # exponents equal the i.i.d. ones; coordinate moves alone stalled at
        # the kink of [R - I]^+ here (0.0380 and 0.0507).
        p = Channel(np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]))
        q, rate = Distribution.uniform(3), 0.5902665454523357
        joint, conditional = joint_sweep(q, p, 60), conditional_sweep(q, p, 60)
        for kind in (ImplicitKind.CORRECT_ML, ImplicitKind.CORRECT_STRICT):
            implicit = implicit_exponent(kind, rate, joint)
            assert implicit == pytest.approx(0.0111987976722, abs=1e-9)
            assert cc_bound(kind, rate, conditional) == pytest.approx(implicit, abs=1e-9)

    @pytest.mark.parametrize("rows, q, rate, kinds", [
        (
            [[0.79740358849196, 0.014053697017736313, 0.18854271449030366],
             [0.08787851200947586, 0.12492778899367422, 0.7871936989968499]],
            [0.7652827478212281, 0.23471725217877198], 0.10187324795284139,
            (ImplicitKind.ERROR_IID, ImplicitKind.CORRECT_ML),
        ),
        (
            [[0.8945887108511038, 0.08008611773466406, 0.025325171414232173],
             [0.05472446539181872, 0.043524167490918295, 0.901751367117263]],
            [0.46239425945954377, 0.5376057405404562], 0.5647731680459273,
            (ImplicitKind.CORRECT_ML,),
        ),
        (
            # The minimum sits where the kink meets a face (W(.|1) = [0, 1, 0]);
            # the polish alone stalled at 0.1860288 next to it.
            [[0.5220853262752284, 0.2896919947172378, 0.1882226790075339],
             [0.10630167027395182, 0.7440668006106922, 0.149631529115356]],
            [0.7438257514079748, 0.25617424859202526], 0.4266613000919923,
            (ImplicitKind.CORRECT_ML,),
        ),
        (
            # Two basins: line searches over a quarter of a row stayed in the
            # one at 0.66816; spanning the whole row reaches 0.58694.
            [[0.33701938725538455, 0.35366830631718615, 0.3093123064274293],
             [0.01674067033352753, 0.7292708892897852, 0.2539884403766872],
             [0.14638708596555744, 0.18736329866035448, 0.6662496153740881]],
            [0.8893085217754646, 0.0921016189472757, 0.018589859277259767], 0.3826072099284076,
            (ImplicitKind.CORRECT_STRICT,),
        ),
        (
            # The joint polish alone stalled at 0.0651 (the closed form gives
            # 0.04397).
            KINK_ROWS, KINK_Q, 0.55556, (ImplicitKind.CORRECT_ML,),
        ),
    ])
    def test_no_higher_than_a_multistart_nelder_mead(self, rows, q, rate, kinds):
        # Each minimum against Nelder-Mead from 20 starts over a softmax
        # parametrization: of the rows W on the cells where P is positive
        # (cc_bound), and of the joint mass on the cells where QoP is positive
        # (implicit_exponent).
        p, q = np.array(rows), np.array(q)
        qp = q[:, None] * p  # (|X|, |Y|)
        dist, channel = Distribution(q), Channel(p)
        conditional, joint = conditional_sweep(dist, channel, 60), joint_sweep(dist, channel, 60)

        def softmax(logits, allowed, axis):
            z = np.full(allowed.shape, -np.inf)
            z[allowed] = logits
            w = np.exp(z - z.max(axis=axis, keepdims=True))
            return w / w.sum(axis=axis, keepdims=True)

        def reference(objective, start):
            rng = np.random.default_rng(0)
            starts = [start] + [rng.normal(scale=2.0, size=start.size) for _ in range(19)]
            options = {"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000}
            return min(minimize(objective, x0, method="Nelder-Mead", options=options).fun for x0 in starts)

        for kind in kinds:
            sign = 1.0 if kind is ImplicitKind.ERROR_IID else -1.0
            weight = oracle._STRICT_PENALTY if kind is ImplicitKind.CORRECT_STRICT else 1.0

            def objective(m):
                # D(m || QoP) + weight [sign (D(m || TxQ) - rate)]^+ at a
                # joint mass m (|X|, |Y|).
                with np.errstate(divide="ignore", invalid="ignore"):
                    # Masses can underflow to a 0 entry, whose term is 0.
                    d = float(np.where(m > 0, m * np.log(m / qp), 0.0).sum())
                    g = float(np.where(m > 0, m * np.log(m / (q[:, None] * m.sum(axis=0))), 0.0).sum())
                return d + weight * max(sign * (g - rate), 0.0)

            cc_ref = reference(lambda z: objective(q[:, None] * softmax(z, p > 0, 1)), np.log(p[p > 0]))
            joint_ref = reference(lambda z: objective(softmax(z, qp > 0, None)), np.log(qp[qp > 0]))
            assert cc_bound(kind, rate, conditional) <= cc_ref + 1e-9
            assert implicit_exponent(kind, rate, joint) <= joint_ref + 1e-9

    def test_zero_minimum_is_exact(self):
        # I(QoP) >= rate, so W = P gives 0; the polish alone returned 4.4e-16.
        p = Channel(np.array([
            [0.0, 0.053153616908658004, 0.9468463830913421],
            [0.07226941158904542, 0.18286452727348443, 0.7448660611374702],
            [0.17742516945531964, 0.812721459450448, 0.009853371094232288],
        ]))
        q = Distribution(np.array([0.058335323487315835, 0.2676464997197525, 0.6740181767929316]))
        sweep = conditional_sweep(q, p, 60)
        for kind in (ImplicitKind.CORRECT_ML, ImplicitKind.CORRECT_STRICT):
            assert cc_bound(kind, 0.1106974348991677, sweep) == 0.0


class TestExactFiniteN:
    def test_matches_full_enumeration(self):
        # n=2, m=3 over BSC(0.1): every codebook, message, and output sequence.
        n, rate = 2, math.log(3) / 2
        q, p = UNIF, BSC
        words = list(itertools.product([0, 1], repeat=n))

        def metric(x, y):
            counts = np.zeros((2, 2), dtype=int)
            for xi, yi in zip(x, y):
                counts[yi, xi] += 1
            return decode_metric(counts, n, q)

        for delta in (0.0, 0.2):
            rep = exact_finite_n(n, rate, delta, q, p)
            assert rep.m == 3
            pe = pc = pf = 0.0
            for cb in itertools.product(range(4), repeat=3):
                pcb = 0.25 ** 3
                for sent in range(3):
                    xs = words[cb[sent]]
                    for y in itertools.product([0, 1], repeat=n):
                        py = math.prod(p.matrix[xi, yi] for xi, yi in zip(xs, y))
                        mets = [metric(words[cb[m]], y) for m in range(3)]
                        b0 = mets[sent]
                        others = [mets[m] for m in range(3) if m != sent]
                        w = pcb * py / 3
                        if all(b0 > b + TIE_TOL for b in others):
                            pc += w
                        else:
                            pe += w
                        if all(b0 > b + delta + TIE_TOL for b in others):
                            pf += w
            assert rep.p_error == pytest.approx(pe, abs=1e-12)
            assert rep.p_correct_strict == pytest.approx(pc, abs=1e-12)
            assert rep.p_feedback1 == pytest.approx(pf, abs=1e-12)
            assert rep.p_error + rep.p_correct_strict == pytest.approx(1.0, abs=1e-12)

    def test_single_codeword(self):
        rep = exact_finite_n(3, 0.0, 0.0, UNIF, BSC)
        assert rep.m == 1
        assert rep.p_correct_strict == 1.0
        assert rep.p_error == 0.0
        assert rep.p_feedback1 == 1.0

    def test_delta_inf_sentinel(self):
        rep = exact_finite_n(3, 0.0, math.inf, UNIF, BSC)
        assert rep.p_feedback1 == 0.0

    def test_breakdown_probabilities_sum_to_one(self):
        rep = exact_finite_n(4, 0.3, 0.1, Distribution(np.array([0.7, 0.3])), BSC)
        total = float(rep.per_type_breakdown.probability.sum())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_builds_a_class_table_only_for_reachable_received_types(self, monkeypatch):
        # Output 2 is unreachable from supp(Q) = {0}: of the 91 received types
        # at n = 12, only the 13 with no output-2 symbol occur.
        p = Channel(np.array([[0.9, 0.1, 0.0], [0.1, 0.0, 0.9]]))
        built = []
        build = oracle.competitor_class_table
        monkeypatch.setattr(oracle, "competitor_class_table", lambda r, *args: built.append(r) or build(r, *args))
        rep = exact_finite_n(12, 0.1, 0.1, Distribution(np.array([1.0, 0.0])), p)
        assert len(built) == 13
        assert len(rep.per_type_breakdown) == 13

    def test_codebook_size_cap(self):
        m = codebook_size(4, 6.0)
        with pytest.raises(ResourceLimitError, match=f"codebook size {m} exceeds the cap EXACT_CODEBOOK_CAP = {EXACT_CODEBOOK_CAP}"):
            exact_finite_n(4, 6.0, 0.0, UNIF, BSC)


    @pytest.mark.parametrize("delta", [-0.1, math.nan], ids=["negative", "nan"])
    def test_bad_delta_refused(self, delta):
        with pytest.raises(ValueError, match="^delta must be non-negative"):
            exact_finite_n(6, 0.2, delta, UNIF, BSC)

    def test_blocklength_below_one_is_rejected(self):
        for n in (0, -3):
            with pytest.raises(ValueError):
                exact_finite_n(n, 0.3, 0.1, UNIF, BSC)


def reference_exact(n, rate, delta, q, p):
    """The exact analyzer as a scalar loop over joint types.

    Per received type r it builds the same per-output arrays as the library
    (compositions from ``compositions_iter``), then takes each joint type in
    turn: its log-probability and metric summed output by output, one
    threshold lookup in the competitor table per event, ``math.exp``, and
    running sums.  Returns (m, p_error, p_correct, p_f1, rows) with rows
    (counts, probability, p_fail, p_correct, p_f1)."""
    m = codebook_size(n, rate)
    ny, nx = p.num_outputs, p.num_inputs
    qp = q.probs[None, :] * p.matrix.T
    supp = q.support

    def log_p_none(table, threshold):
        if m - 1 <= 0:
            return 0.0
        j = int(np.searchsorted(-table.metrics, -(threshold - TIE_TOL), side="right"))
        tail = table.suffix_logsum[j]
        if tail == -np.inf:
            return -np.inf
        return float(m - 1) * float(tail)

    p_error = p_correct = p_f1 = 0.0
    rows = []
    for r in compositions_iter(n, ny):
        r = np.asarray(r, dtype=int)
        table = competitor_class_table(r, q, n)
        per_y = []
        for y in range(ny):
            allowed = supp[qp[y, supp] > 0]
            if allowed.size == 0:
                per_y.append((allowed, np.zeros((1, 0), dtype=np.int64), np.zeros(1), np.zeros(1)))
                continue
            comps = np.array(list(compositions_iter(int(r[y]), allowed.size)), dtype=np.int64)
            logp = gammaln(r[y] + 1) - gammaln(comps + 1).sum(axis=1) + comps @ np.log(qp[y, allowed])
            pos = comps > 0
            with np.errstate(divide="ignore", invalid="ignore"):
                clogc = np.where(pos, comps * np.log(np.where(pos, comps, 1.0)), 0.0).sum(axis=1)
            met = (clogc - r[y] * (math.log(r[y]) if r[y] > 0 else 0.0) - comps @ np.log(q.probs[allowed])) / n
            per_y.append((allowed, comps, logp, met))
        if any(allowed.size == 0 and r[y] > 0 for y, (allowed, *_) in enumerate(per_y)):
            continue

        picks = list(itertools.product(*(range(len(logp)) for _, _, logp, _ in per_y)))
        logps, metrics = [], []
        for pick in picks:
            logp_k = met_k = 0.0
            for (_, _, logp, met), i in zip(per_y, pick):
                logp_k += logp[i]
                met_k += met[i]
            logps.append(logp_k + (gammaln(n + 1) - gammaln(r + 1).sum()))
            metrics.append(met_k)
        probs = np.exp(np.array(logps))
        for pick, b0, prob in zip(picks, metrics, probs.tolist()):
            p_corr = math.exp(log_p_none(table, float(b0)))
            f1 = 0.0 if delta == math.inf else math.exp(log_p_none(table, float(b0) - delta))
            p_correct += prob * p_corr
            p_error += prob * (1.0 - p_corr)
            p_f1 += prob * f1
            counts = np.zeros((ny, nx), dtype=np.int64)
            for y, ((allowed, comps, _, _), i) in enumerate(zip(per_y, pick)):
                counts[y, allowed] = comps[i]
            rows.append((counts, prob, 1.0 - p_corr, p_corr, f1))
    return m, p_error, p_correct, p_f1, rows


TERNARY = ([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]], [1 / 3, 1 / 3, 1 / 3])
# (channel rows, q, n, rate, delta)
EXACT_CASES = {
    "bsc0.1": ([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5], 6, 0.3, 0.05),
    "ternary0.8": (*TERNARY, 4, 0.25, 0.1),
    "zero_entry": ([[1.0, 0.0], [0.3, 0.7]], [0.4, 0.6], 6, 0.2, 0.02),
    "q_zero_letter": ([[0.6, 0.3, 0.1], [0.25, 0.5, 0.25], [0.1, 0.2, 0.7]], [0.7, 0.0, 0.3], 4, 0.3, 0.05),
    # Output 2 is reachable only from the letter Q omits.
    "unreachable_output": ([[0.7, 0.3, 0.0], [0.2, 0.8, 0.0], [0.1, 0.1, 0.8]], [0.6, 0.4, 0.0], 4, 0.2, 0.0),
    "single_codeword": ([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5], 5, 0.0, 0.1),
    "delta_inf": (*TERNARY, 4, 0.25, math.inf),
}


def exact_case(case):
    rows, q, n, rate, delta = EXACT_CASES[case]
    return n, rate, delta, Distribution(np.array(q)), Channel(np.array(rows))


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_exact_finite_n_equals_scalar_reference(case):
    n, rate, delta, q, p = exact_case(case)
    rep = exact_finite_n(n, rate, delta, q, p)
    m, p_error, p_correct, p_f1, rows = reference_exact(n, rate, delta, q, p)
    assert (rep.m, rep.p_error, rep.p_correct_strict, rep.p_feedback1) == (m, p_error, p_correct, p_f1)
    table = rep.per_type_breakdown
    assert len(table) == len(rows)
    assert np.array_equal(table.counts, np.array([row[0] for row in rows]))
    for column, values in zip(
        (table.probability, table.p_fail_strict, table.p_correct_strict, table.p_feedback1),
        list(zip(*rows))[1:],
    ):
        assert column.tolist() == list(values)
    assert not table.counts.flags.writeable and not table.probability.flags.writeable


class TestCompetitorTable:
    def test_class_probabilities_sum_to_one(self):
        q = Distribution(np.array([0.6, 0.4]))
        table = competitor_class_table(np.array([3, 2]), q, 5)
        assert np.exp(table.log_probs).sum() == pytest.approx(1.0, abs=1e-12)
        assert table.suffix_logsum[0] == pytest.approx(0.0, abs=1e-12)

    def test_metrics_sorted_descending(self):
        table = competitor_class_table(np.array([4, 4]), UNIF, 8)
        assert np.all(np.diff(table.metrics) <= 1e-15)

    def test_counts_aligned_with_metrics(self):
        q = Distribution(np.array([0.6, 0.4]))
        table = competitor_class_table(np.array([3, 2]), q, 5)
        for k in range(table.metrics.size):
            assert decode_metric(table.counts[k], 5, q) == pytest.approx(
                float(table.metrics[k]), abs=1e-12
            )


def reference_class_table(r, q, n, logp=None):
    """(metrics, log_probs, suffix_logsum, counts) of the competitor class
    table, built with one ``unravel_index`` gather per output into zeroed
    sums, and counts filled output by output into a zeroed int64 block."""
    supp = q.support
    logq = np.log(q.probs[supp])
    per_output = []
    for y, ry in enumerate(r):
        comps = compositions_array(ry, supp.size)
        log_w = gammaln(ry + 1) - gammaln(comps + 1).sum(axis=1) + comps @ logq
        if logp is None:
            met = _output_metrics(comps, ry, logq, n)
        else:
            met = loglik_metric(comps[:, None, :], n, logp[y : y + 1, supp])
        per_output.append((comps, log_w, met))
    sizes = tuple(comps.shape[0] for comps, _, _ in per_output)
    idx = np.unravel_index(np.arange(math.prod(sizes)), sizes)
    logp_all = np.zeros(idx[0].size)
    metric_all = np.zeros(idx[0].size)
    for y, (_, log_w, met) in enumerate(per_output):
        logp_all += log_w[idx[y]]
        metric_all += met[idx[y]]
    order = np.argsort(-metric_all, kind="stable")
    log_probs = logp_all[order]
    suffix = np.full(order.size + 1, -np.inf)
    suffix[:-1] = np.logaddexp.accumulate(log_probs[::-1])[::-1]
    counts = np.zeros((order.size, len(r), q.probs.size), dtype=np.int64)
    for y, (comps, _, _) in enumerate(per_output):
        counts[:, y, supp] = comps[idx[y][order]]
    return metric_all[order], log_probs, suffix, counts


def _weights(size):
    # Integer weights give exact zeros and no near-degenerate entries.
    return st.lists(st.integers(0, 4), min_size=size, max_size=size).filter(any)


@st.composite
def class_table_case(draw):
    """Output counts r (1-3 outputs), a Q over 1-3 letters that may have zero
    letters, and, for the ML variant, log P of a channel that may have zeros."""
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    q = np.array(draw(_weights(nx)), dtype=float)
    r = draw(st.lists(st.integers(0, 9), min_size=ny, max_size=ny).filter(any))
    logp = None
    if draw(st.booleans()):
        rows = np.array([draw(_weights(ny)) for _ in range(nx)], dtype=float)
        logp = guarded_log(Channel(rows / rows.sum(axis=1, keepdims=True)).matrix.T, -np.inf)
    return r, Distribution(q / q.sum()), logp


class TestCompetitorTableKernel:
    @settings(max_examples=150, deadline=None)
    @given(class_table_case())
    def test_equals_reference_build(self, case):
        r, q, logp = case
        n = sum(r)
        table = competitor_class_table(np.array(r), q, n, logp=logp)
        metrics, log_probs, suffix, counts = reference_class_table(r, q, n, logp)
        assert table.metrics.tobytes() == metrics.tobytes()
        assert table.log_probs.tobytes() == log_probs.tobytes()
        assert table.suffix_logsum.tobytes() == suffix.tobytes()
        assert np.array_equal(table.counts, counts)
        assert table.counts.dtype == np.min_scalar_type(n)

    @pytest.mark.parametrize(
        "r",
        [
            (125, 125),  # 15,876 classes, each tied with its mirror
            (47, 47, 46),  # the benchmark's memory_2x3 shape, 108,288 classes
        ],
        ids=["binary_125_125", "memory_2x3_47_47_46"],
    )
    def test_heavy_ties_keep_the_stable_order(self, r):
        # Under a uniform binary Q most classes tie with others; the table
        # keeps the order of a stable argsort of -metric bit for bit.
        n = sum(r)
        table = competitor_class_table(np.array(r), UNIF, n)
        metrics, log_probs, suffix, counts = reference_class_table(r, UNIF, n)
        assert np.count_nonzero(metrics[1:] == metrics[:-1]) > metrics.size // 2
        assert table.metrics.tobytes() == metrics.tobytes()
        assert table.log_probs.tobytes() == log_probs.tobytes()
        assert table.suffix_logsum.tobytes() == suffix.tobytes()
        assert np.array_equal(table.counts, counts)


@st.composite
def shared_rows_batch_and_q(draw):
    """A batch of joint count matrices (2x2 to 3x3) whose rows have the same
    per-output totals r, as the codewords of a literal block have against
    one received word, with more cells than n; and a Q that may have zero
    letters."""
    nx, ny = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    q = np.array(draw(_weights(nx)), dtype=float)
    r = np.array(draw(st.lists(st.integers(0, 12), min_size=ny, max_size=ny).filter(any)))
    n = int(r.sum())
    size = n + draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.stack([rng.multinomial(ry, np.full(nx, 1.0 / nx), size=size) for ry in r], axis=1)
    return counts.astype(np.int64), r, n, Distribution(q / q.sum())


class TestDecodeMetricKernel:
    @settings(max_examples=150, deadline=None)
    @given(shared_rows_batch_and_q())
    def test_integer_path_equals_float_path(self, case):
        counts, r, n, q = case
        floats = decode_metric(counts.astype(float), n, q)
        for batch in (counts, counts.astype(np.uint8)):
            assert decode_metric(batch, n, q).tobytes() == floats.tobytes()
            assert decode_metric(batch, n, q, received=r).tobytes() == floats.tobytes()

    @pytest.mark.parametrize(
        "shape",
        [(1, 1), (2, 3), (3, 3), (2, 4), (4, 4), (3, 7), (12, 12), (13, 11)],
        ids=lambda shape: f"{shape[0]}x{shape[1]}",
    )
    def test_cell_sum_is_numpys_sum_order(self, shape):
        # Below 8 cells, 8-15, 16 and over (a second block of eight), and
        # over 128 (numpy halves the run): the plane-wise sum of a cell-major
        # batch equals .sum(axis=(-2, -1)) of the row-major batch bit for bit,
        # also where every cell is -0.0 (the sum starts from 0.0).
        rng = np.random.default_rng(sum(shape))
        batch = rng.standard_normal((64,) + shape) * 10.0 ** rng.uniform(-5, 5, (64,) + shape)
        batch[:4] = -0.0
        cell_major = np.ascontiguousarray(np.moveaxis(batch, (-2, -1), (0, 1)))
        summed = _cell_sum(_cells(np.moveaxis(cell_major, (0, 1), (-2, -1))))
        assert summed.tobytes() == batch.sum(axis=(-2, -1)).tobytes()


class TestExactProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(1, 4), st.floats(0.0, 0.6), st.floats(0.0, 0.3))
    def test_type_probabilities_sum_to_one(self, data, n, rate, delta):
        # 2x2 to 3x3 channels and Qs, both possibly with zero entries.
        nx, ny = data.draw(st.integers(2, 3)), data.draw(st.integers(2, 3))
        q = np.array(data.draw(_weights(nx)), dtype=float)
        rows = np.array([data.draw(_weights(ny)) for _ in range(nx)], dtype=float)
        p = Channel(rows / rows.sum(axis=1, keepdims=True))
        rep = exact_finite_n(n, rate, delta, Distribution(q / q.sum()), p)
        assert math.fsum(rep.per_type_breakdown.probability.tolist()) == pytest.approx(1.0, abs=1e-12)


class TestTypeCap:
    def test_refusal_names_the_count_and_the_cap(self, monkeypatch):
        # Nothing is enumerated: the count is checked first.
        monkeypatch.setattr("nts.oracle.competitor_class_table", None)
        p = Channel(np.full((3, 3), 1 / 3))
        n = 1
        while math.comb(n + 8, 8) <= TYPE_CAP:
            n += 1
        with pytest.raises(ResourceLimitError, match=f"{math.comb(n + 8, 8)} joint types at n = {n} exceed the cap TYPE_CAP = {TYPE_CAP}"):
            exact_finite_n(n, 0.0, 0.1, Distribution.uniform(3), p)


class TestMinOverSmallSupports:
    def test_identity_rate_03(self):
        val, support = min_over_small_supports(0.3, Channel(np.eye(2)))
        assert val == pytest.approx(0.3, abs=1e-8)
        assert len(support) == 1

    def test_rate_zero_is_inf(self):
        val, support = min_over_small_supports(0.0, BSC)
        assert val == math.inf and support is None

    def test_bsc_rate_02(self):
        val, _ = min_over_small_supports(0.2, BSC)
        assert val == pytest.approx(0.2, abs=1e-8)

    def test_matches_direct_minimization_on_pairs(self):
        p = Channel(np.array([[0.85, 0.1, 0.05], [0.05, 0.9, 0.05], [0.1, 0.1, 0.8]]))
        rate = 0.4
        val, support = min_over_small_supports(rate, p)
        # brute-force check over a fine grid on every qualifying support
        best = math.inf
        for size in (1, 2, 3):
            for sup in itertools.combinations(range(3), size):
                if capacity(p, sup) >= rate:
                    continue
                if size == 1:
                    best = min(best, correct_exponent_ml(rate, Distribution.point_mass(3, sup[0]), p).value)
                elif size == 2:
                    for t in np.linspace(0, 1, 201):
                        probs = np.zeros(3)
                        probs[sup[0]], probs[sup[1]] = t, 1 - t
                        best = min(best, correct_exponent_ml(rate, Distribution(probs), p).value)
        assert val <= best + 1e-6

    def test_alphabet_cap(self):
        p = Channel(np.full((7, 2), 0.5))
        with pytest.raises(ResourceLimitError, match=f"input alphabet 7 exceeds the cap SUPPORT_INPUT_CAP = {SUPPORT_INPUT_CAP}"):
            min_over_small_supports(0.1, p)


def _reference_pair_minimum(obj: _SupportObjective, pair: tuple) -> float:
    """The per-pair search, one point per call: a 24-point start grid, then a
    44-step scalar golden section on the bracket around its argmin, keeping
    the lower of the two minima."""
    nx = obj.matrix.shape[0]

    def rows(ts):
        q = np.zeros((len(ts), nx))
        q[:, pair[0]], q[:, pair[1]] = ts, 1.0 - np.asarray(ts)
        return q

    ts = np.linspace(0.0, 1.0, 24)
    vals = obj.values_and_rhos(rows(ts))[0].tolist()
    i = int(np.argmin(vals))

    def scalar(t):
        return float(obj.values_and_rhos(rows([t]))[0][0])

    _, ft = _scalar_golden_min(scalar, float(ts[max(i - 1, 0)]), float(ts[min(i + 1, ts.size - 1)]))
    return min(ft, min(vals))


def _random_channel(draw, inputs, outputs):
    """A random channel with ``inputs`` x ``outputs`` letters drawn from the
    given strategies, with up to two zero entries."""
    nx, ny = draw(inputs), draw(outputs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.dirichlet(np.full(ny, 0.7), size=nx)
    for x, y in draw(st.lists(st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1)), max_size=2)):
        if np.count_nonzero(rows[x]) > 1:
            rows[x, y] = 0.0
    return Channel(rows / rows.sum(axis=1, keepdims=True)), rng


@st.composite
def channel_and_rate(draw):
    """A random 2x2 to 3x3 channel, possibly with zero entries, and a rate
    between 0.3 and 1.8 times its capacity."""
    p, _ = _random_channel(draw, st.integers(2, 3), st.integers(2, 3))
    return p, capacity(p) * draw(st.floats(0.3, 1.8))


class TestPairZoom:
    @settings(max_examples=8, deadline=None)
    @given(channel_and_rate())
    def test_matches_the_scalar_search_and_the_grid(self, case):
        p, rate = case
        nx = p.num_inputs
        obj = _SupportObjective(rate, p)
        supports = [
            sup for size in range(1, nx + 1) for sup in itertools.combinations(range(nx), size) if capacity(p, sup) < rate
        ]
        pairs = [sup for sup in supports if len(sup) == 2]
        ref = {sup: _reference_pair_minimum(obj, sup) for sup in pairs}
        if pairs:
            got = _minimize_over_pairs(obj, pairs)
            for pair, val in zip(pairs, got.tolist()):
                assert val == ref[pair]
                for t in np.linspace(0.0, 1.0, 201):
                    probs = np.zeros(nx)
                    probs[pair[0]], probs[pair[1]] = t, 1.0 - t
                    assert val <= correct_exponent_ml(rate, Distribution(probs), p).value + 1e-12

        # The reference minimum over all supports, in the reporting order.
        for sup in supports:
            if len(sup) == 1:
                ref[sup] = float(obj.values_and_rhos(np.eye(nx)[[sup[0]]])[0][0])
            elif len(sup) > 2:
                ref[sup] = _minimize_over_support(obj, sup)
        ref_val, ref_support = math.inf, None
        for sup in supports:
            if ref[sup] < ref_val:
                ref_val, ref_support = ref[sup], sup
        val, support = min_over_small_supports(rate, p)
        if not supports:  # a capacity-0 channel at rate 0
            assert (val, support) == (math.inf, None)
            return
        assert val == pytest.approx(ref_val, rel=1e-10, abs=1e-15)
        # Supports whose minima agree within that tolerance (a channel with
        # two equal rows has mirror-image pairs) are tied, and roundoff picks
        # among them; any other reference winner must be matched exactly.
        tied = [sup for sup in supports if ref[sup] <= ref_val + 2e-10 * abs(ref_val) + 2e-15]
        assert support == ref_support if len(tied) == 1 else support in tied

    def test_one_grid_call_then_the_golden_section_of_every_pair(self, monkeypatch):
        # The start grid of every pair in one call, then one golden section
        # per pair in lockstep: 2 points per pair, then 15 in each of 11 calls.
        p = Channel(np.array([[0.85, 0.1, 0.05], [0.05, 0.9, 0.05], [0.1, 0.1, 0.8]]))
        obj = _SupportObjective(1.0, p)
        batches = []
        values_and_rhos = obj.values_and_rhos
        monkeypatch.setattr(obj, "values_and_rhos", lambda q: batches.append(len(q)) or values_and_rhos(q))
        _minimize_over_pairs(obj, [(0, 1), (0, 2), (1, 2)])
        assert batches == [3 * 24, 3 * 2] + [3 * 15] * 11


def _reference_support_minimum(obj: _SupportObjective, support: tuple) -> float:
    """The former search over a support of three or more letters: projected
    descents from the uniform point and 19 seeded Dirichlet starts, run in
    lockstep, keeping the lowest end value."""
    s = len(support)
    nx = obj.matrix.shape[0]
    rng = np.random.default_rng(0)
    starts = [np.full(s, 1.0 / s)] + [rng.dirichlet(np.ones(s)) for _ in range(19)]

    def values_and_rhos(x):
        return obj.values_and_rhos(_on_support(support, x, nx))

    def gradients(x, rho):
        return obj.gradients(_on_support(support, x, nx), rho)[:, list(support)]

    x = np.array([project_simplex(np.asarray(x0)) for x0 in starts])
    fx, rho = values_and_rhos(x)
    g = gradients(x, rho)
    step = np.full(len(starts), 0.5)
    moves = np.zeros(len(starts), dtype=int)
    live = np.arange(len(starts))
    while live.size:
        cand = np.array([project_simplex(v) for v in x[live] - step[live, None] * g[live]])
        fc, rho_c = values_and_rhos(cand)
        better = fc < fx[live] - 1e-12
        moved, failed = live[better], live[~better]
        x[moved], fx[moved] = cand[better], fc[better]
        g[moved] = gradients(cand[better], rho_c[better])
        step[moved] = np.minimum(step[moved] * 1.5, 2.0)
        moves[moved] += 1
        step[failed] *= 0.5
        live = np.sort(np.concatenate((moved[moves[moved] < 120], failed[step[failed] > 1e-10])))
    return float(fx.min())


@st.composite
def channel_rate_and_segment(draw):
    """A random 3x2 to 4x3 channel with zero entries, a rate between 0.3 and
    1.8 times its capacity, two full-support Q rows and a mixing weight."""
    p, rng = _random_channel(draw, st.integers(3, 4), st.integers(2, 3))
    a, b = rng.dirichlet(np.ones(p.num_inputs), size=2)
    return p, capacity(p) * draw(st.floats(0.3, 1.8)), a, b, draw(st.floats(0.0, 1.0))


@st.composite
def channel_above_capacity(draw):
    """A random 3x2 to 4x3 channel with zero entries and a rate between 1.05
    and 1.8 times its capacity, so that every support qualifies."""
    p, _ = _random_channel(draw, st.integers(3, 4), st.integers(2, 3))
    return p, capacity(p) * draw(st.floats(1.05, 1.8))


class TestSupportDescent:
    @settings(max_examples=60, deadline=None)
    @given(channel_rate_and_segment())
    def test_objective_is_convex(self, case):
        # The single descent of _minimize_over_support rests on this.
        p, rate, a, b, t = case
        vals = _SupportObjective(rate, p).values_and_rhos(np.array([a, b, t * a + (1.0 - t) * b]))[0]
        assert vals[2] <= t * vals[0] + (1.0 - t) * vals[1] + 1e-12

    @settings(max_examples=6, deadline=None)
    @given(channel_above_capacity())
    def test_no_higher_than_the_multi_start_descent(self, case):
        p, rate = case
        nx = p.num_inputs
        obj = _SupportObjective(rate, p)
        supports = [sup for size in range(1, nx + 1) for sup in itertools.combinations(range(nx), size)]
        pairs = [sup for sup in supports if len(sup) == 2]
        vals = {(x,): float(v) for x, v in enumerate(obj.values_and_rhos(np.eye(nx))[0])}
        vals.update(zip(pairs, _minimize_over_pairs(obj, pairs).tolist()))
        larger = [sup for sup in supports if len(sup) > 2]
        vals.update((sup, _minimize_over_support(obj, sup)) for sup in larger)
        for sup in larger:
            # The descent refuses steps onto a face where rho* = -1, whose
            # value is the face's own minimum: there the face's search
            # matches the reference.
            covered = min(val for face, val in vals.items() if set(face) <= set(sup))
            assert covered <= _reference_support_minimum(obj, sup) * (1 + 1e-14)

    def test_steps_around_a_face_where_rho_is_minus_one(self):
        # From the uniform point, a step onto the face {0, 3} lowers the value
        # to that face's minimum, where rho* = -1 and the gradient vanishes;
        # the minimum over {0, 1, 3} lies inside the support and is lower.
        rows = np.array([
            [0.04101044, 0.93846737, 0.02052219],
            [0.01755113, 0.46990157, 0.51254729],
            [0.18559906, 0.76333701, 0.05106393],
            [0.44679148, 0.05472800, 0.49848052],
        ])
        obj = _SupportObjective(0.7104648427880704, Channel(rows / rows.sum(axis=1, keepdims=True)))
        val = _minimize_over_support(obj, (0, 1, 3))
        assert val <= _reference_support_minimum(obj, (0, 1, 3)) * (1 + 1e-14)
        assert val < _minimize_over_pairs(obj, [(0, 3)])[0] - 5e-4


class TestProjectSimplex:
    def test_projects_to_simplex(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.normal(size=5)
            x = project_simplex(v)
            assert abs(x.sum() - 1) < 1e-12
            assert np.all(x >= 0)

    def test_fixed_point_inside(self):
        x = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_simplex(x), x, atol=1e-12)

    def test_entries_beyond_float_resolution(self):
        # a[0] - 1 rounds to a[0], so the sort-based rule finds no index.
        x = project_simplex(np.array([1e17, -1e17, 0.0]))
        assert np.array_equal(x, [1.0, 0.0, 0.0])


def _scalar_golden_min(fun, lo: float, hi: float):
    """The one-point-per-call golden-section search that ``_golden_min``
    batches."""
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = fun(c), fun(d)
    for _ in range(44):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = fun(d)
    return (c, fc) if fc <= fd else (d, fd)


@st.composite
def line_function(draw):
    """A bracket and a function on it: a parabola plus a ripple (several
    local minima at high frequency), optionally rounded to a step (plateaus
    and ties), or a constant."""
    lo = draw(st.floats(-2.0, 1.0))
    hi = lo + draw(st.floats(1e-6, 3.0))
    t0, curve = draw(st.floats(-3.0, 3.0)), draw(st.floats(0.0, 5.0))
    amp, freq = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 60.0))
    step = draw(st.sampled_from([0.0, 1e-3, 0.05, 1.0, math.inf]))

    def f(t):
        v = curve * (t - t0) ** 2 + amp * math.sin(freq * t)
        if step == math.inf:
            return 0.5
        return round(v / step) * step if step else v

    return f, lo, hi


@st.composite
def objective_case(draw):
    """A random 2x2 to 3x3 channel with zero entries, a Q that may miss a
    letter, a joint or conditional sweep at the coarsest resolution, a kind, a
    rate and a batch of its points with zero entries."""
    p, rng = _random_channel(draw, st.integers(2, 3), st.integers(2, 3))
    probs = rng.dirichlet(np.ones(p.num_inputs))
    if draw(st.booleans()):
        probs[draw(st.integers(0, p.num_inputs - 1))] = 0.0
    q = Distribution(probs / probs.sum())
    sweep = (conditional_sweep if draw(st.booleans()) else joint_sweep)(q, p, MIN_RESOLUTION)
    points = rng.dirichlet(np.ones(sweep.row_len), size=(draw(st.integers(1, 16)), sweep.grid.shape[1] // sweep.row_len))
    points[rng.random(points.shape) < 0.3] = 0.0
    points[..., 0] += points.sum(axis=-1) == 0
    points /= points.sum(axis=-1, keepdims=True)
    kind = draw(st.sampled_from(list(ImplicitKind)))
    return _Objective(kind, draw(st.floats(0.0, 1.5)), sweep), points.reshape(points.shape[0], -1)


def _reference_value(obj: _Objective, m: np.ndarray) -> float:
    """The refined objective at one joint mass (|Y|, |X|), in Python floats,
    as the one-point objective computed it before the batched form."""
    q, p = obj.sweep.q, obj.sweep.p
    qp = q.probs[None, :] * p.matrix.T
    logqp, logq = guarded_log(qp, 0.0), guarded_log(q.probs, 0.0)
    pos = m > 0
    if np.any(pos & (qp == 0)):
        return math.inf
    logm = np.log(np.maximum(m, 1e-300))
    mlogm = float((np.where(pos, m * logm, 0.0)).sum())
    d = mlogm - float((m * logqp).sum())
    t = m.sum(axis=1)
    tlogt = float((np.where(t > 0, t * np.log(np.maximum(t, 1e-300)), 0.0)).sum())
    g = mlogm - tlogt - float((m * logq[None, :]).sum())
    sign, weight = obj.rule
    return d + weight * max(sign * (g - obj.rate), 0.0)


def _reference_projection(v: np.ndarray) -> np.ndarray:
    """The one-row sort-based projection that ``project_simplex`` batches."""
    n = v.size
    a = -np.sort(-v)
    cum = (np.cumsum(a) - 1.0) / np.arange(1, n + 1)
    above = np.nonzero(a > cum)[0]
    if above.size == 0:
        return _reference_projection(v - v.max())
    return np.maximum(v - cum[above[-1]], 0.0)


@st.composite
def rows_to_project(draw):
    """A batch of rows, with repeated, zero and far-apart entries."""
    n = draw(st.integers(1, 9))
    entry = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, 1.0, -1e17, 1e17, 1e-300]))
    return np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=8)))


class TestBatchedLineSearch:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(line_function(), min_size=1, max_size=4))
    def test_golden_section_is_the_scalar_search(self, cases):
        calls = []

        def batched(points):
            calls.append(points.shape)
            return np.array([[f(t) for t in row] for (f, _, _), row in zip(cases, points.tolist())])

        lo, hi = np.array([case[1] for case in cases]), np.array([case[2] for case in cases])
        points, values = _golden_min(batched, lo, hi)
        for (f, a, b), t, ft in zip(cases, points.tolist(), values.tolist()):
            assert (t, ft) == _scalar_golden_min(f, a, b)
        assert calls == [(len(cases), 2)] + [(len(cases), 15)] * 11

    @settings(max_examples=40, deadline=None)
    @given(objective_case())
    def test_batched_objective_is_the_one_point_value(self, case):
        obj, points = case
        values = obj.values(points)
        for x, value, m in zip(points, values.tolist(), obj.sweep.masses(points)):
            assert obj.fg(x)[0] == value
            assert _reference_value(obj, m) == value

    @settings(max_examples=300, deadline=None)
    @given(rows_to_project())
    def test_projection_is_the_one_row_projection(self, rows):
        for row, projected in zip(rows, project_simplex(rows)):
            assert np.array_equal(projected, _reference_projection(row))
            assert np.array_equal(project_simplex(row), _reference_projection(row))

    def test_projection_beyond_float_resolution(self):
        rows = np.array([[1e17, -1e17, 0.0], [0.2, 0.3, 0.5], [-1e17, 1e17, 1e17]])
        for row, projected in zip(rows, project_simplex(rows)):
            assert np.array_equal(projected, _reference_projection(row))


class TestSupportGradient:
    def test_matches_central_differences_of_e0(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for case in range(20):
            rows = rng.dirichlet(np.ones(3), size=3)
            if case % 2:
                rows[rng.integers(3), rng.integers(3)] = 0.0
                rows /= rows.sum(axis=1, keepdims=True)
            p = Channel(rows)
            qs = rng.dirichlet(np.ones(3), size=4)
            rhos = rng.uniform(-0.9, -0.1, size=4)
            grad = _SupportObjective(0.3, p).gradients(qs, rhos)
            logp = guarded_log(p.matrix, -np.inf)
            for q, rho, g in zip(qs, rhos, grad):
                def e0(v):
                    return -_log_partition(np.array([rho]), np.log(v), logp)[-1][0]

                fd = [(e0(q + h * e) - e0(q - h * e)) / (2 * h) for e in np.eye(3)]
                assert g == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_zero_at_the_rho_edges(self):
        qs = np.array([[0.3, 0.7], [0.5, 0.5]])
        grad = _SupportObjective(0.3, BSC).gradients(qs, np.array([-1.0, 0.0]))
        assert np.array_equal(grad, np.zeros((2, 2)))


@st.composite
def counts_batch_and_q(draw):
    """A batch of 1-4 joint count matrices (2x2 to 3x3) with a common total n,
    and a Q that may have zero letters."""
    nx, ny = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    q = np.array(draw(st.lists(st.integers(0, 4), min_size=nx, max_size=nx).filter(any)), dtype=float)
    n = draw(st.integers(1, 9))
    batch = []
    for _ in range(draw(st.integers(1, 4))):
        cuts = sorted(draw(st.lists(st.integers(0, n), min_size=nx * ny - 1, max_size=nx * ny - 1)))
        batch.append(np.diff([0, *cuts, n]).reshape(ny, nx))
    return np.array(batch, dtype=np.int64), n, Distribution(q / q.sum())


class TestDecodeMetric:
    @settings(max_examples=150, deadline=None)
    @given(counts_batch_and_q())
    def test_batch_per_output_and_support(self, case):
        counts, n, q = case
        vals = decode_metric(counts, n, q)
        assert vals.shape == (counts.shape[0],)
        supp = q.support
        off = ((counts > 0) & (q.probs == 0)).any(axis=(1, 2))
        assert np.array_equal(np.isinf(vals), off)
        for c, v in zip(counts, vals):
            assert decode_metric(c, n, q) == v
            if np.isfinite(v):
                assert v >= -1e-15
                per_output = sum(
                    float(_output_metrics(row[None, supp], int(row.sum()), np.log(q.probs[supp]), n)[0]) for row in c
                )
                assert per_output == pytest.approx(v, abs=1e-12)
