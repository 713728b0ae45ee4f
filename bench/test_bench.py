"""Tests of the benchmark itself: output checks, tracing, per-layer coverage.

Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.setup("closed_form", 0)  # puts the checkout's nts and the bench modules on sys.path

import checks  # noqa: E402
import workloads  # noqa: E402
from nts.cli import run_command  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Task  # noqa: E402

BSC = {"channel": {"rows": [[0.9, 0.1], [0.1, 0.9]]}, "q0": [0.9, 0.1]}
BSC_INFO = workloads.mutual_info(np.array(BSC["channel"]["rows"]), np.array(BSC["q0"]))


def _run(tmp_path, command: str, config: dict) -> str:
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_command([command, "--config", str(cfg), "--out-dir", str(out)]) == 0
    return str(out)


def _rewrite_csv(path: str, column: str, row: int, value: str):
    lines = Path(path).read_text().splitlines()
    names = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[names.index(column)] = value
    lines[row + 1] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")


def _rewrite_json(path: str, edit):
    obj = json.loads(Path(path).read_text())
    edit(obj)
    Path(path).write_text(json.dumps(obj))


def test_curves_check_rejects_corruption(tmp_path):
    grid = {"start": 0.0, "stop": 1.3 * BSC_INFO, "step": 1.3 * BSC_INFO / 19}
    out = _run(tmp_path, "curves", {**BSC, "params": {"rate_grid": grid}})
    assert checks.check_curves(out, BSC_INFO) == []
    path = os.path.join(out, "curves.csv")
    _rewrite_csv(path, "error_exponent", 19, "0.01")  # positive above I(Q o P)
    assert checks.check_curves(out, BSC_INFO)
    _rewrite_csv(path, "error_exponent", 19, "0")
    _rewrite_csv(path, "correct_ml", 2, "-0.5")  # negative, and positive below I(Q o P)
    assert checks.check_curves(out, BSC_INFO)


def test_iterate_rate_check_rejects_corruption(tmp_path):
    out = _run(tmp_path, "iterate-rate", {**BSC, "params": {"rate": 0.6}})
    assert checks.check_iterate_rate(out) == []
    _rewrite_csv(os.path.join(out, "iterate_rate.csv"), "exponent", 3, "5")
    assert checks.check_iterate_rate(out)


def test_iterate_slope_check_rejects_corruption(tmp_path):
    out = _run(tmp_path, "iterate-slope", {**BSC, "params": {"rho": -0.5}})
    assert checks.check_iterate_slope(out) == []
    _rewrite_csv(os.path.join(out, "iterate_slope.csv"), "objective_after", 1, "5")
    assert checks.check_iterate_slope(out)


def test_oracle_check_rejects_corruption(tmp_path):
    out = _run(tmp_path, "oracle", {**BSC, "params": {"rate": 0.5 * BSC_INFO}})
    assert checks.check_oracle(out) == []
    _rewrite_csv(os.path.join(out, "oracle_compare.csv"), "abs_diff", 0, "0.2")
    assert checks.check_oracle(out)


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r.update(p_error=r["p_error"] + 1e-6),
        lambda r: r["per_type_breakdown"][0].update(probability=r["per_type_breakdown"][0]["probability"] + 1e-6),
        lambda r: r.update(p_feedback1=r["p_correct_strict"] + 1e-6),
    ],
    ids=["events", "types", "feedback"],
)
def test_exact_check_rejects_corruption(tmp_path, edit):
    out = _run(tmp_path, "exact", {**BSC, "params": {"n": 8, "rate": 0.2, "delta": 0.05}})
    assert checks.check_exact(out) == []
    _rewrite_json(os.path.join(out, "exact.json"), edit)
    assert checks.check_exact(out)


def test_simulate_check_rejects_corruption(tmp_path):
    params = {"n": 12, "rate": 0.3, "delta": 0.05, "blocks": 30, "seed": 3}
    out = _run(tmp_path, "simulate", {**BSC, "params": params})
    assert checks.check_simulate(out) == []
    path = os.path.join(out, "simulate_summary.json")
    _rewrite_json(path, lambda s: s.update(feedback_rate=s["feedback_rate"] + 1 / 30))
    assert checks.check_simulate(out)


def test_expected_exit_is_checked():
    probe = Task("simulate", {}, "probe", expect_exit=4, expect_stderr="exceeds cap 5000000")
    message = "numeric failure: competitor class count exceeds cap 5000000 at n=150"
    assert checks.check_task(probe, "unused", 4, message) == []
    assert checks.check_task(probe, "unused", 0, "")
    assert checks.check_task(probe, "unused", 4, "numeric failure: math range error")


def test_digest_ignores_timestamp_and_directory(tmp_path):
    config = {**BSC, "params": {"rho": -0.5}}
    first = checks.output_bytes(_run(tmp_path / "a", "iterate-slope", config))
    second = checks.output_bytes(_run(tmp_path / "b", "iterate-slope", config))
    assert first == second


# Per-layer metrics that must be non-zero on each workload: the layers the
# benchmark assigns to a workload, narrowed to the functions that workload's
# commands call.
ASSIGNED = {
    "closed_form": [
        "exponents.tilted_joint.calls", "exponents.tilted_joint.self_s", "exponents.exponent.calls",
        "exponents.exponent.s", "exponents.minus_one_family.calls", "exponents.capacity.calls",
        "exponents.capacity.s", "iterate.rate_steps", "iterate.rate_step.s", "iterate.slope_steps",
        "iterate.check_lower_than.s", "oracle.min_over_small_supports.s",
    ],
    "types_exact": [
        "oracle.implicit_exponent.s", "oracle.implicit_exponent.self_s", "oracle.cc_bound.s",
        "oracle.exact_finite_n.s", "oracle.exact_finite_n.self_s", "oracle.exact_finite_n.types",
        "oracle.competitor_class_table.calls", "oracle.competitor_class_table.s",
        "oracle.competitor_class_table.classes", "oracle.competitor_class_table.bytes_computed",
        "itcore.compositions_array.calls", "itcore.compositions_array.rows", "itcore.compositions_array.s",
        "itcore.compositions_array.bytes_computed", "itcore.type_objects", "itcore.type_objects.s",
        "cli.self_s", "cli.out_bytes",
    ],
    "nts_adapt": [
        "exponents.tilted_joint.calls", "exponents.exponent.calls", "exponents.exponent.s",
        "oracle.competitor_class_table.calls", "oracle.competitor_class_table.s",
        "oracle.competitor_class_table.classes", "oracle.decode_metric.calls",
        "itcore.empirical_joint_type.calls", "simulate.blocks.literal", "simulate.blocks.virtual",
        "simulate.block_s.literal", "simulate.block_s.virtual", "simulate.build_codebook.s",
        "simulate.table_builds_per_virtual_block", "simulate.exponents_s", "simulate.self_s",
        "simulate.updates_per_block", "simulate.erasures",
    ],
}


def _small_tasks(workload: str):
    # The anchors plus two random instances keep the test short while still
    # reaching every command and both simulator block paths.
    return workloads.make_tasks(workload, 7, 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_matches_untraced_and_covers_its_layers(workload):
    run.WORK_DIR.mkdir(exist_ok=True)
    tasks = _small_tasks(workload)
    untraced = run.run_pass(tasks)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_pass(tasks, tracer)
    finally:
        tracer.uninstall()
    assert untraced.failures == [] and traced.failures == []
    assert traced.digest == untraced.digest
    metrics = tracer.metrics()
    metrics["cli.out_bytes"] = traced.out_bytes
    zero = [name for name in ASSIGNED[workload] if not metrics[name] > 0]
    assert zero == []
    spans = len(tracer.span_start)
    assert spans == sum(tracer.calls[name] for name in tracer.names)
    assert set(tracer.span_task) == set(range(len(tasks)))


def test_tracer_uninstalls_cleanly():
    import nts.cli
    import nts.exponents
    import nts.simulate

    before = (nts.cli.correct_exponent_ml, nts.simulate.correct_exponent_ml, nts.exponents.correct_exponent_ml)
    tracer = Tracer()
    tracer.install()
    assert nts.simulate.correct_exponent_ml is not before[1]
    assert nts.cli.correct_exponent_ml is nts.simulate.correct_exponent_ml
    tracer.uninstall()
    assert (nts.cli.correct_exponent_ml, nts.simulate.correct_exponent_ml, nts.exponents.correct_exponent_ml) == before
