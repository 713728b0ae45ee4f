"""Output checks for each CLI command, and the output digest.

Each check reads the files a command wrote and returns a list of problems;
an empty list means the output passed.  The checks test invariants that any
correct implementation must meet, so they do not depend on how ``nts``
computes its results.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

# Slack for float round-off in the 12-significant-digit CSV values.
_EPS = 1e-12
# Bound of acceptance criterion 01 on |explicit - implicit| at resolution 60.
ORACLE_TOL = 3 / 60 + 1e-3
# Tolerance on probabilities that must sum to one.
PROB_TOL = 1e-9


def read_csv(path: str) -> list[dict]:
    """Rows of a CSV written by ``nts``; ``NA`` cells become None and other
    non-numeric cells stay strings."""
    with open(path) as fh:
        header, *lines = fh.read().splitlines()
    names = header.split(",")
    return [{k: _cell(v) for k, v in zip(names, line.split(","))} for line in lines]


def _cell(text: str):
    if text == "NA":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def _non_increasing(values: list, what: str) -> list[str]:
    for i in range(1, len(values)):
        if values[i] > values[i - 1] + _EPS * max(1.0, abs(values[i - 1])):
            return [f"{what} rises at row {i}: {values[i - 1]!r} -> {values[i]!r}"]
    return []


def check_curves(out_dir: str, mutual_info: float) -> list[str]:
    problems = []
    for row in read_csv(os.path.join(out_dir, "curves.csv")):
        rate = row["rate"]
        for key in ("error_exponent", "correct_ml", "correct_strict"):
            v = row[key]
            if v is None and key == "correct_strict":
                continue
            if v is None or not math.isfinite(v) or v < 0:
                problems.append(f"{key} = {v!r} at rate {rate}")
        # I(Q o P) is computed independently, so leave a margin around it.
        if rate >= mutual_info + 1e-9 and row["error_exponent"] != 0:
            problems.append(f"error exponent {row['error_exponent']} > 0 at rate {rate} >= I(Q o P)")
        if rate <= mutual_info - 1e-9 and row["correct_ml"] != 0:
            problems.append(f"correct_ml {row['correct_ml']} > 0 at rate {rate} <= I(Q o P)")
    return problems


def check_iterate_rate(out_dir: str) -> list[str]:
    rows = read_csv(os.path.join(out_dir, "iterate_rate.csv"))
    return _non_increasing([r["exponent"] for r in rows], "fixed-rate exponent")


def check_iterate_slope(out_dir: str) -> list[str]:
    rows = read_csv(os.path.join(out_dir, "iterate_slope.csv"))
    return _non_increasing([r["objective_after"] for r in rows], "fixed-slope objective_after")


def check_oracle(out_dir: str) -> list[str]:
    problems = []
    for row in read_csv(os.path.join(out_dir, "oracle_compare.csv")):
        diff = row["abs_diff"]
        if diff is not None and math.isfinite(diff) and diff > ORACLE_TOL:
            problems.append(f"abs_diff {diff} > {ORACLE_TOL} at rate {row['rate']}")
    return problems


def check_exact(out_dir: str) -> list[str]:
    with open(os.path.join(out_dir, "exact.json")) as fh:
        report = json.load(fh)
    problems = []
    total = report["p_error"] + report["p_correct_strict"]
    if abs(total - 1.0) > PROB_TOL:
        problems.append(f"p_error + p_correct_strict = {total!r}")
    mass = math.fsum(row["probability"] for row in report["per_type_breakdown"])
    if abs(mass - 1.0) > PROB_TOL:
        problems.append(f"per-type probabilities sum to {mass!r}")
    if report["p_feedback1"] > report["p_correct_strict"] + _EPS:
        problems.append(f"p_feedback1 {report['p_feedback1']} > p_correct_strict {report['p_correct_strict']}")
    return problems


def check_simulate(out_dir: str) -> list[str]:
    rows = read_csv(os.path.join(out_dir, "simulate.csv"))
    with open(os.path.join(out_dir, "simulate_summary.json")) as fh:
        summary = json.load(fh)
    blocks = max(len(rows), 1)
    problems = []
    if summary["blocks"] != len(rows):
        problems.append(f"summary has {summary['blocks']} blocks, CSV has {len(rows)}")
    feedback = sum(r["feedback"] for r in rows) / blocks
    errors = sum(1 for r in rows if r["correct"] == 0) / blocks
    if abs(summary["feedback_rate"] - feedback) > _EPS:
        problems.append(f"feedback_rate {summary['feedback_rate']} vs CSV {feedback}")
    if abs(summary["error_rate"] - errors) > _EPS:
        problems.append(f"error_rate {summary['error_rate']} vs CSV {errors}")
    return problems


def check_task(task, out_dir: str, exit_code: int, stderr: str) -> list[str]:
    """All problems with one task's outcome: exit code, message and outputs."""
    if exit_code != task.expect_exit:
        return [f"exit code {exit_code}, expected {task.expect_exit}: {stderr.strip()[:200]}"]
    if task.expect_exit != 0:
        if task.expect_stderr not in stderr:
            return [f"message {stderr.strip()[:200]!r} lacks {task.expect_stderr!r}"]
        return []
    command = task.command
    try:
        if command == "curves":
            return check_curves(out_dir, task.mutual_info)
        if command == "iterate-rate":
            return check_iterate_rate(out_dir)
        if command == "iterate-slope":
            return check_iterate_slope(out_dir)
        if command == "oracle":
            return check_oracle(out_dir)
        if command == "exact":
            return check_exact(out_dir)
        if command == "simulate":
            return check_simulate(out_dir)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"unreadable output: {e!r}"]
    return [f"no check for command {command!r}"]


def output_bytes(out_dir: str) -> dict[str, bytes]:
    """The files a task wrote, by name.  Manifests lose their timestamp and
    the directory part of their output paths, so two runs of the same code
    give the same bytes."""
    files = {}
    if not os.path.isdir(out_dir):
        return files
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name.endswith("_manifest.json"):
            manifest = json.loads(data)
            manifest.pop("timestamp", None)
            manifest["outputs"] = [os.path.basename(p) for p in manifest.get("outputs", [])]
            data = json.dumps(manifest, sort_keys=True).encode()
        files[name] = data
    return files


def update_digest(digest, index: int, files: dict[str, bytes]):
    """Fold one task's outputs into a running sha256."""
    for name, data in files.items():
        digest.update(f"{index}:{name}:{len(data)}\n".encode())
        digest.update(data)


def new_digest():
    return hashlib.sha256()
