"""Command-line front end: strict JSON config parsing, command dispatch, and
deterministic CSV/JSON emission with a run manifest next to every output.

Exit codes: 0 success, 1 usage, 2 I/O, 3 config, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .itcore import Channel, Distribution, ResourceLimitError, kl_masses
from .exponents import (
    StrictDomainReport,
    correct_exponent_ml,
    correct_exponent_ml_sweep,
    correct_exponent_strict,
    error_exponent,
    error_exponent_sweep,
    minus_one_family,
)
from .oracle import ImplicitKind, cc_bound, exact_finite_n, implicit_exponent
from .iterate import check_lower_than, fixed_rate_run, fixed_slope_run
from .simulate import Scheme, SimConfig, nts_run

_COMMANDS = ("curves", "iterate-rate", "iterate-slope", "oracle", "exact", "simulate")
_PARAM_KEYS = {"rate", "delta", "rho", "n", "blocks", "seed", "rate_grid"}
_ORACLE_RESOLUTION = 60
# Longest accepted rate grid: each rate is one |X| x |Y| slab of the batched
# exponent evaluation in `curves`.
_MAX_RATES = 100_000


class ConfigError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class ChannelConfig:
    input_alphabet_size: int
    output_alphabet_size: int
    matrix: np.ndarray
    name: str | None = None


@dataclass(frozen=True)
class RunManifest:
    command: str
    parameters: dict
    seed: int | None
    version: str
    timestamp: str
    outputs: tuple

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "version": self.version,
            "timestamp": self.timestamp,
            "outputs": list(self.outputs),
        }


def _require_keys(obj: dict, allowed: set, where: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}" if where else key, "unknown key")


def _is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def parse_config(path: str):
    """Load and validate a config file: channel, q0, and command parameters."""
    with open(path, "r") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError("<root>", f"not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "top level must be an object")
    _require_keys(raw, {"channel", "q0", "params"}, "")
    if "channel" not in raw:
        raise ConfigError("channel", "missing")
    if "q0" not in raw:
        raise ConfigError("q0", "missing")

    chan = raw["channel"]
    if not isinstance(chan, dict):
        raise ConfigError("channel", "must be an object")
    _require_keys(chan, {"rows", "name"}, "channel")
    if "rows" not in chan:
        raise ConfigError("channel.rows", "missing")
    try:
        channel = Channel(np.asarray(chan["rows"], dtype=float))
    except (ValueError, TypeError) as e:
        raise ConfigError("channel.rows", str(e)) from e

    try:
        q0 = Distribution(np.asarray(raw["q0"], dtype=float))
    except (ValueError, TypeError) as e:
        raise ConfigError("q0", str(e)) from e
    if len(q0) != channel.num_inputs:
        raise ConfigError("q0", f"length {len(q0)} does not match channel inputs {channel.num_inputs}")

    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params", "must be an object")
    _require_keys(params, _PARAM_KEYS, "params")
    if "rate_grid" in params:
        rg = params["rate_grid"]
        if not isinstance(rg, dict):
            raise ConfigError("params.rate_grid", "must be an object")
        _require_keys(rg, {"start", "stop", "step"}, "params.rate_grid")
        for key in ("start", "stop", "step"):
            if key not in rg:
                raise ConfigError(f"params.rate_grid.{key}", "missing")
            if not _is_finite_number(rg[key]):
                raise ConfigError(f"params.rate_grid.{key}", f"must be a finite number, got {rg[key]!r}")
        if rg["step"] <= 0 or rg["stop"] < rg["start"]:
            raise ConfigError("params.rate_grid", "need step > 0 and stop >= start")
        if not _grid_span(rg) < _MAX_RATES:
            raise ConfigError("params.rate_grid", f"more than {_MAX_RATES} rates")

    cfg = ChannelConfig(
        input_alphabet_size=channel.num_inputs,
        output_alphabet_size=channel.num_outputs,
        matrix=channel.matrix,
        name=chan.get("name"),
    )
    return cfg, channel, q0, params


def _need(params: dict, key: str, command: str):
    if key not in params:
        raise ConfigError(f"params.{key}", f"missing (required by `{command}`)")
    return params[key]


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def _write_csv(path: str, header: list, rows: list):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, obj):
    with open(path, "w", newline="") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit_manifest(out_dir: str, command: str, params: dict, seed, outputs: list):
    manifest = RunManifest(
        command=command,
        parameters=params,
        seed=seed,
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
        outputs=tuple(outputs),
    )
    _write_json(os.path.join(out_dir, f"{command.replace('-', '_')}_manifest.json"), manifest.to_dict())


def _grid_span(rg: dict) -> float:
    """Number of steps in the rate grid (its length minus one), unrounded."""
    return (float(rg["stop"]) - float(rg["start"])) / float(rg["step"]) + 1e-9


def _rate_grid(params: dict) -> list:
    rg = _need(params, "rate_grid", "curves")
    start, step = float(rg["start"]), float(rg["step"])
    count = int(math.floor(_grid_span(rg))) + 1
    return [start + i * step for i in range(count)]


def _cmd_curves(channel: Channel, q0: Distribution, params: dict, out_dir: str) -> list:
    rates = _rate_grid(params)
    err = error_exponent_sweep(rates, q0, channel)
    corr = correct_exponent_ml_sweep(rates, q0, channel)
    # The strict exponent equals the ML one up to r_plus and is not given
    # by the explicit formula above it.
    r_plus = minus_one_family(q0, channel).r_plus
    rows = []
    for i, rate in enumerate(rates):
        strict = None if rate > r_plus else corr.value[i]
        rows.append((rate, err.value[i], corr.value[i], strict, err.rho_star[i], corr.rho_star[i]))
    path = os.path.join(out_dir, "curves.csv")
    _write_csv(
        path,
        ["rate", "error_exponent", "correct_ml", "correct_strict", "rho_star_err", "rho_star_corr"],
        rows,
    )
    return [path]


def _cmd_iterate_rate(channel: Channel, q0: Distribution, params: dict, out_dir: str) -> list:
    rate = float(_need(params, "rate", "iterate-rate"))
    run = fixed_rate_run(q0, rate, channel)
    rows = []
    for l, rec in enumerate(run.records):
        rows.append(
            (l, rec.exponent_before, kl_masses(rec.q_after.probs, rec.q_before.probs), rec.rho_hat)
            + tuple(rec.q_before.probs)
        )
    header = ["l", "exponent", "kl_next_prev", "rho_hat"] + [f"q{i}" for i in range(len(q0))]
    csv_path = os.path.join(out_dir, "iterate_rate.csv")
    _write_csv(csv_path, header, rows)

    check = check_lower_than(q0, rate, channel)
    summary = {
        "iterations": len(run.records),
        "final_exponent": run.final_exponent,
        "reached_zero": run.reached_zero,
        "support_shrank": run.support_shrank,
        "final_q": [float(v) for v in run.final_q.probs],
        "check_lower_than": {
            "holds": check.holds,
            "lhs": check.lhs,
            "rhs": check.rhs,
            "worst_support": list(check.worst_support) if check.worst_support else None,
        },
    }
    json_path = os.path.join(out_dir, "iterate_rate_summary.json")
    _write_json(json_path, summary)
    return [csv_path, json_path]


def _cmd_iterate_slope(channel: Channel, q0: Distribution, params: dict, out_dir: str) -> list:
    rho = float(_need(params, "rho", "iterate-slope"))
    run = fixed_slope_run(q0, rho, channel)
    rows = [
        (l, rec.objective_mid, rec.objective_after, kl_masses(rec.q_after.probs, rec.q_before.probs))
        + tuple(rec.q_before.probs)
        for l, rec in enumerate(run.records)
    ]
    header = ["l", "objective_mid", "objective_after", "kl_next_prev"] + [f"q{i}" for i in range(len(q0))]
    csv_path = os.path.join(out_dir, "iterate_slope.csv")
    _write_csv(csv_path, header, rows)
    summary = {
        "iterations": len(run.records),
        "final_objective": run.final_objective,
        "stationarity_residual": run.stationarity,
        "final_q": [float(v) for v in run.final_q.probs],
    }
    json_path = os.path.join(out_dir, "iterate_slope_summary.json")
    _write_json(json_path, summary)
    return [csv_path, json_path]


def _cmd_oracle(channel: Channel, q0: Distribution, params: dict, out_dir: str) -> list:
    rate = float(_need(params, "rate", "oracle"))
    rows = []
    cc_rows = []
    for kind, explicit in (
        (ImplicitKind.ERROR_IID, error_exponent(rate, q0, channel).value),
        (ImplicitKind.CORRECT_ML, correct_exponent_ml(rate, q0, channel).value),
        (
            ImplicitKind.CORRECT_STRICT,
            (lambda r: None if isinstance(r, StrictDomainReport) else r.value)(
                correct_exponent_strict(rate, q0, channel)
            ),
        ),
    ):
        implicit = implicit_exponent(kind, rate, q0, channel, _ORACLE_RESOLUTION)
        diff = None if explicit is None or not math.isfinite(implicit) else abs(implicit - explicit)
        rows.append((kind.value, rate, explicit, implicit if math.isfinite(implicit) else None, diff))
        cc = cc_bound(kind, rate, q0, channel, _ORACLE_RESOLUTION)
        cc_rows.append((kind.value, rate, cc if math.isfinite(cc) else None, explicit))

    compare_path = os.path.join(out_dir, "oracle_compare.csv")
    _write_csv(compare_path, ["kind", "rate", "explicit", "implicit", "abs_diff"], rows)
    cc_path = os.path.join(out_dir, "cc_bound.csv")
    _write_csv(cc_path, ["kind", "rate", "cc_bound", "explicit"], cc_rows)
    return [compare_path, cc_path]


def _cmd_exact(channel: Channel, q0: Distribution, params: dict, out_dir: str) -> list:
    n = int(_need(params, "n", "exact"))
    rate = float(_need(params, "rate", "exact"))
    delta = float(params.get("delta", 0.0))
    report = exact_finite_n(n, rate, delta, q0, channel)
    obj = {
        "n": report.n,
        "m": report.m,
        "p_error": report.p_error,
        "p_correct_strict": report.p_correct_strict,
        "p_feedback1": report.p_feedback1,
        "per_type_breakdown": [
            {
                "counts": row.joint_type.counts.tolist(),
                "probability": row.probability,
                "p_fail_strict": row.p_fail_strict,
                "p_correct_strict": row.p_correct_strict,
                "p_feedback1": row.p_feedback1,
            }
            for row in report.per_type_breakdown
        ],
    }
    path = os.path.join(out_dir, "exact.json")
    _write_json(path, obj)
    return [path]


def _cmd_simulate(channel: Channel, q0: Distribution, params: dict, out_dir: str) -> list:
    n = int(_need(params, "n", "simulate"))
    rate = float(_need(params, "rate", "simulate"))
    blocks = int(_need(params, "blocks", "simulate"))
    delta = float(params.get("delta", 0.0))
    seed = int(params.get("seed", 0))
    config = SimConfig(
        n=n,
        rate=rate,
        delta=delta,
        blocks=blocks,
        q0=q0,
        channel_schedule=((0, channel),),
        seed=seed,
        scheme=Scheme.MARGIN,
    )
    result = nts_run(config)
    rows = [
        (
            b,
            out.decoded if out.decoded is not None else None,
            out.correct,
            out.feedback,
            out.winner_metric,
            out.runner_up_metric,
        )
        for b, out in enumerate(result.trace)
    ]
    csv_path = os.path.join(out_dir, "simulate.csv")
    _write_csv(
        csv_path,
        ["block", "decoded", "correct", "feedback", "winner_metric", "runner_up_metric"],
        rows,
    )
    s = result.summary
    summary = {
        "blocks": s.blocks,
        "feedback_rate": s.feedback_rate,
        "error_rate": s.error_rate,
        "updates": s.updates,
        "desync_blocks": list(s.desync_blocks),
        "q_final": [float(v) for v in s.q_final.probs],
        "update_stats": [
            {
                "block": u.block,
                "desync": u.desync,
                "l1_to_minimizer": u.l1_to_minimizer,
                "guard_holds": u.guard_holds,
                "error_exp_at_rate": u.error_exp_at_rate,
                "correct_exp_at_rate_plus_delta": u.correct_exp_at_rate_plus_delta,
            }
            for u in s.update_stats
        ],
    }
    json_path = os.path.join(out_dir, "simulate_summary.json")
    _write_json(json_path, summary)
    return [csv_path, json_path]


_DISPATCH = {
    "curves": _cmd_curves,
    "iterate-rate": _cmd_iterate_rate,
    "iterate-slope": _cmd_iterate_slope,
    "oracle": _cmd_oracle,
    "exact": _cmd_exact,
    "simulate": _cmd_simulate,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nts", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        cp = sub.add_parser(name)
        cp.add_argument("--config", required=True)
        cp.add_argument("--out-dir", default=".")
    return parser


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1

    try:
        _, channel, q0, params = parse_config(args.config)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3

    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2

    _defaults = {"simulate": {"delta": 0.0, "seed": 0}, "exact": {"delta": 0.0}}
    try:
        outputs = _DISPATCH[args.command](channel, q0, params, args.out_dir)
        resolved = {**_defaults.get(args.command, {}), **params}
        _emit_manifest(args.out_dir, args.command, resolved, resolved.get("seed"), outputs)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3
    except (ResourceLimitError, ValueError, ArithmeticError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4
    return 0


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
