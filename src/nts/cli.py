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
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .itcore import Channel, Distribution, ResourceLimitError, kl_masses
from .exponents import (
    correct_exponent_ml,
    correct_exponent_ml_sweep,
    error_exponent,
    error_exponent_sweep,
    minus_one_family,
)
from .oracle import (
    ExactFiniteNReport,
    ImplicitKind,
    cc_bound,
    conditional_sweep,
    exact_finite_n,
    implicit_exponent,
    joint_sweep,
)
from .iterate import check_lower_than, fixed_rate_run, fixed_slope_run
from .simulate import Scheme, SimConfig, nts_run

_COMMANDS = ("curves", "iterate-rate", "iterate-slope", "oracle", "exact", "simulate")
_PARAM_KEYS = {"rate", "delta", "rho", "n", "blocks", "seed", "rate_grid"}
_ORACLE_RESOLUTION = 60
# Longest accepted rate grid: each rate is one |X| x |Y| slab of the batched
# exponent evaluation in `curves`.
_MAX_RATES = 100_000
# Scalar parameters: (kind, smallest accepted value or None).
_SCALAR_PARAMS = {
    "n": ("an integer", 1),
    "blocks": ("an integer", 1),
    "seed": ("an integer", 0),
    "rate": ("a finite number", 0),
    "delta": ("a finite number", 0),
    "rho": ("a finite number", None),
}
# Values of optional parameters, per command; the commands and the run
# manifest both read the params with these filled in.
_DEFAULTS = {"simulate": {"delta": 0.0, "seed": 0}, "exact": {"delta": 0.0}}


class ConfigError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunManifest:
    command: str
    parameters: dict
    seed: int | None
    version: str
    timestamp: str
    outputs: tuple


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
    """Load and validate a config file; returns ``(channel, q0, params)``."""
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
    for key, (kind, lowest) in _SCALAR_PARAMS.items():
        if key not in params:
            continue
        value = params[key]
        if kind == "an integer":
            valid = isinstance(value, int) and not isinstance(value, bool)
        else:
            valid = _is_finite_number(value)
        if not valid or (lowest is not None and value < lowest):
            bound = "" if lowest is None else f" >= {lowest}"
            raise ConfigError(f"params.{key}", f"must be {kind}{bound}, got {value!r}")
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
        if rg["start"] < 0:
            raise ConfigError("params.rate_grid.start", f"must be a finite number >= 0, got {rg['start']!r}")
        if rg["step"] <= 0 or rg["stop"] < rg["start"]:
            raise ConfigError("params.rate_grid", "need step > 0 and stop >= start")
        if not _grid_span(rg) < _MAX_RATES:
            raise ConfigError("params.rate_grid", f"more than {_MAX_RATES} rates")

    return channel, q0, params


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


def _finite_or_null(obj):
    """``obj`` with every non-finite float replaced by None (JSON ``null``,
    as the CSVs write ``NA``)."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _write_json(path: str, obj):
    with open(path, "w", newline="") as fh:
        json.dump(_finite_or_null(obj), fh, indent=2, sort_keys=True, allow_nan=False)
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
    _write_json(os.path.join(out_dir, f"{command.replace('-', '_')}_manifest.json"), asdict(manifest))


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
    # First, so that a refusal (SUPPORT_INPUT_CAP) leaves no output behind.
    check = check_lower_than(q0, rate, channel)
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
    summary = {
        "iterations": len(run.records),
        "final_exponent": run.final_exponent,
        "reached_zero": run.reached_zero,
        "support_shrank": run.support_shrank,
        "final_q": [float(v) for v in run.final_q.probs],
        "check_lower_than": asdict(check),
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
    ml = correct_exponent_ml(rate, q0, channel).value
    explicit = {
        ImplicitKind.ERROR_IID: error_exponent(rate, q0, channel).value,
        ImplicitKind.CORRECT_ML: ml,
        ImplicitKind.CORRECT_STRICT: None if rate > minus_one_family(q0, channel).r_plus else ml,
    }
    # One grid per minimum serves every kind; the joint one is dropped before
    # the conditional one is built.
    sweep = joint_sweep(q0, channel, _ORACLE_RESOLUTION)
    rows = []
    for kind, value in explicit.items():
        implicit = implicit_exponent(kind, rate, sweep)
        diff = None if value is None or not math.isfinite(implicit) else abs(implicit - value)
        rows.append((kind.value, rate, value, implicit if math.isfinite(implicit) else None, diff))
    del sweep
    sweep = conditional_sweep(q0, channel, _ORACLE_RESOLUTION)
    cc_rows = []
    for kind, value in explicit.items():
        cc = cc_bound(kind, rate, sweep)
        cc_rows.append((kind.value, rate, cc if math.isfinite(cc) else None, value))

    compare_path = os.path.join(out_dir, "oracle_compare.csv")
    _write_csv(compare_path, ["kind", "rate", "explicit", "implicit", "abs_diff"], rows)
    cc_path = os.path.join(out_dir, "cc_bound.csv")
    _write_csv(cc_path, ["kind", "rate", "cc_bound", "explicit"], cc_rows)
    return [compare_path, cc_path]


def _cmd_exact(channel: Channel, q0: Distribution, params: dict, out_dir: str) -> list:
    n = int(_need(params, "n", "exact"))
    rate = float(_need(params, "rate", "exact"))
    delta = float(params["delta"])
    report = exact_finite_n(n, rate, delta, q0, channel)
    path = os.path.join(out_dir, "exact.json")
    with open(path, "w", newline="") as fh:
        fh.write(_exact_json(report))
        fh.write("\n")
    return [path]


def _exact_json(report: ExactFiniteNReport) -> str:
    """The report as ``json.dumps(indent=2, sort_keys=True)`` would write it,
    with one object per type in ``per_type_breakdown``.

    The per-type objects come from one %-template, laid out by ``json`` itself
    for the report's (|Y|, |X|) shape and filled with ``%s``: the counts as
    ints, the finite floats as their ``float.__repr__``, as ``json`` writes
    both.  Each distinct float is formatted once, found by its bit pattern,
    so that -0.0 keeps its sign.
    """
    table = report.per_type_breakdown
    header = json.dumps(
        {
            "n": report.n,
            "m": report.m,
            "p_error": report.p_error,
            "p_correct_strict": report.p_correct_strict,
            "p_feedback1": report.p_feedback1,
            "per_type_breakdown": [],
        },
        indent=2,
        sort_keys=True,
    )
    ny, nx = table.counts.shape[1:]
    # Keys sort as: counts, p_correct_strict, p_fail_strict, p_feedback1,
    # probability; "per_type_breakdown" is the header's last key.
    sample = {"counts": [["%s"] * nx] * ny}
    sample.update(dict.fromkeys(("p_correct_strict", "p_fail_strict", "p_feedback1", "probability"), "%s"))
    layout = json.dumps(sample, indent=2, sort_keys=True).replace('"%s"', "%s")
    template = "\n".join("    " + line for line in layout.splitlines())
    floats = np.column_stack((table.p_correct_strict, table.p_fail_strict, table.p_feedback1, table.probability))
    bits, where = np.unique(floats.view(np.int64), return_inverse=True)
    reprs = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    # One row of Python ints and float reprs per type, formatted by one %.
    cells = np.empty((len(table), nx * ny + floats.shape[1]), dtype=object)
    cells[:, : nx * ny] = table.counts.reshape(len(table), -1)
    cells[:, nx * ny :] = reprs[where.reshape(floats.shape)]
    rows = ",\n".join([template] * len(table)) % tuple(cells.ravel().tolist())
    return header[: -len("[]\n}")] + "[\n" + rows + "\n  ]\n}"


def _cmd_simulate(channel: Channel, q0: Distribution, params: dict, out_dir: str) -> list:
    n = int(_need(params, "n", "simulate"))
    rate = float(_need(params, "rate", "simulate"))
    blocks = int(_need(params, "blocks", "simulate"))
    delta = float(params["delta"])
    seed = int(params["seed"])
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
            out.decoded,
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
    summary = {**asdict(result.summary), "q_final": result.summary.q_final.probs.tolist()}
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
        channel, q0, params = parse_config(args.config)
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

    resolved = {**_DEFAULTS.get(args.command, {}), **params}
    try:
        outputs = _DISPATCH[args.command](channel, q0, resolved, args.out_dir)
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
