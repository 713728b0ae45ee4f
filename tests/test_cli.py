import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import nts.cli
from nts.cli import ConfigError, _exact_json, _fmt, parse_config, run_command
from nts.exponents import (
    Boundary,
    StrictDomainReport,
    correct_exponent_ml,
    correct_exponent_ml_sweep,
    correct_exponent_strict,
    error_exponent,
    error_exponent_sweep,
    minus_one_family,
    tilted_joint,
)
from nts.itcore import Channel, Distribution
from nts.oracle import exact_finite_n


def write_config(path, **overrides):
    cfg = {
        "channel": {"rows": [[0.9, 0.1], [0.1, 0.9]], "name": "bsc"},
        "q0": [0.5, 0.5],
        "params": {
            "rate": 0.45,
            "delta": 0.1,
            "rho": -0.5,
            "n": 6,
            "blocks": 40,
            "seed": 7,
            "rate_grid": {"start": 0.0, "stop": 0.7, "step": 0.01},
        },
    }
    for key, value in overrides.items():
        if value is None:
            cfg["params"].pop(key, None)
        elif key in ("channel", "q0", "params"):
            cfg[key] = value
        else:
            cfg["params"][key] = value
    path.write_text(json.dumps(cfg))
    return str(path)


class TestParseConfig:
    def test_valid_bsc(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        channel, q0, params = parse_config(path)
        assert channel.num_inputs == 2
        assert np.allclose(channel.matrix, [[0.9, 0.1], [0.1, 0.9]])
        assert params["rate"] == 0.45

    def test_bad_row_sum(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"channel": {"rows": [[0.9, 0.09], [0.1, 0.9]]}, "q0": [0.5, 0.5]}))
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_unknown_param_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps({"channel": {"rows": [[1.0, 0.0], [0.0, 1.0]]}, "q0": [0.5, 0.5], "params": {"bogus": 1}})
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(str(path))
        assert "bogus" in str(exc.value)

    def test_q0_length_mismatch(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"channel": {"rows": [[1.0, 0.0], [0.0, 1.0]]}, "q0": [1.0]}))
        with pytest.raises(ConfigError):
            parse_config(str(path))


class TestExitCodes:
    def test_success(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", rate_grid={"start": 0.0, "stop": 0.2, "step": 0.1})
        assert run_command(["curves", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0

    def test_unknown_subcommand_is_usage(self, tmp_path, capsys):
        assert run_command(["bogus"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand_is_usage(self):
        assert run_command([]) == 1

    def test_missing_file_is_io(self, tmp_path):
        assert run_command(["curves", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_row_is_config(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"channel": {"rows": [[0.9, 0.09], [0.1, 0.9]]}, "q0": [0.5, 0.5]}))
        assert run_command(["curves", "--config", str(path)]) == 3

    def test_missing_rate_grid_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", rate_grid=None)
        assert run_command(["curves", "--config", cfg, "--out-dir", str(tmp_path)]) == 3
        assert "rate_grid" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["start", "stop", "step"])
    @pytest.mark.parametrize("value", ["0.1", True, None, float("nan"), float("inf"), -float("inf"), [0.1]])
    def test_bad_rate_grid_value_names_field(self, tmp_path, capsys, key, value):
        grid = {"start": 0.0, "stop": 0.3, "step": 0.05, key: value}
        cfg = write_config(tmp_path / "c.json", rate_grid=grid)
        assert run_command(["curves", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 3
        assert f"params.rate_grid.{key}" in capsys.readouterr().err

    def test_overlong_rate_grid_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", rate_grid={"start": 0.0, "stop": 1.0, "step": 1e-6})
        assert run_command(["curves", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 3
        assert "params.rate_grid" in capsys.readouterr().err
        # A step that overflows the grid length is rejected the same way.
        cfg = write_config(tmp_path / "c.json", rate_grid={"start": 0.0, "stop": 1e300, "step": 1e-300})
        assert run_command(["curves", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 3

    def test_rate_grid_cap_is_100000_rates(self, tmp_path):
        path = write_config(tmp_path / "c.json", rate_grid={"start": 0, "stop": 99_999, "step": 1})
        parse_config(path)
        path = write_config(tmp_path / "c.json", rate_grid={"start": 0, "stop": 100_000, "step": 1})
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.field == "params.rate_grid"

    def test_numeric_failure_is_4(self, tmp_path):
        # exact with a codebook size beyond 2^30 trips the resource guard
        cfg = write_config(tmp_path / "c.json", n=10, rate=5.0)
        assert run_command(["exact", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 4


def rejects_param(tmp_path, capsys, command, key, value):
    """Run ``command`` with params.<key> set to ``value`` (None is JSON null);
    true when it exits 3 naming the field."""
    path = tmp_path / "c.json"
    write_config(path)
    cfg = json.loads(path.read_text())
    cfg["params"][key] = value
    path.write_text(json.dumps(cfg))
    code = run_command([command, "--config", str(path), "--out-dir", str(tmp_path / "o")])
    return code == 3 and f"params.{key}" in capsys.readouterr().err


_NOT_NUMBERS = ["x", None, [1], True, False]
_NOT_FINITE = [float("nan"), float("inf"), -float("inf")]


class TestScalarParams:
    """Each scalar parameter is type- and range-checked at parse time."""

    @pytest.mark.parametrize("value", [0, -3, 4.7, 4.0, *_NOT_NUMBERS, *_NOT_FINITE])
    def test_bad_n(self, tmp_path, capsys, value):
        assert rejects_param(tmp_path, capsys, "exact", "n", value)

    @pytest.mark.parametrize("value", [0, -3, 2.5, *_NOT_NUMBERS, *_NOT_FINITE])
    def test_bad_blocks(self, tmp_path, capsys, value):
        assert rejects_param(tmp_path, capsys, "simulate", "blocks", value)

    @pytest.mark.parametrize("value", [-1, 1.5, *_NOT_NUMBERS, *_NOT_FINITE])
    def test_bad_seed(self, tmp_path, capsys, value):
        assert rejects_param(tmp_path, capsys, "simulate", "seed", value)

    @pytest.mark.parametrize("value", [-0.1, *_NOT_NUMBERS, *_NOT_FINITE])
    def test_bad_rate(self, tmp_path, capsys, value):
        assert rejects_param(tmp_path, capsys, "iterate-rate", "rate", value)

    @pytest.mark.parametrize("value", [-0.1, *_NOT_NUMBERS, *_NOT_FINITE])
    def test_bad_delta(self, tmp_path, capsys, value):
        assert rejects_param(tmp_path, capsys, "exact", "delta", value)

    @pytest.mark.parametrize("value", [*_NOT_NUMBERS, *_NOT_FINITE])
    def test_bad_rho(self, tmp_path, capsys, value):
        assert rejects_param(tmp_path, capsys, "iterate-slope", "rho", value)

    def test_negative_rate_grid_start(self, tmp_path, capsys):
        # A negative rate is refused as params.rate; so is a grid starting below 0.
        cfg = write_config(tmp_path / "c.json", rate_grid={"start": -0.1, "stop": 0.2, "step": 0.1})
        assert run_command(["curves", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 3
        assert "params.rate_grid.start" in capsys.readouterr().err

    def test_boundary_values_accepted(self, tmp_path):
        path = write_config(tmp_path / "c.json", n=1, blocks=1, seed=0, rate=0, delta=0.0, rho=-2.5)
        _, _, params = parse_config(path)
        assert (params["n"], params["blocks"], params["seed"], params["rate"]) == (1, 1, 0, 0)


class TestCodebookCap:
    """A codebook size e^{n*rate} beyond the float range exits 4 naming the cap."""

    @pytest.mark.parametrize(
        "command,n,rate",
        [("exact", 100_000, 0.45), ("simulate", 20_000, 0.5), ("exact", 10**400, 0.3), ("simulate", 10**400, 0.3)],
    )
    def test_exits_4_naming_cap(self, tmp_path, capsys, command, n, rate):
        cfg = write_config(tmp_path / "c.json", n=n, rate=rate)
        assert run_command([command, "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "exceeds the cap" in err and "range error" not in err


class TestLiteralCellCap:
    def test_simulate_beyond_the_literal_cap_exits_4_naming_it(self, tmp_path, capsys):
        # Rate 0 gives one codeword, so only the blocklength is too large.
        cfg = write_config(tmp_path / "c.json", n=10**400, rate=0.0)
        assert run_command(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "LITERAL_CELL_CAP" in err and "dimension" not in err


class TestCurves:
    def test_zero_crossings_bracket_mutual_information(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert run_command(["curves", "--config", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "curves.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        i_rate = header.index("rate")
        i_err = header.index("error_exponent")
        i_corr = header.index("correct_ml")
        i_qp = 0.368064  # ln 2 - H_b(0.1)
        err_pos = [float(r[i_rate]) for r in rows if float(r[i_err]) > 0]
        corr_pos = [float(r[i_rate]) for r in rows if float(r[i_corr]) > 0]
        # error exponent positive strictly below I, zero at/above
        assert max(err_pos) < i_qp < max(err_pos) + 0.011
        # correct exponent positive strictly above I
        assert min(corr_pos) > i_qp > min(corr_pos) - 0.011

    def test_na_above_r_plus(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", rate_grid={"start": 0.6, "stop": 0.8, "step": 0.05}
        )
        out = tmp_path / "out"
        assert run_command(["curves", "--config", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "curves.csv").read_text().splitlines()
        idx = lines[0].split(",").index("correct_strict")
        cells = [line.split(",")[idx] for line in lines[1:]]
        # r_plus = ln 2 ~ 0.693 for uniform Q on the BSC
        assert "NA" in cells
        assert any(c != "NA" for c in cells)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", rate_grid={"start": 0.0, "stop": 0.3, "step": 0.05})
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_command(["curves", "--config", cfg, "--out-dir", str(a)]) == 0
        assert run_command(["curves", "--config", cfg, "--out-dir", str(b)]) == 0
        assert (a / "curves.csv").read_bytes() == (b / "curves.csv").read_bytes()

    def test_manifest_written(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", rate_grid={"start": 0.0, "stop": 0.1, "step": 0.05})
        out = tmp_path / "out"
        run_command(["curves", "--config", cfg, "--out-dir", str(out)])
        manifest = json.loads((out / "curves_manifest.json").read_text())
        assert manifest["command"] == "curves"
        assert manifest["outputs"] == [str(out / "curves.csv")]
        assert "timestamp" in manifest and "version" in manifest


def reference_row(rate, q, p):
    """One curves row from per-rate scalar solves: the public exponent
    functions, as the sweep used them before it was batched."""
    err = error_exponent(rate, q, p)
    corr = correct_exponent_ml(rate, q, p)
    strict = correct_exponent_strict(rate, q, p)
    strict_val = None if isinstance(strict, StrictDomainReport) else strict.value
    return (rate, err.value, corr.value, strict_val, err.rho_star, corr.rho_star)


def bisection_row(rate, q, p):
    """The same row from a scalar slope bisection over ``tilted_joint``."""

    def bisect(lo, hi):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if tilted_joint(mid, q, p).slope > rate:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-14:
                break
        sol = tilted_joint(0.5 * (lo + hi), q, p)
        return max(sol.e0 - sol.rho * rate, 0.0), sol.rho

    fam = minus_one_family(q, p)
    i0 = tilted_joint(0.0, q, p).slope
    if rate >= i0:
        err = (0.0, 0.0)
    elif tilted_joint(1.0, q, p).slope >= rate:
        err = (max(tilted_joint(1.0, q, p).e0 - rate, 0.0), 1.0)
    else:
        err = bisect(0.0, 1.0)
    if rate <= i0:
        corr = (0.0, 0.0)
    elif tilted_joint(-1.0 + 1e-6, q, p).slope < rate:
        corr = (max(fam.e0_minus1 + rate, 0.0), -1.0)
    else:
        corr = bisect(-1.0 + 1e-6, 0.0)
    return (rate, err[0], corr[0], None if rate > fam.r_plus else corr[0], err[1], corr[1])


EQUIVALENCE_CASES = {
    "bsc0.1": ([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5]),
    "ternary0.8": ([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]], [1 / 3, 1 / 3, 1 / 3]),
    # Zero entries, and output 2 is reachable only from the letter Q omits.
    "unreachable_output": ([[0.7, 0.3, 0.0], [0.2, 0.8, 0.0], [0.1, 0.1, 0.8]], [0.6, 0.4, 0.0]),
    "q_zero_letter": ([[0.6, 0.3, 0.1], [0.25, 0.5, 0.25], [0.1, 0.2, 0.7]], [0.7, 0.0, 0.3]),
}


class TestCurvesEquivalence:
    """The batched sweep behind `curves` against per-rate reference loops."""

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_rows_byte_identical(self, tmp_path, case):
        rows, q0 = EQUIVALENCE_CASES[case]
        q, p = Distribution(np.array(q0)), Channel(np.array(rows))
        # The grid runs from rate 0 past r_plus, through every boundary regime.
        top = 1.3 * max(minus_one_family(q, p).r_plus, tilted_joint(0.0, q, p).slope)
        grid = {"start": 0.0, "stop": top, "step": top / 60}
        cfg = write_config(tmp_path / "c.json", channel={"rows": rows}, q0=q0, rate_grid=grid)
        out = tmp_path / "out"
        assert run_command(["curves", "--config", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "curves.csv").read_text().splitlines()[1:]
        rates = [grid["start"] + i * grid["step"] for i in range(len(lines))]
        assert len(lines) == 61
        for line, rate in zip(lines, rates):
            for reference in (reference_row, bisection_row):
                assert line == ",".join(_fmt(v) for v in reference(rate, q, p))

        flags = set(error_exponent_sweep(rates, q, p).boundary)
        assert flags == {Boundary.RHO_ONE, Boundary.INTERIOR, Boundary.RHO_ZERO}
        flags = set(correct_exponent_ml_sweep(rates, q, p).boundary)
        assert flags == {Boundary.RHO_ZERO, Boundary.INTERIOR, Boundary.RHO_MINUS_ONE}

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_sweeps_match_scalar_solves_at_boundary_rates(self, case):
        rows, q0 = EQUIVALENCE_CASES[case]
        q, p = Distribution(np.array(q0)), Channel(np.array(rows))
        fam = minus_one_family(q, p)
        edges = [
            tilted_joint(r, q, p).slope for r in (1.0, 0.0, -1.0 + 1e-6)
        ] + [fam.r_minus, fam.r_plus, 0.0]
        rates = sorted(max(r, 0.0) for r in edges)
        for sweep, scalar in (
            (error_exponent_sweep, error_exponent),
            (correct_exponent_ml_sweep, correct_exponent_ml),
        ):
            batch = sweep(rates, q, p)
            for i, rate in enumerate(rates):
                one = scalar(rate, q, p)
                assert (batch.value[i], batch.rho_star[i], batch.boundary[i]) == (
                    one.value,
                    one.rho_star,
                    one.boundary_flag,
                )


# (EQUIVALENCE_CASES key, n, rate, delta); rate 0 is a single codeword.
EXACT_JSON_CASES = [
    ("bsc0.1", 6, 0.3, 0.05),
    ("ternary0.8", 4, 0.25, 0.1),
    ("unreachable_output", 4, 0.2, 0.0),
    ("q_zero_letter", 4, 0.3, 0.05),
    ("bsc0.1", 5, 0.0, 0.1),
    ("ternary0.8", 4, 0.25, math.inf),
]


@pytest.mark.parametrize("case,n,rate,delta", EXACT_JSON_CASES)
def test_exact_json_matches_json_dump(tmp_path, case, n, rate, delta):
    rows, q0 = EQUIVALENCE_CASES[case]
    report = exact_finite_n(n, rate, delta, Distribution(np.array(q0)), Channel(np.array(rows)))
    table = report.per_type_breakdown
    obj = {
        "n": report.n,
        "m": report.m,
        "p_error": report.p_error,
        "p_correct_strict": report.p_correct_strict,
        "p_feedback1": report.p_feedback1,
        "per_type_breakdown": [
            {
                "counts": table.counts[k].tolist(),
                "probability": float(table.probability[k]),
                "p_fail_strict": float(table.p_fail_strict[k]),
                "p_correct_strict": float(table.p_correct_strict[k]),
                "p_feedback1": float(table.p_feedback1[k]),
            }
            for k in range(len(table))
        ],
    }
    assert _exact_json(report) == json.dumps(obj, indent=2, sort_keys=True)
    if delta < math.inf:  # a config cannot hold an infinite delta
        cfg = write_config(tmp_path / "c.json", channel={"rows": rows}, q0=q0, n=n, rate=rate, delta=delta)
        out = tmp_path / "out"
        assert run_command(["exact", "--config", cfg, "--out-dir", str(out)]) == 0
        with open(tmp_path / "reference.json", "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        assert (out / "exact.json").read_bytes() == (tmp_path / "reference.json").read_bytes()


class TestOtherCommands:
    def test_iterate_rate_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", rate=0.3)
        out = tmp_path / "out"
        assert run_command(["iterate-rate", "--config", cfg, "--out-dir", str(out)]) == 0
        summary = json.loads((out / "iterate_rate_summary.json").read_text())
        assert summary["check_lower_than"]["holds"] is True
        assert summary["final_exponent"] < 1e-6
        lines = (out / "iterate_rate.csv").read_text().splitlines()
        assert lines[0] == "l,exponent,kl_next_prev,rho_hat,q0,q1"

    def test_non_finite_values_are_written_as_null(self, tmp_path):
        # At rate 0 no support qualifies, so check_lower_than.rhs is +inf.
        cfg = write_config(tmp_path / "c.json", rate=0)
        out = tmp_path / "out"
        assert run_command(["iterate-rate", "--config", cfg, "--out-dir", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not strict JSON")

        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=reject)
        summary = json.loads((out / "iterate_rate_summary.json").read_text())
        assert summary["check_lower_than"]["rhs"] is None

    # 3x3 channels with a zero entry on which the support descent of
    # check_lower_than overflowed its gradient and then found no simplex
    # projection index (an IndexError traceback).
    @pytest.mark.parametrize(
        "rate,rows",
        [
            (
                0.5,
                [
                    [0.13481969367365867, 0.013862007502046126, 0.8513182988242952],
                    [0.14767502654507272, 0.0, 0.8523249734549273],
                    [0.011391648778099629, 0.11913876710311762, 0.8694695841187827],
                ],
            ),
            (
                0.8,
                [
                    [0.2195076292139752, 0.6644309577858329, 0.11606141300019189],
                    [0.0, 0.5471888380660385, 0.4528111619339615],
                    [0.902547224469407, 0.05407334917522416, 0.04337942635536888],
                ],
            ),
        ],
    )
    def test_iterate_rate_check_on_zero_entry_channels(self, tmp_path, rate, rows):
        cfg = write_config(tmp_path / "c.json", channel={"rows": rows}, q0=[1 / 3] * 3, rate=rate)
        out = tmp_path / "out"
        assert run_command(["iterate-rate", "--config", cfg, "--out-dir", str(out)]) == 0
        rhs = json.loads((out / "iterate_rate_summary.json").read_text())["check_lower_than"]["rhs"]
        assert rhs is not None and math.isfinite(rhs)

    def test_iterate_rate_refused_before_any_output(self, tmp_path, capsys):
        # min_over_small_supports tries every support of the input alphabet:
        # seven inputs exceed its cap, and the run is refused before the
        # iteration writes its trace.
        rows = [[0.8 if y == x % 3 else 0.1 for y in range(3)] for x in range(7)]
        cfg = write_config(tmp_path / "c.json", channel={"rows": rows}, q0=[1 / 7] * 7, rate=2.0)
        out = tmp_path / "out"
        assert run_command(["iterate-rate", "--config", cfg, "--out-dir", str(out)]) == 4
        assert "SUPPORT_INPUT_CAP" in capsys.readouterr().err
        assert not (out / "iterate_rate.csv").exists()

    def test_iterate_slope_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert run_command(["iterate-slope", "--config", cfg, "--out-dir", str(out)]) == 0
        summary = json.loads((out / "iterate_slope_summary.json").read_text())
        assert summary["stationarity_residual"] < 1e-6

    def test_exact_output(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", n=4, rate=float(np.log(3) / 4))
        out = tmp_path / "out"
        assert run_command(["exact", "--config", cfg, "--out-dir", str(out)]) == 0
        report = json.loads((out / "exact.json").read_text())
        assert report["m"] == 3
        assert report["p_error"] + report["p_correct_strict"] == pytest.approx(1.0, abs=1e-12)
        total = sum(r["probability"] for r in report["per_type_breakdown"])
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_simulate_output(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", n=8, rate=0.2, blocks=25)
        out = tmp_path / "out"
        assert run_command(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "simulate.csv").read_text().splitlines()
        assert len(lines) == 26
        summary = json.loads((out / "simulate_summary.json").read_text())
        assert summary["blocks"] == 25
        assert 0 <= summary["feedback_rate"] <= 1

    def test_oracle_output(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", rate=0.45)
        out = tmp_path / "out"
        assert run_command(["oracle", "--config", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "oracle_compare.csv").read_text().splitlines()
        assert lines[0] == "kind,rate,explicit,implicit,abs_diff"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3
        for row in rows:
            if row[4] != "NA":
                assert float(row[4]) < 0.06
        assert (out / "cc_bound.csv").exists()

    @pytest.mark.parametrize("side", [-1, 1], ids=["below_r_plus", "above_r_plus"])
    def test_oracle_strict_cell_is_the_strict_exponent_up_to_r_plus(self, tmp_path, side):
        # A channel with two equal rows, so r_minus < r_plus.
        rows, q = [[0.9, 0.1], [0.9, 0.1], [0.1, 0.9]], [0.25, 0.25, 0.5]
        p, q0 = Channel(np.array(rows)), Distribution(np.array(q))
        rate = minus_one_family(q0, p).r_plus + side * 1e-9
        cfg = write_config(tmp_path / "c.json", channel={"rows": rows}, q0=q, rate=rate)
        out = tmp_path / "out"
        assert run_command(["oracle", "--config", cfg, "--out-dir", str(out)]) == 0
        cells = dict(line.split(",")[:3:2] for line in (out / "oracle_compare.csv").read_text().splitlines()[1:])
        strict = correct_exponent_strict(rate, q0, p)
        if side < 0:
            assert strict.boundary_flag is Boundary.RHO_MINUS_ONE
            assert cells["correct_strict"] == _fmt(strict.value)
        else:
            assert isinstance(strict, StrictDomainReport)
            assert cells["correct_strict"] == "NA"


class TestImportCost:
    def test_importing_the_cli_leaves_scipy_optimize_out(self):
        # scipy.optimize adds about 0.2 s and 21 MB to a process.  The
        # brute-force minima import it when they first run, so the commands
        # that run none of them never pay for it.
        src = os.path.dirname(os.path.dirname(nts.cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, nts.cli; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
