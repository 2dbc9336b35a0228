"""Command-line contract: flags, formats, exit codes and determinism."""

from __future__ import annotations

import json
import math
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from medaux import PRESET_NAMES, mse
from medaux.cli import _fmt_number, main

POP_CSV = "x,y\n" + "\n".join(
    f"{x},{x * 2 + (i % 7)}" for i, x in enumerate(range(10, 70))
)


POP_I = {
    "N": 69, "n": 17, "median_y": 2068, "median_x": 2011,
    "fy_at_median": 0.00014, "fx_at_median": 0.00014, "rho_c": 0.1505,
}

# gamma * cv_x^2 = 0.125 * 10^2 = 12.5: M_d4 has no optimum
STEEP = {
    "N": 2, "n": 1, "median_y": 1, "median_x": 1,
    "fy_at_median": 0.1, "fx_at_median": 0.1, "rho_c": 0.3,
}

# x = 1..5, 1e6..6e6 and y = 1..11: at n = 4, gamma * cv_x^2 = 1.46
STEEP_X = [*range(1, 6), *range(10**6, 7 * 10**6, 10**6)]
STEEP_CSV = "x,y\n" + "\n".join(f"{x},{y}" for y, x in enumerate(STEEP_X, 1))

# the same x with y = x in reverse order: at n = 4, u = 1 - gamma * cv_x^2 =
# -0.46 but u + v = 0.41 > 0, v = gamma * cv_y^2 * (1 - rho_c^2), so M_d4's
# objective has a minimum, u * My^2 * v / (u + v) < 0, which is not an MSE
BAND_CSV = "x,y\n" + "\n".join(
    f"{x},{y}" for x, y in zip(STEEP_X, reversed(STEEP_X))
)

# y = 1e160 * x, x = 1..11: at n = 4 the square of median_y = 6e160 overflows
HUGE_Y_CSV = "x,y\n" + "\n".join(f"{x},{1e160 * x!r}" for x in range(1, 12))

# x = y = 1..5: at n = 3 the gap is 0 and rho_c = 1, so the normal equations
# of t_m and M_d3 are singular and both get weights 0
TIED_CSV = "x,y\n" + "\n".join(f"{v},{v}" for v in range(1, 6))

# x = 1..8 with y swapped in pairs of ranks: at n = 4 rho_c = 0, so k_c = 0 and
# the M_1 and M_2 shifts have no optimum
ZERO_KC_CSV = "x,y\n" + "\n".join(
    f"{x},{y}" for x, y in zip(range(1, 9), (1, 2, 5, 6, 3, 4, 7, 8))
)

# y holds +-limit: at 1e300 the Freedman-Diaconis rule asks for 7.3e299
# histogram bins, far above the cap, and at 1.7e308 the range itself overflows
WIDE_Y_CSV = {
    limit: "x,y\n" + "\n".join(
        f"{x},{y!r}" for x, y in enumerate([1.0, 2.0, 3.0, 4.0, limit, -limit], 1)
    )
    for limit in (1e300, 1.7e308)
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _coinciding_medians(tmp_path, rho_c: float) -> str:
    """Params file with median_y = median_x = 80 (gap b = 0)."""
    path = tmp_path / f"flat-{rho_c}.json"
    path.write_text(
        json.dumps(
            {
                "N": 1000, "n": 100, "median_y": 80, "median_x": 80,
                "fy_at_median": 0.01, "fx_at_median": 0.012, "rho_c": rho_c,
            }
        ),
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture()
def pop_csv(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text(POP_CSV, encoding="utf-8")
    return str(path)


class TestParamsCommand:
    def test_builtin_pop1_prints_published_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "params", "--params", "popI")
        assert code == 0
        assert "R = 0.97244" in out

    def test_builtin_pop2_prints_gap(self, capsys):
        code, out, _ = run_cli(capsys, "params", "--params", "popII")
        assert code == 0
        assert "b = -239" in out

    def test_input_and_params_conflict(self, capsys, pop_csv):
        with pytest.raises(SystemExit) as exc:
            main(["params", "--input", pop_csv, "--params", "popI"])
        assert exc.value.code == 2

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, "params", "--params", "no_such_file.json")
        assert code == 1
        assert "error" in err

    def test_csv_extraction(self, capsys, pop_csv):
        code, out, _ = run_cli(capsys, "params", "--input", pop_csv, "--n", "12")
        assert code == 0
        assert "median_x = 39.5" in out

    def test_known_density_flags(self, capsys, pop_csv):
        code, out, _ = run_cli(
            capsys, "params", "--input", pop_csv, "--n", "12",
            "--density", "known", "--fy", "0.01", "--fx", "0.02",
        )
        assert code == 0
        assert "fy_at_median = 0.01" in out

    def test_zero_known_density_is_error(self, capsys, pop_csv):
        code, out, err = run_cli(
            capsys, "params", "--input", pop_csv, "--n", "12",
            "--density", "known", "--fy", "0", "--fx", "0.02",
        )
        assert code == 1
        assert out == ""
        assert err == "error: fy_at_median must be a positive density, got 0.0\n"

    def test_known_density_needs_both_values(self, capsys, pop_csv):
        code, out, err = run_cli(
            capsys, "params", "--input", pop_csv, "--n", "10",
            "--density", "known", "--fy", "0.1",
        )
        assert (code, out) == (1, "")
        assert err == "error: --density known requires --fy and --fx values\n"

    def test_histogram_density(self, capsys, pop_csv):
        code, out, err = run_cli(
            capsys, "params", "--input", pop_csv, "--n", "10", "--density", "histogram"
        )
        assert (code, err) == (0, "")
        assert "fy_at_median = 0.00758\nfx_at_median = 0.01695\n" in out

    @pytest.mark.parametrize("limit", sorted(WIDE_Y_CSV))
    @pytest.mark.parametrize(
        "command", [["params"], ["simulate", "--reps", "2"]], ids=["params", "simulate"]
    )
    def test_histogram_of_a_vast_range_is_one_line_error(
        self, capsys, tmp_path, command, limit
    ):
        pop = tmp_path / "wide.csv"
        pop.write_text(WIDE_Y_CSV[limit], encoding="utf-8")
        code, out, err = run_cli(
            capsys, *command, "--input", str(pop), "--n", "3", "--density", "histogram"
        )
        assert (code, out) == (1, "")
        assert "Traceback" not in err and err.count("\n") == 1
        assert err.startswith(
            "error: the Freedman-Diaconis histogram of this sample has no usable bins ("
        )

    @pytest.mark.parametrize(
        "command", [["params"], ["simulate", "--reps", "2"]], ids=["params", "simulate"]
    )
    def test_histogram_over_the_bin_cap_is_one_line_error(self, capsys, tmp_path, command):
        # y = 1..10 and 1e9: the Freedman-Diaconis rule asks for 222,398,009
        # bins, far above 1000 per observation
        pop = tmp_path / "outlier.csv"
        pop.write_text(
            "x,y\n" + "\n".join(f"{x},{y!r}" for x, y in enumerate([*range(1, 11), 1e9], 1)),
            encoding="utf-8",
        )
        code, out, err = run_cli(
            capsys, *command, "--input", str(pop), "--n", "3", "--density", "histogram"
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: the Freedman-Diaconis histogram of this sample has no usable bins "
            "(its rule asks for 2.224e+08, above the cap of 11000, 1000 per observation)\n"
        )

    def test_values_near_the_float_limit_print_no_warning(self, capsys, tmp_path):
        # np.std squares the y values and overflows; the densities stand
        pop = tmp_path / "huge.csv"
        pop.write_text(HUGE_Y_CSV, encoding="utf-8")
        code, out, err = run_cli(capsys, "params", "--input", str(pop), "--n", "4")
        assert (code, err) == (0, "")
        assert "fx_at_median = 0.09067\n" in out

    def test_huge_and_tiny_values_print_in_scientific(self, capsys, tmp_path):
        # from 1e15 up, and where a positive value would print as 0
        pop = tmp_path / "huge.csv"
        pop.write_text(HUGE_Y_CSV, encoding="utf-8")
        code, out, err = run_cli(capsys, "params", "--input", str(pop), "--n", "4")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        for line in ("median_y = 6e+160", "fy_at_median = 9.02222e-162",
                     "fx_at_median = 0.09067", "R = 1e-160", "b = 6e+160"):
            assert line in lines

    def test_n_with_builtin_params_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["params", "--params", "popI", "--n", "5"])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == "medaux: error: --n only applies to --input"

    def test_precision_0_keeps_integer_digits(self, capsys, tmp_path):
        path = tmp_path / "rounding.json"
        doc = {**POP_I, "median_y": 2070.4, "median_x": 1000.2}
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "params", "--params", str(path), "--precision", "0")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert "median_y = 2070" in lines and "median_x = 1000" in lines

    def test_density_values_need_known_density(self, capsys, pop_csv):
        for argv in (
            ["--params", "popI", "--fy", "0.1"],
            ["--params", "popI", "--density", "known", "--fy", "0.1", "--fx", "0.1"],
            ["--input", pop_csv, "--n", "10", "--fx", "0.1"],
            ["--input", pop_csv, "--n", "10", "--density", "histogram", "--fy", "0.1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(["params", *argv])
            assert exc.value.code == 2
            last = capsys.readouterr().err.splitlines()[-1]
            assert last == "medaux: error: --fy and --fx only apply to --input with --density known"

    def test_density_needs_input(self, capsys):
        for method in ("kernel", "histogram", "known"):
            with pytest.raises(SystemExit) as exc:
                main(["params", "--params", "popI", "--density", method])
            assert exc.value.code == 2
            last = capsys.readouterr().err.splitlines()[-1]
            assert last == "medaux: error: --density only applies to --input"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "params", "--params", "popI", "--format", "json")
        doc = json.loads(out)
        assert doc["N"] == 69
        assert abs(doc["median_ratio"] - 2011 / 2068) < 1e-12


class TestTableCommand:
    def test_full_row_set(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--params", "popI", "--format", "json")
        rows = json.loads(out)["rows"]
        assert code == 0
        assert len(rows) == 17
        names = [r["estimator"] for r in rows]
        assert names[0] == "M_y" and "t_mq9" in names

    def test_zero_after_rounding_prints_unsigned(self):
        cells = [_fmt_number(v, 2) for v in (-0.001, -0.0, -0.004999, -0.006, -1.5)]
        assert cells == ["0.00", "0.00", "0.00", "-0.01", "-1.50"]

    @pytest.mark.parametrize("precision", ["1075", "2147483648"])
    def test_precision_out_of_range_is_one_line_usage_error(self, capsys, precision):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--params", "popI", "--precision", precision])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == "medaux: error: --precision must be between 0 and 1074"

    def test_largest_precision_prints_every_digit(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--params", "popI", "--estimators", "M_y", "--precision", "1074"
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1].startswith("M_y,565443.5")

    def test_selected_pair_shares_minimum(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--params", "popI",
            "--estimators", "t_m,M_d3", "--format", "json",
        )
        rows = json.loads(out)["rows"]
        assert rows[0]["analytic_mse"] == rows[1]["analytic_mse"]

    def test_unknown_estimator_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--params", "popI", "--estimators", "bogus"])
        assert exc.value.code == 2

    def test_unknown_estimator_message_is_unquoted(self, capsys):
        with pytest.raises(SystemExit):
            main(["table", "--params", "popI", "--estimators", "M_zz"])
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("medaux: error: unknown estimator 'M_zz'; valid names: M_y,")

    def test_empty_estimator_list_is_error(self, capsys):
        code, out, err = run_cli(capsys, "table", "--params", "popI", "--estimators", ",")
        assert code == 1
        assert out == ""
        assert err == "error: need at least one estimator\n"

    def test_csv_header_and_precision(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--params", "popI", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "estimator,analytic_mse,analytic_bias,empirical_mse,pre"
        assert lines[1].startswith("M_y,565443.5")  # two decimals by default

    def test_precision_flag_is_display_only(self, capsys):
        _, low, _ = run_cli(
            capsys, "table", "--params", "popI", "--format", "csv", "--precision", "0"
        )
        _, full, _ = run_cli(
            capsys, "table", "--params", "popI", "--format", "json"
        )
        assert "565444" in low
        rows = json.loads(full)["rows"]
        assert abs(rows[0]["analytic_mse"] - 565443.57) < 1.0

    def test_markdown_table(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--params", "popII", "--format", "md")
        assert out.startswith("| estimator |")
        assert "| --- |" in out.splitlines()[1]

    def test_json_roundtrip_preserves_values(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--params", "popI", "--format", "json")
        first = json.loads(out)
        again = json.dumps(first, indent=2) + "\n"
        assert json.loads(again) == first

    @pytest.mark.parametrize("size", ["Infinity", "NaN"])
    def test_non_finite_population_size(self, capsys, tmp_path, size):
        path = tmp_path / "params.json"
        path.write_text(
            '{"N": %s, "n": 17, "median_y": 2068, "median_x": 2011,'
            ' "fy_at_median": 0.00014, "fx_at_median": 0.00014, "rho_c": 0.1505}'
            % size,
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "table", "--params", str(path))
        assert code == 1
        assert err == "error: params key 'N' must be an integer\n"

    def test_zero_gap_perfect_concordance(self, capsys, tmp_path):
        """b = 0 with rho_c = 1: the shrinkage optima take their limit,
        weight 0 and MSE 0, instead of dividing 0 by 0."""
        params = _coinciding_medians(tmp_path, 1.0)
        code, out, err = run_cli(capsys, "table", "--params", params)
        assert code == 0
        assert "Traceback" not in err
        rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
        assert len(rows) == 17
        assert rows["M_d3"] == "0.00,0.00,,inf"
        assert rows["t_mq7"] == "0.00,0.00,,inf"

    def test_ss4_precondition_is_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(STEEP), encoding="utf-8")
        code, out, err = run_cli(capsys, "table", "--params", str(path))
        assert (code, out) == (1, "")
        assert err == "error: need 1 - gamma*cv_x^2 > 0, got -11.5\n"

    @pytest.mark.parametrize("command", ["table", "compare", "params"])
    def test_zero_median_is_one_line_error(self, capsys, tmp_path, command):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({**POP_I, "median_y": 0}), encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--params", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: median_y must be finite and positive, got 0.0\n"

    @pytest.mark.parametrize(
        "error, what",
        [(ZeroDivisionError, "division by zero"), (OverflowError, "overflow")],
    )
    def test_arithmetic_error_is_one_line(self, capsys, error, what):
        # every known site names its cause (see the package-error test
        # below); a bare error from the library still prints one line
        with mock.patch.object(mse, "table_rows", side_effect=error):
            code, out, err = run_cli(capsys, "table", "--params", "popI")
        assert code == 1
        assert out == ""
        assert err == f"error: numeric {what} on extreme parameter values\n"

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"median_y": 0.5, "fx_at_median": 1e300},
             "optimal d2 undefined: normal-equation determinant 0.0 is not positive"),
            ({"median_y": 1, "fx_at_median": 1e-300, "rho_c": -1},
             "cv_x = 4.9726504226752854e+296 is too large: its square overflows"),
            # a median near 1e-300 squares to 0; one of 1e160 squares past the range
            ({"median_y": 1e-300, "fy_at_median": 1e300},
             "optimal d1, d2 undefined: normal-equation determinant 0.0 is not positive"),
            ({"median_x": 1e160}, "median_x = 1e+160 is too large: its square overflows"),
        ],
    )
    @pytest.mark.parametrize("command", ["table", "compare"])
    def test_underflowing_or_overflowing_cv_is_package_error(
        self, capsys, tmp_path, command, values, message
    ):
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps({**POP_I, **values}), encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--params", str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_underflowing_moment_product_gives_its_row(self, capsys, tmp_path):
        # var_e0 * var_e1 underflows to 0, so the bound sqrt(var_e0 * var_e1)
        # once refused this valid vector
        path = tmp_path / "tiny-moments.json"
        path.write_text(json.dumps({
            "N": 1000, "n": 100, "median_y": 1.0, "median_x": 1.0,
            "fy_at_median": 1e85, "fx_at_median": 1e85, "rho_c": 0.5,
        }), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "table", "--params", str(path), "--estimators", "M_y", "--format", "json"
        )
        assert (code, err) == (0, "")
        (row,) = json.loads(out)["rows"]
        assert row["analytic_mse"] == 2.25e-173

    def test_library_warning_is_one_line(self, capsys, tmp_path):
        params = _coinciding_medians(tmp_path, 0.3)
        code, out, err = run_cli(capsys, "table", "--params", params)
        assert code == 0
        assert err == "warning: zero MSE: relative efficiency is unbounded\n"
        assert out.splitlines()[7] == "M_d4,20.41,-0.26,,110.24"
        assert len(out.splitlines()) == 18


EDGE_VALUES = (
    0, 1, -1, 0.5, 2, 1e-320, -1e-320, 1e-300, 1e300, -1e300,
    math.inf, -math.inf, math.nan,
)


@pytest.mark.parametrize(
    "value, precision, text",
    [
        (2070.4, 0, "2070"),
        (1000.0, 0, "1000"),
        (999.5, 0, "1000"),
        (-0.0, 0, "0"),
        (17, 0, "17"),
        (0.0, 1, "0"),
        (100.04, 1, "100"),
        (-0.001, 2, "-1e-03"),
        (7.105427357601002e-15, 2, "7.11e-15"),
        (math.nan, 2, "nan"),
        (-math.inf, 2, "-inf"),
        (1.5e15, 3, "1.5e+15"),
        (-1234.5, 4, "-1234.5"),
        (2011 / 2068, 5, "0.97244"),
        (1e-7, 6, "1e-07"),
        (12.3456789, 7, "12.3456789"),
        (2.5, 8, "2.5"),
    ],
)
def test_trimmed_number_text(value, precision, text):
    assert _fmt_number(value, precision, trim=True) == text


@pytest.mark.parametrize("precision", range(9))
@settings(max_examples=200, deadline=None)
@given(value=st.floats(allow_nan=False, allow_infinity=False))
def test_trimmed_number_keeps_every_digit(precision, value):
    """Trimmed text is the value rounded to ``precision`` decimals, fixed-point
    below 1e15 unless that reads 0, with the fractional zeros dropped."""
    text = _fmt_number(value, precision, trim=True)
    if value == 0:
        assert text == "0"
        return
    fixed = f"{value:.{precision}f}"
    kind = "e" if abs(value) >= 1e15 or float(fixed) == 0 else "f"
    rounded = f"{value:.{precision}{kind}}"
    assert float(text) == float(rounded) != 0
    mantissa, _, exponent = text.partition("e")
    assert not ("." in mantissa and mantissa.endswith(("0", ".")))
    if kind == "f":
        assert not exponent
        assert mantissa.split(".")[0] == rounded.split(".")[0]  # integer part whole
    else:
        assert "e" + exponent == rounded[rounded.index("e"):]


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    sizes=st.sampled_from([(69, 17), (2, 1), (10**6, 3), (3, 3), (1, 0)]),
    primitives=st.fixed_dictionaries(
        {
            key: st.sampled_from(EDGE_VALUES) | st.just(POP_I[key])
            for key in ("median_y", "median_x", "fy_at_median", "fx_at_median")
        }
    ),
    rho_c=st.sampled_from(EDGE_VALUES) | st.floats(-1.0, 1.0),
)
def test_extreme_parameters_never_raise(capsys, tmp_path, sizes, primitives, rho_c):
    """Values that pass validation may still overflow or underflow later:
    every command exits 0, or 1 with a one-line ``error:`` message."""
    path = tmp_path / "edge.json"
    doc = {"N": sizes[0], "n": sizes[1], **primitives, "rho_c": rho_c}
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("table", "compare", "params"):
        code, _, err = run_cli(capsys, command, "--params", str(path))
        assert code in (0, 1)
        lines = err.splitlines()
        assert all(line.startswith(("warning: ", "error: ")) for line in lines)
        assert sum(line.startswith("error: ") for line in lines) == (code == 1)


class TestSimulateCommand:
    ARGS = (
        "simulate",
        "--synthetic", "N=200,mu_x=4,sigma_x=0.4,mu_y=4,sigma_y=0.4,rho=0.7,seed=5",
        "--n", "25", "--reps", "40", "--seed", "9",
    )

    def test_fixed_seed_is_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS, "--format", "json")
        _, second, _ = run_cli(capsys, *self.ARGS, "--format", "json")
        assert first == second

    def test_jobs_do_not_change_output(self, capsys):
        _, serial, _ = run_cli(capsys, *self.ARGS, "--format", "csv", "--jobs", "1")
        _, threaded, _ = run_cli(capsys, *self.ARGS, "--format", "csv", "--jobs", "4")
        assert serial == threaded

    def test_zero_reps_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([*self.ARGS[:-2], "--reps", "0"])
        assert exc.value.code == 2

    def test_non_numeric_synthetic_value(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--synthetic", "N=abc", "--n", "5", "--reps", "1"
        )
        assert code == 1
        assert "non-numeric" in err

    def test_negative_precision_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--params", "popI", "--precision", "-1"])
        assert exc.value.code == 2

    def test_census_zeroes_empirical_column(self, capsys, pop_csv):
        code, out, _ = run_cli(
            capsys, "simulate", "--input", pop_csv, "--n", "60", "--reps", "1",
            "--seed", "1", "--estimators", "M_y,M_r,M_d", "--format", "csv",
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            assert line.split(",")[3] == "0.00"

    def test_empty_estimator_list_is_error(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGS, "--estimators", ",")
        assert code == 1
        assert out == ""
        assert err == "error: need at least one estimator\n"

    def test_non_integer_synthetic_size(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--synthetic", "N=200.7", "--n", "5", "--reps", "1"
        )
        assert code == 1
        assert err == "error: synthetic spec entry 'N=200.7' must be an integer\n"

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_synthetic_seed_out_of_range(self, capsys, seed):
        code, out, err = run_cli(
            capsys, "simulate", "--synthetic", f"N=100,seed={seed}",
            "--n", "5", "--reps", "1",
        )
        assert code == 1
        assert out == ""
        assert err == "error: seed must fit in an unsigned 64-bit integer\n"

    @pytest.mark.parametrize(
        "entry, field, value",
        [("mu_x=-inf", "mu_x", "-inf"), ("mu_y=nan", "mu_y", "nan"),
         ("sigma_x=inf", "sigma_x", "inf"), ("sigma_y=nan", "sigma_y", "nan")],
    )
    def test_non_finite_synthetic_value_is_named(self, capsys, entry, field, value):
        code, out, err = run_cli(
            capsys, "simulate", "--synthetic", f"N=50,{entry}", "--n", "2", "--reps", "2",
        )
        assert (code, out) == (1, "")
        assert err == f"error: {field} must be finite, got {value}\n"

    def test_unknown_synthetic_key_lists_the_valid_keys(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--synthetic", "N=50,bogus=1", "--n", "2", "--reps", "2",
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: synthetic spec: unknown keys bogus; "
            "valid keys: N, mu_x, sigma_x, mu_y, sigma_y, rho, seed\n"
        )

    def test_overflowing_synthetic_values_are_one_error_line(self, capsys):
        # exp(1000) overflows: the frame check reports it, with no warning
        code, out, err = run_cli(
            capsys, "simulate", "--synthetic", "N=200,mu_x=1000", "--n", "10",
            "--reps", "5",
        )
        assert (code, out) == (1, "")
        assert err == "error: population values must be finite\n"

    def test_impossible_allocation_is_one_error_line(self, capsys):
        # 1e13 units need 72.8 TiB per column, which numpy refuses at once
        code, out, err = run_cli(
            capsys, "simulate", "--synthetic", "N=10000000000000", "--n", "2",
            "--reps", "1",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    def test_stream_version_is_reported_not_configured(self, capsys, pop_csv):
        code, out, _ = run_cli(
            capsys, "simulate", "--input", pop_csv, "--n", "5", "--reps", "2",
            "--format", "json",
        )
        doc = json.loads(out)
        assert (code, doc["stream"]) == (0, 2) and "stream" not in doc["config"]

    def test_plug_in_zero_sample_median(self, capsys, tmp_path):
        # 45% of y at 0: many samples have y median 0, so plug-in params
        # fail for M_d; M_y needs none and keeps every replicate
        rows = [f"{10 + i},{0 if i % 20 < 9 else 2 * i + 5}" for i in range(200)]
        path = tmp_path / "zeros.csv"
        path.write_text("x,y\n" + "\n".join(rows), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "simulate", "--input", str(path), "--n", "10", "--reps", "300",
            "--seed", "1", "--weights", "plug-in", "--estimators", "M_y,M_d",
            "--format", "json",
        )
        assert code == 0, err
        detail = {d["estimator"]: d for d in json.loads(out)["detail"]}
        assert detail["M_y"]["reps_used"] == 300
        assert 0 < detail["M_d"]["failures"] < 300

    def test_detail_section_reports_failures(self, capsys, pop_csv):
        code, out, _ = run_cli(
            capsys, "simulate", "--input", pop_csv, "--n", "10", "--reps", "8",
            "--seed", "2", "--format", "json",
        )
        detail = json.loads(out)["detail"]
        assert all(d["failures"] == 0 for d in detail)

    @pytest.mark.parametrize(
        "flags, missing", [(("--reps", "5"), "--n"), (("--n", "5"), "--reps")],
        ids=["no-n", "no-reps"],
    )
    def test_missing_size_or_reps(self, capsys, pop_csv, flags, missing):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--input", pop_csv, *flags])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == (
            f"medaux simulate: error: the following arguments are required: {missing}"
        )

    def test_config_is_not_an_option(self, tmp_path, pop_csv):
        # every setting is a flag: --n, --reps, --seed, --estimators, --weights
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"n": 5, "reps": 2}), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--input", pop_csv, "--n", "5", "--reps", "2",
                  "--config", str(cfg)])
        assert exc.value.code == 2

    def test_regression_without_densities_at_unit_sample(self, capsys, pop_csv):
        # one observation has no kernel density, so M_lr uses no replicate
        argv = (
            "simulate", "--input", pop_csv, "--n", "1", "--reps", "20",
            "--estimators", "M_y,M_lr",
        )
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        detail = json.loads(out)["detail"]
        assert code == 0
        assert [(d["reps_used"], d["failures"]) for d in detail] == [(20, 0), (0, 20)]
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert out.splitlines()[2].split(",")[3] == "nan"

    def test_pre_matches_table(self, capsys, tmp_path):
        # y = x: the shrinkage rows have zero MSE, which both commands print
        # as PRE inf with one warning; every row has its bias, M_d4's too
        pop = tmp_path / "equal.csv"
        pop.write_text("x,y\n" + "\n".join(f"{v},{v}" for v in range(1, 41)))
        names = ",".join(PRESET_NAMES)
        code, out, err = run_cli(
            capsys, "simulate", "--input", str(pop), "--n", "10", "--reps", "5",
            "--estimators", names, "--format", "json",
        )
        assert code == 0
        assert err == "warning: zero MSE: relative efficiency is unbounded\n"
        doc = json.loads(out)
        params = tmp_path / "equal.json"
        params.write_text(json.dumps(doc["params"]))
        code, table, err = run_cli(
            capsys, "table", "--params", str(params), "--estimators", names,
            "--format", "json",
        )
        assert code == 0
        assert err == "warning: zero MSE: relative efficiency is unbounded\n"
        columns = ("estimator", "analytic_mse", "analytic_bias", "pre")
        simulated = [tuple(r[c] for c in columns) for r in doc["rows"]]
        assert simulated == [tuple(r[c] for c in columns) for r in json.loads(table)["rows"]]
        assert [r[3] for r in simulated].count(math.inf) > 1
        assert [r[0] for r in simulated if r[2] is None] == []

    def test_overflowing_squared_errors_print_no_warning(self, capsys, tmp_path):
        # M_r's squared errors overflow: the report says inf and nan, silently
        pop = tmp_path / "tiny.csv"
        pop.write_text("x,y\n" + "\n".join(
            f"{1e-300 if i < 5 else 1.0},{i + 1}" for i in range(11)
        ))
        code, out, err = run_cli(
            capsys, "simulate", "--input", str(pop), "--n", "4", "--reps", "300",
            "--seed", "1", "--estimators", "M_y,M_r", "--format", "json",
        )
        assert code == 0
        assert err == ""
        m_r = json.loads(out)["detail"][1]
        assert m_r["reps_used"] == 300 and math.isnan(m_r["mc_se_mse"])

    def test_failing_analytic_figures_cost_their_estimator_alone(self, capsys, tmp_path):
        # M_d4 has no optimum here: simulate reports its analytic columns as
        # nan and keeps M_y, where table stops with one line
        pop = tmp_path / "steep.csv"
        pop.write_text(STEEP_CSV, encoding="utf-8")
        code, out, err = run_cli(
            capsys, "simulate", "--input", str(pop), "--n", "4", "--reps", "200",
            "--seed", "1", "--estimators", "M_y,M_d4",
        )
        assert (code, err) == (0, "")
        m_y, m_d4 = out.splitlines()[1:]
        assert m_y == "M_y,4.84,0.00,2.83,100.00"
        assert m_d4.startswith("M_d4,nan,,") and m_d4.endswith(",nan")
        written = _written_params(capsys, tmp_path, "--input", str(pop), "--n", "4")
        code, out, err = run_cli(capsys, "table", "--params", str(written))
        assert (code, out) == (1, "")
        assert err.startswith("error: need 1 - gamma*cv_x^2 > 0, got -0.46")
        assert err.count("\n") == 1

    def test_scaled_shrinkage_minimum_below_zero_is_refused(self, capsys, tmp_path):
        # u <= 0 < u + v: table stops with the precondition's one line, and
        # under true-params M_d4 loses every replicate while M_y keeps its own
        pop = tmp_path / "band.csv"
        pop.write_text(BAND_CSV, encoding="utf-8")
        written = _written_params(capsys, tmp_path, "--input", str(pop), "--n", "4")
        code, out, err = run_cli(capsys, "table", "--params", str(written))
        assert (code, out) == (1, "")
        assert err == "error: need 1 - gamma*cv_x^2 > 0, got -0.4607808695422142\n"
        code, out, err = run_cli(
            capsys, "simulate", "--input", str(pop), "--n", "4", "--reps", "200",
            "--seed", "1", "--estimators", "M_y,M_d4", "--format", "json",
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        detail = {d["estimator"]: d for d in doc["detail"]}
        assert (detail["M_y"]["reps_used"], detail["M_y"]["failures"]) == (200, 0)
        assert (detail["M_d4"]["reps_used"], detail["M_d4"]["failures"]) == (0, 200)
        m_d4 = doc["rows"][1]
        assert math.isnan(m_d4["analytic_mse"]) and m_d4["analytic_bias"] is None

    def test_overflowing_baseline_leaves_the_report_with_pre_nan(self, capsys, tmp_path):
        # the PRE baseline gamma * median_y^2 * cv_y^2 overflows after every
        # replicate has run: the report stands, where table stops with one line
        pop = tmp_path / "huge.csv"
        pop.write_text(HUGE_Y_CSV, encoding="utf-8")
        code, out, err = run_cli(
            capsys, "simulate", "--input", str(pop), "--n", "4", "--reps", "20",
            "--estimators", "M_y,M_r",
        )
        assert (code, err) == (0, "")
        rows = out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["M_y", "M_r"]
        assert all(row.endswith(",nan") for row in rows)
        written = _written_params(capsys, tmp_path, "--input", str(pop), "--n", "4")
        code, out, err = run_cli(
            capsys, "table", "--params", str(written), "--estimators", "M_y,M_r"
        )
        assert (code, out) == (1, "")
        assert err == "error: c_e0 = 6e+160 is too large: its square overflows\n"

    def test_values_from_1e15_print_in_scientific(self, capsys, tmp_path):
        pop = tmp_path / "huge.csv"
        pop.write_text(HUGE_Y_CSV, encoding="utf-8")
        code, out, err = run_cli(
            capsys, "simulate", "--input", str(pop), "--n", "4", "--reps", "20",
            "--estimators", "M_y,M_r",
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[2] == "M_r,nan,,2.34e+289,nan"

    def test_undefined_optimum_costs_its_estimator_alone(self, capsys, tmp_path):
        pop = tmp_path / "zero-kc.csv"
        pop.write_text(ZERO_KC_CSV, encoding="utf-8")
        code, out, err = run_cli(
            capsys, "simulate", "--input", str(pop), "--n", "4", "--reps", "50",
            "--estimators", "M_y,M_1,M_2", "--format", "json",
        )
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["params"]["rho_c"] == 0.0
        counts = {d["estimator"]: (d["reps_used"], d["failures"]) for d in report["detail"]}
        assert counts == {"M_y": (50, 0), "M_1": (0, 50), "M_2": (0, 50)}
        rows = {r["estimator"]: r for r in report["rows"]}
        assert math.isfinite(rows["M_y"]["empirical_mse"])
        assert math.isnan(rows["M_1"]["analytic_mse"])

    def test_singular_two_weight_optimum_matches_convex_shrinkage(self, capsys, tmp_path):
        # t_m and M_d3 are the same first-order estimator; at b = 0 with
        # rho_c = 1 both get weights 0, MSE 0 and every replicate
        pop = tmp_path / "tied.csv"
        pop.write_text(TIED_CSV, encoding="utf-8")
        written = _written_params(capsys, tmp_path, "--input", str(pop), "--n", "3")
        code, out, err = run_cli(
            capsys, "table", "--params", str(written), "--estimators", "t_m,M_d3",
            "--format", "json",
        )
        assert (code, err) == (0, "warning: zero MSE: relative efficiency is unbounded\n")
        t_m, m_d3 = json.loads(out)["rows"]
        assert {**t_m, "estimator": "M_d3"} == m_d3
        assert t_m["analytic_mse"] == 0.0
        code, out, _ = run_cli(
            capsys, "simulate", "--input", str(pop), "--n", "3", "--reps", "50",
            "--estimators", "t_m,M_d3", "--format", "json",
        )
        assert code == 0
        counts = [(d["reps_used"], d["failures"]) for d in json.loads(out)["detail"]]
        assert counts == [(50, 0), (50, 0)]

    def test_zero_sample_median_of_x_costs_m_d4_its_replicates(self, capsys, tmp_path):
        # x = 0, 0, 2, 3, 4, 5: a sample of both zeros has mx_hat = 0, where
        # M_d4's ratio factor Mx / mx_hat is undefined; M_y needs no x.  At
        # n = 2, gamma * cv_x^2 = 0.63 < 1, so M_d4 has its optimum, and
        # rho_c = 1/3 keeps its minimum above 0
        pop = tmp_path / "zero-x.csv"
        pairs = zip([0, 0, 2, 3, 4, 5], [1, 2, 4, 3, 5, 6])
        pop.write_text("x,y\n" + "\n".join(f"{x},{y}" for x, y in pairs), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "simulate", "--input", str(pop), "--n", "2", "--reps", "50",
            "--seed", "1", "--estimators", "M_d4,M_y", "--format", "json",
        )
        assert (code, err) == (0, "")
        report = json.loads(out)
        detail = {d["estimator"]: d for d in report["detail"]}
        assert (detail["M_d4"]["failures"], detail["M_y"]["failures"]) == (1, 0)
        assert [r["empirical_mse"] for r in report["rows"]] == [
            1.4195989295804354, 0.985,
        ]


class TestCompareCommand:
    def test_pop1_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--params", "popI")
        assert code == 0
        assert "5/5 checks passed" in out

    def test_pop2_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--params", "popII")
        assert code == 0
        assert "5/5 checks passed" in out

    def test_degenerate_pivot_flagged(self, capsys, tmp_path):
        flat = tmp_path / "flat.json"
        flat.write_text(
            json.dumps(
                {
                    "N": 100, "n": 20, "median_y": 50, "median_x": 50,
                    "fy_at_median": 0.01, "fx_at_median": 0.012, "rho_c": 0.4,
                }
            ),
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "compare", "--params", str(flat))
        assert code == 0
        assert "degenerate pivot" in out

    @pytest.mark.parametrize(
        "rho_c, expected",
        [
            (
                0.3,
                "tm_vs_difference: PASS (margin 20.48) [degenerate pivot: R = 1]\n"
                "tmq_vs_difference: PASS (margin 20.48) [degenerate pivot: R = 1]\n"
                "tm_vs_shrink_diff: PASS (margin 20.41) [degenerate pivot: R = 1]\n"
                "shrink_scaled_vs_shrink_diff: PASS (margin 1.59e-04)\n"
                "tm_vs_shrink_scaled: PASS (margin 20.41) [degenerate pivot: R = 1]\n"
                "5/5 checks passed\n",
            ),
            (
                1.0,
                "tm_vs_difference: INDETERMINATE (margin 7.11e-15) [degenerate pivot: R = 1]\n"
                "tmq_vs_difference: INDETERMINATE (margin 7.11e-15) [degenerate pivot: R = 1]\n"
                "tm_vs_shrink_diff: INDETERMINATE (margin 7.11e-15) [degenerate pivot: R = 1]\n"
                "shrink_scaled_vs_shrink_diff: INDETERMINATE (margin 0)\n"
                "tm_vs_shrink_scaled: INDETERMINATE (margin 7.11e-15) [degenerate pivot: R = 1]\n"
                "0/5 checks passed\n",
            ),
        ],
    )
    def test_coinciding_medians(self, capsys, tmp_path, rho_c, expected):
        code, out, err = run_cli(
            capsys, "compare", "--params", _coinciding_medians(tmp_path, rho_c)
        )
        assert (code, out, err) == (0, expected, "")

    def test_integer_margin_keeps_its_zeros(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--params", "popII", "--precision", "0")
        assert (code, err) == (0, "")
        assert "shrink_scaled_vs_shrink_diff: PASS (margin 60)" in out.splitlines()

    @pytest.mark.parametrize("fmt", ["csv", "json", "md"])
    def test_format_is_not_an_option(self, fmt):
        # compare always prints text
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--params", "popI", "--format", fmt])
        assert exc.value.code == 2

    def test_ss4_precondition_is_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(STEEP), encoding="utf-8")
        code, out, err = run_cli(capsys, "compare", "--params", str(path))
        assert (code, out) == (1, "")
        assert err == "error: need 1 - gamma*cv_x^2 > 0, got -11.5\n"

    def test_tmq_preset_scalars(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--params", "popI", "--tmq-preset", "t_mq7"
        )
        assert code == 0
        assert "5/5 checks passed" in out

    def test_unknown_tmq_preset_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--params", "popI", "--tmq-preset", "M_zz"])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("medaux: error: unknown estimator 'M_zz'; valid names: M_y,")

    def test_non_shrunk_preset_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--params", "popI", "--tmq-preset", "M_r"
        )
        assert code == 1
        assert "single-weight" in err


def _written_params(capsys, tmp_path, *source: str) -> Path:
    """The file that ``params --format json`` writes for ``source``."""
    code, out, err = run_cli(capsys, "params", *source, "--format", "json")
    assert (code, err) == (0, "")
    path = tmp_path / "written.json"
    path.write_text(out, encoding="utf-8")
    return path


def _analytic_columns(out: str) -> list[tuple]:
    return [
        (r["estimator"], r["analytic_mse"], r["analytic_bias"], r["pre"])
        for r in json.loads(out)["rows"]
    ]


class TestParamsFileRoundTrip:
    @pytest.mark.parametrize("pop", ["popI", "popII"])
    @pytest.mark.parametrize(
        "argv",
        [["table", "--format", "csv"], ["table", "--format", "json"], ["compare"]],
    )
    def test_written_file_matches_builtin(self, capsys, tmp_path, pop, argv):
        written = _written_params(capsys, tmp_path, "--params", pop)
        expected = run_cli(capsys, *argv, "--params", pop)
        assert expected[0] == 0 and expected[2] == ""
        assert run_cli(capsys, *argv, "--params", str(written)) == expected

    def test_disagreeing_derived_key_is_one_line_error(self, capsys, tmp_path):
        written = _written_params(capsys, tmp_path, "--params", "popI")
        doc = json.loads(written.read_text(encoding="utf-8"))
        written.write_text(json.dumps({**doc, "median_ratio": 0.5}), encoding="utf-8")
        code, out, err = run_cli(capsys, "table", "--params", str(written))
        assert (code, out) == (1, "")
        assert err.startswith("error: params key 'median_ratio' is 0.5, ")
        assert err.count("\n") == 1

    def test_unknown_key_is_error(self, capsys, tmp_path):
        written = _written_params(capsys, tmp_path, "--params", "popI")
        doc = json.loads(written.read_text(encoding="utf-8"))
        written.write_text(json.dumps({**doc, "extra": 1}), encoding="utf-8")
        code, out, err = run_cli(capsys, "compare", "--params", str(written))
        assert (code, out) == (1, "")
        assert err == "error: params file carries unknown keys: ['extra']\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["params", "--params", "popI"],
            ["table", "--params", "popI"],
            ["compare", "--params", "popI"],
            ["simulate", "--synthetic", "N=100", "--n", "5", "--reps", "1"],
        ],
    )
    def test_lenient_is_not_an_option(self, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--lenient"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["table", "compare"])
    def test_delta_is_not_an_option(self, command):
        # M_d4 has no scaling exponent, in table as in simulate
        with pytest.raises(SystemExit) as exc:
            main([command, "--params", "popI", "--delta", "1"])
        assert exc.value.code == 2

    def test_rounding_residue_mse_reports_inf(self, capsys, tmp_path, pop_csv):
        # rho_c = 1 on this population: M_d's first-order MSE is a negative
        # rounding residue of zero, which table reports as simulate does
        written = _written_params(capsys, tmp_path, "--input", pop_csv, "--n", "10")
        names = ("--estimators", "M_y,M_r,M_d,t_m")
        code, out, _ = run_cli(capsys, "table", "--params", str(written), *names)
        assert code == 0
        assert "M_d,0.00,0.00,,inf" in out.splitlines()
        _, table, _ = run_cli(
            capsys, "table", "--params", str(written), *names, "--format", "json"
        )
        code, simulated, _ = run_cli(
            capsys, "simulate", "--input", pop_csv, "--n", "10", "--reps", "20",
            *names, "--format", "json",
        )
        assert code == 0
        assert _analytic_columns(table) == _analytic_columns(simulated)


class TestByteOrderMark:
    """A UTF-8 byte-order mark, as spreadsheet programs write at the start of
    "CSV UTF-8" files, is read past: the output equals that of the file
    without it."""

    @staticmethod
    def _with_bom(path: Path) -> str:
        marked = path.with_name("bom-" + path.name)
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return str(marked)

    @pytest.mark.parametrize(
        "argv",
        [
            ["params", "--n", "10", "--format", "json"],
            ["simulate", "--n", "10", "--reps", "30", "--seed", "4", "--format", "json"],
        ],
    )
    def test_population_csv(self, capsys, pop_csv, argv):
        expected = run_cli(capsys, *argv, "--input", pop_csv)
        assert expected[0] == 0
        marked = self._with_bom(Path(pop_csv))
        assert run_cli(capsys, *argv, "--input", marked) == expected

    @pytest.mark.parametrize("argv", [["table", "--format", "json"], ["compare"]])
    def test_params_file(self, capsys, tmp_path, argv):
        written = _written_params(capsys, tmp_path, "--params", "popI")
        expected = run_cli(capsys, *argv, "--params", str(written))
        assert expected[0] == 0
        marked = self._with_bom(written)
        assert run_cli(capsys, *argv, "--params", marked) == expected


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("table-popI.json", ["table", "--params", "popI", "--format", "json"]),
        ("table-popII.json", ["table", "--params", "popII", "--format", "json"]),
        ("compare-popI.txt", ["compare", "--params", "popI"]),
        (
            "compare-popII-tmq7.txt",
            ["compare", "--params", "popII", "--tmq-preset", "t_mq7"],
        ),
        (
            "simulate-criterion7.json",
            [
                "simulate", "--synthetic",
                "N=400,mu_x=6.9,sigma_x=0.5,mu_y=7,sigma_y=0.5,rho=0.8,seed=12",
                "--n", "50", "--reps", "200", "--seed", "5", "--format", "json",
            ],
        ),
        *(
            (
                f"table-{pop}-all-presets.json",
                [
                    "table", "--params", pop,
                    "--estimators", ",".join(PRESET_NAMES), "--format", "json",
                ],
            )
            for pop in ("popI", "popII")
        ),
        (
            "simulate-plugin-folded.json",
            [
                "simulate", "--synthetic",
                "N=2000,mu_x=7,sigma_x=0.5,mu_y=7,sigma_y=0.5,rho=0.8,seed=1",
                "--n", "100", "--reps", "200", "--seed", "7",
                "--estimators", "M_y,M_r,M_p,M_d,t_m1,t_m5,t_mq7,M_lr",
                "--weights", "plug-in", "--format", "json",
            ],
        ),
        ("params-popI.txt", ["params", "--params", "popI"]),
        ("params-popII.json", ["params", "--params", "popII", "--format", "json"]),
        *(
            (
                f"simulate-tied-n{n}.json",
                [
                    "simulate", "--input", str(GOLDEN / "tied-population.csv"),
                    "--n", n, "--reps", "200", "--seed", "3", "--weights", "plug-in",
                    "--estimators", "M_y,M_d,M_lr,t_mq7,M_3", "--format", "json",
                ],
            )
            for n in ("6", "1")
        ),
        (
            "simulate-tied-config.json",
            [
                "simulate", "--input", str(GOLDEN / "tied-population.csv"),
                "--n", "6", "--seed", "11", "--estimators", "M_y,M_lr,M_d",
                "--weights", "plug-in", "--reps", "120", "--format", "json",
            ],
        ),
        *(
            (
                f"simulate-md4-{weights}.json",
                [
                    "simulate", "--synthetic",
                    "N=2000,mu_x=7,sigma_x=0.5,mu_y=7,sigma_y=0.5,rho=0.8,seed=1",
                    "--n", "100", "--reps", "300", "--seed", "7",
                    "--estimators", "M_d4,M_d2,M_d", "--weights", weights,
                    "--format", "json",
                ],
            )
            for weights in ("true-params", "plug-in")
        ),
        (
            # M_d4 loses 9 replicates to a zero sample median of x
            "simulate-tied-md4.json",
            [
                "simulate", "--input", str(GOLDEN / "tied-population.csv"),
                "--n", "6", "--reps", "200", "--seed", "3", "--weights", "plug-in",
                "--estimators", "M_d4,M_d2", "--format", "json",
            ],
        ),
    ],
)
def test_golden_output(capsys, golden, argv):
    """Stdout is byte-identical to the recorded output."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--params", "popI", "--estimators", "M_y"],
        ["params", "--params", "popI"],
        ["simulate", "--synthetic", "N=50,seed=1", "--n", "5", "--reps", "3"],
    ],
    ids=["table", "params", "simulate"],
)
def test_environment_does_not_set_the_format(capsys, monkeypatch, argv):
    """The same argv prints the same bytes: csv unless --format says otherwise."""
    monkeypatch.delenv("MEDAUX_FORMAT", raising=False)
    _, unset, _ = run_cli(capsys, *argv)
    assert unset == run_cli(capsys, *argv, "--format", "csv")[1]
    for value in ("md", "json"):  # params prints md as it prints csv
        monkeypatch.setenv("MEDAUX_FORMAT", value)
        assert run_cli(capsys, *argv)[1] == unset
