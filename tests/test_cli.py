import dataclasses
import json
import math

import pytest

from spectrum_market import cli

BASE_PARAMS = {
    "alpha": 0.5, "n_fixed": 50, "n_mobile": 50,
    "r0": 50, "lambda_s": 4, "lambda_u": 3,
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _scenario(**sections):
    raw = {"schema_version": 1, "params": dict(BASE_PARAMS)}
    raw.update(sections)
    return raw


class TestAssociate:
    def test_hand_example_report(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", _scenario(
            associate={"per_sp": [[1.0, 1.0]], "b_unlicensed": 1.0}
        ))
        assert cli.main(["associate", "--scenario", path]) == 0
        report = json.loads(capsys.readouterr().out)
        out = report["outcome"]
        assert out["regime"] == "separate"
        assert out["k_small"] == pytest.approx(12.5)
        assert out["k_unlicensed"] == pytest.approx(37.5)
        assert out["p_small"] == pytest.approx(0.25)
        assert out["social_welfare"] == pytest.approx(350.0)

    def test_no_unlicensed(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", _scenario(
            associate={"per_sp": [[1.0, 1.0]]}
        ))
        assert cli.main(["associate", "--scenario", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outcome"]["k_unlicensed"] == 0.0

    def test_mobile_unservable_exit_2(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", _scenario(
            associate={"per_sp": [[0.0, 1.0]], "b_unlicensed": 1.0}
        ))
        assert cli.main(["associate", "--scenario", path]) == 2
        assert "mobile users unservable" in capsys.readouterr().err


class TestValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        raw = _scenario(associate={"per_sp": [[1, 1]]})
        raw["bogus"] = 1
        path = _write(tmp_path, "s.json", raw)
        assert cli.main(["associate", "--scenario", path]) == 2
        assert "unknown field" in capsys.readouterr().err

    def test_bad_schema_version(self, tmp_path, capsys):
        raw = _scenario(associate={"per_sp": [[1, 1]]})
        raw["schema_version"] = 99
        path = _write(tmp_path, "s.json", raw)
        assert cli.main(["associate", "--scenario", path]) == 2

    def test_invalid_params(self, tmp_path, capsys):
        raw = _scenario(associate={"per_sp": [[1, 1]]})
        raw["params"]["alpha"] = 2.0
        path = _write(tmp_path, "s.json", raw)
        assert cli.main(["associate", "--scenario", path]) == 2

    def test_missing_section(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", _scenario())
        assert cli.main(["nash", "--scenario", path]) == 2

    def test_unreadable_file(self, capsys):
        assert cli.main(["planner", "--scenario", "/nonexistent.json"]) == 2

    def test_string_param(self, tmp_path, capsys):
        raw = _scenario(associate={"per_sp": [[1, 1]]})
        raw["params"]["alpha"] = "0.5"
        path = _write(tmp_path, "s.json", raw)
        assert cli.main(["associate", "--scenario", path]) == 2
        assert "parameters must be finite real numbers" in capsys.readouterr().err

    def test_negative_unlicensed_bandwidth(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", _scenario(
            nash={"bandwidths": [1.0, 1.0], "b_unlicensed": -1.0}
        ))
        assert cli.main(["nash", "--scenario", path]) == 2
        assert "unlicensed bandwidth must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("command, section", [
    ("associate", {"per_sp": [["1", 1.0]]}),
    ("associate", {"per_sp": [[1.0, 1.0]], "b_unlicensed": "0.5"}),
    ("monopoly", {"total_bandwidth": "2"}),
    ("monopoly", {"total_bandwidth": 2.0, "b_unlicensed": True}),
    ("nash", {"bandwidths": [1.0, "1"]}),
    ("nash", {"bandwidths": 2.0}),
    ("nash", {"bandwidths": [1.0, 1.0], "b_unlicensed": None}),
    ("planner", {"total_bandwidth": "2"}),
    ("planner", {"total_bandwidth": 10 ** 400}),
    ("sweep", {"total_bandwidth": "2"}),
    ("sweep", {"total_bandwidth": 2.0, "grid": "21"}),
    ("sweep", {"total_bandwidth": 2.0, "grid": 21.5}),
])
def test_non_numeric_section_value(tmp_path, capsys, command, section):
    path = _write(tmp_path, "s.json", _scenario(**{command: section}))
    assert cli.main([command, "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{command}." in captured.err and "expected a" in captured.err


@pytest.mark.parametrize("command, section", [
    ("monopoly", '{"total_bandwidth": 1e400}'),
    ("nash", '{"bandwidths": [1.0, 1.0], "b_unlicensed": NaN}'),
    ("planner", '{"total_bandwidth": 1e400}'),
    ("sweep", '{"total_bandwidth": -Infinity}'),
])
def test_non_finite_section_value(tmp_path, capsys, command, section):
    # JSON reads 1e400 as inf; Python's reader also accepts NaN and Infinity
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_scenario())[:-1] + f', "{command}": {section}}}')
    assert cli.main([command, "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a finite number" in captured.err


@pytest.mark.parametrize("command, section", [
    ("associate", {"per_sp": [[1e307, 1e307]], "b_unlicensed": 1e307}),
    ("monopoly", {"total_bandwidth": 1e307}),
    ("nash", {"bandwidths": [1.0, 1.0], "b_unlicensed": 1e307}),
])
def test_overflowing_capacity(tmp_path, capsys, command, section):
    # finite bandwidths whose rate capacity is not: exit 2, no NaN report
    path = _write(tmp_path, "s.json", _scenario(**{command: section}))
    assert cli.main([command, "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rate capacities overflow" in captured.err


def test_nash_on_a_band_beyond_float_resolution(tmp_path, capsys):
    # a band near the top of the float range next to a unit one: the price
    # stage rejects the equilibrium profile as out of domain (exit 2), where
    # the first-order residual used to meet a NaN (exit 3)
    path = _write(tmp_path, "s.json", _scenario(
        nash={"bandwidths": [1e306, 1.0], "b_unlicensed": 1.0}
    ))
    assert cli.main(["nash", "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["planner", "nash", "sweep", "monopoly"])
def test_near_zero_alpha_exits_without_a_traceback(tmp_path, capsys, command):
    # lambda^(1/alpha) is beyond the float range: an answer or a model error
    raw = _scenario(
        planner={"total_bandwidth": 2.0},
        nash={"bandwidths": [1.0, 1.0], "b_unlicensed": 1.0},
        monopoly={"total_bandwidth": 2.0, "b_unlicensed": 1.0},
        sweep={"total_bandwidth": 2.0, "grid": 21},
    )
    raw["params"]["alpha"] = 1e-6
    code = cli.main([command, "--scenario", _write(tmp_path, "s.json", raw)])
    captured = capsys.readouterr()
    assert code in (0, 2, 3)
    assert "Traceback" not in captured.err
    if command == "planner":
        assert code == 0
        report = json.loads(captured.out)
        assert all(math.isfinite(v) for v in report.values() if isinstance(v, float))


def _floats(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for v in obj for x in _floats(v)]
    return [obj] if isinstance(obj, float) else []


def _assert_closed_form_split(tmp_path, capsys, command, raw, band):
    # without unlicensed capacity the revenue split has the closed form
    # b_macro / b_small = (N_m / N_f) * lambda_s^(1 - 1/alpha)
    assert cli.main([command, "--scenario", _write(tmp_path, "s.json", raw)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(math.isfinite(x) for x in _floats(report))
    assert report["outcome"]["regime"] == "separate"
    p = raw["params"]
    ratio = p["n_mobile"] / p["n_fixed"] * p["lambda_s"] ** (1.0 - 1.0 / p["alpha"])
    for b_m, b_s in report["allocation"]["per_sp"]:
        assert b_m + b_s == pytest.approx(band, rel=1e-15)
        assert b_m / b_s == pytest.approx(ratio, rel=1e-13)


@pytest.mark.parametrize("command, section", [
    ("nash", {"bandwidths": [2.2951e-8], "b_unlicensed": 0.0}),
    ("monopoly", {"total_bandwidth": 2.2951e-8, "b_unlicensed": 0.0}),
])
def test_tiny_band_next_to_a_large_fixed_user_mass_solves(tmp_path, capsys, command, section):
    # the macro-cells keep 1e-6 of a tiny band; an absolute root tolerance
    # left this split in the mixed regime
    raw = {"schema_version": 1, "params": {
        "alpha": 0.30923, "n_fixed": 186817.38, "n_mobile": 0.193454,
        "r0": 0.311191, "lambda_s": 1.0002046, "lambda_u": 34.384,
    }, command: section}
    _assert_closed_form_split(tmp_path, capsys, command, raw, 2.2951e-8)


@pytest.mark.parametrize("band", [1e-45, 1e-60])
@pytest.mark.parametrize("command", ["monopoly", "nash"])
def test_bands_below_1e_44_solve(tmp_path, capsys, command, band):
    raw = _scenario(
        monopoly={"total_bandwidth": band, "b_unlicensed": 0.0},
        nash={"bandwidths": [band, band], "b_unlicensed": 0.0},
    )
    raw["params"]["alpha"] = 0.01
    _assert_closed_form_split(tmp_path, capsys, command, raw, band)


class TestCommands:
    def test_monopoly_report(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", _scenario(
            monopoly={"total_bandwidth": 2.0, "b_unlicensed": 0.5}
        ))
        assert cli.main(["monopoly", "--scenario", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["objective"] == "revenue"
        assert report["b_small"] == pytest.approx(1.640424803691373, abs=1e-9)
        assert not report["boundary"]

    def test_nash_report(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", _scenario(
            nash={"bandwidths": [1.0, 1.0], "b_unlicensed": 1.0}
        ))
        assert cli.main(["nash", "--scenario", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["classification"] in ("MSNE", "MPNE", "MNE")
        assert len(report["allocation"]["per_sp"]) == 2

    def test_planner_report(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", _scenario(
            planner={"total_bandwidth": 2.0}
        ))
        assert cli.main(["planner", "--scenario", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["b_small"] == pytest.approx(1.6)
        assert report["b_unlicensed"] == 0.0

    def test_round_trip_monopoly_to_associate(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", _scenario(
            monopoly={"total_bandwidth": 2.0, "b_unlicensed": 0.5}
        ))
        cli.main(["monopoly", "--scenario", path])
        report = json.loads(capsys.readouterr().out)
        path2 = _write(tmp_path, "rt.json", _scenario(
            associate=report["allocation"]
        ))
        assert cli.main(["associate", "--scenario", path2]) == 0
        rt = json.loads(capsys.readouterr().out)
        assert rt["outcome"]["social_welfare"] == pytest.approx(
            report["outcome"]["social_welfare"], rel=1e-12
        )


class TestSweep:
    def _sweep_scenario(self, tmp_path, params=None, series=None):
        raw = _scenario(sweep={"total_bandwidth": 2.0, "grid": 21})
        if series:
            raw["sweep"]["series"] = series
        if params:
            raw["params"].update(params)
        return _write(tmp_path, "sweep.json", raw)

    def test_csv_header_and_kinks(self, tmp_path, capsys):
        path = self._sweep_scenario(
            tmp_path, params={"alpha": 0.8, "lambda_u": 4.5}
        )
        assert cli.main(["sweep", "--scenario", path]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header = lines[0].split(",")
        assert header == ["b_u", "planner", "n1_rev", "n2", "ninf",
                          "kink_n1_rev", "kink_n2", "kink_ninf"]
        first = lines[1].split(",")
        kink_rev = float(first[header.index("kink_n1_rev")])
        assert kink_rev == pytest.approx(1.51, abs=0.01)
        # planner column constant across rows
        planner_col = {row.split(",")[1] for row in lines[1:]}
        assert len(planner_col) == 1

    def test_deterministic(self, tmp_path):
        path = self._sweep_scenario(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.main(["sweep", "--scenario", path, "--out", str(out1)]) == 0
        assert cli.main(["sweep", "--scenario", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_jobs_flag_removed(self, tmp_path, capsys):
        path = self._sweep_scenario(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--scenario", path, "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        path = self._sweep_scenario(tmp_path)
        assert cli.main(["sweep", "--scenario", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["grid"]) == 21
        assert set(report["series"]) == {"planner", "n1_rev", "n2", "ninf"}

    def test_grid_override(self, tmp_path, capsys):
        path = self._sweep_scenario(tmp_path)
        assert cli.main(["sweep", "--scenario", path, "--format", "json",
                         "--grid", "11"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["grid"]) == 11

    @pytest.mark.parametrize("series", [5, "n2", [["n2"]]])
    def test_series_not_a_list_of_names(self, tmp_path, capsys, series):
        path = self._sweep_scenario(tmp_path, series=series)
        assert cli.main(["sweep", "--scenario", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sweep.series: expected a list of series names" in captured.err

    @pytest.mark.parametrize("grid", ["1", "0", "-3"])
    def test_grid_below_two_points(self, tmp_path, capsys, grid):
        path = self._sweep_scenario(tmp_path)
        assert cli.main(["sweep", "--scenario", path, "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least 2 points" in captured.err

    # exit codes under a top inset of 1e-6 absolute: 2 at 1e-7 (the top falls
    # below 0), 0 with every row at b_u = 0 at 1e-6, 2 at 1e11 (the top rounds
    # to B from 2^34); under an inset of 5e-7 B every band sweeps
    @pytest.mark.parametrize("band, code", [(1e-7, 0), (1e-6, 0), (1e11, 0)])
    def test_grid_inset_is_relative_to_the_band(self, tmp_path, capsys, band, code):
        path = _write(tmp_path, "sweep.json", _scenario(sweep={"total_bandwidth": band, "grid": 21}))
        assert cli.main(["sweep", "--scenario", path]) == code
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        b_u = [float(row[0]) for row in rows]
        assert len(set(b_u)) == 21 and b_u[0] == 0.0 and b_u[-1] < band
        assert all(math.isfinite(float(cell)) for row in rows for cell in row[:5])


@pytest.mark.parametrize("command, section, patch", [
    ("planner", {"planner": {"total_bandwidth": 2.0}}, "planner_optimal"),
    ("sweep", {"sweep": {"total_bandwidth": 2.0, "grid": 5}}, "welfare_sweep"),
])
def test_non_finite_report_exits_3(tmp_path, capsys, monkeypatch, command, section, patch):
    # whatever path puts a NaN or inf into a report, the JSON writer refuses it
    real = getattr(cli.welfare, patch)

    def poisoned(*args):
        result = real(*args)
        if patch == "planner_optimal":
            return dataclasses.replace(result, welfare=math.inf)
        result.series["planner"][0] = math.nan
        return result

    monkeypatch.setattr(cli.welfare, patch, poisoned)
    path = _write(tmp_path, "s.json", _scenario(**section))
    assert cli.main([command, "--scenario", path, "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite number" in captured.err


class TestSeedFigures:
    def test_writes_four_valid_scenarios(self, tmp_path, capsys):
        out = tmp_path / "figs"
        assert cli.main(["--seed-figures", str(out)]) == 0
        paths = capsys.readouterr().out.strip().split("\n")
        assert len(paths) == 4
        for p in paths:
            raw = cli.load_scenario(p)
            cli.scenario_params(raw)
