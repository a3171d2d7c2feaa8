"""Config parsing: round trips, unknown keys, and diagnostics."""
from __future__ import annotations

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bousslab import (AnalysisConfig, ConfigError, DataConfig,
                      DiscretizationConfig, ExperimentConfig, ModelConfig,
                      load_config)
from bousslab import config, experiments, nonlinear
from bousslab.config import MAX_STEPS
from bousslab.nonlinear import _output_count, _output_times

ROOT = Path(__file__).resolve().parents[1]

VALID = {
    "experiment": "linear_rates",
    "seed": 3,
    "model": {"alpha": -1.5, "beta": 2.0, "f_kind": "cubic", "g_kind": "none"},
    "discretization": {"n": 2, "L": 100.0, "N": 128, "dt": 0.02, "T": 30.0,
                       "out_every": 5},
    "data": {"kind": "gaussian", "amplitude": 0.5, "width": 2.0},
    "analysis": {"k_list": [0, 1], "fit_window": [10.0, 500.0],
                 "slope_tol": 0.04},
}


class TestRoundTrip:
    def test_dict_round_trip_is_lossless(self):
        cfg = ExperimentConfig.from_dict(VALID)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(VALID))
        cfg = load_config(path)
        assert cfg.experiment == "linear_rates"
        assert cfg.model.alpha == -1.5
        assert cfg.discretization.N == 128
        assert cfg.analysis.k_list == (0, 1)
        assert cfg.analysis.fit_window == (10.0, 500.0)

    def test_defaults_fill_missing_sections(self):
        cfg = ExperimentConfig.from_dict({"experiment": "lemma_certify"})
        assert cfg.model == ModelConfig()
        assert cfg.discretization == DiscretizationConfig()
        assert cfg.data == DataConfig()
        assert cfg.analysis == AnalysisConfig()
        assert cfg.seed == 0


class TestValidation:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="experiment"):
            ExperimentConfig.from_dict({"experiment": "warp_drive"})

    def test_unknown_keys_are_hard_errors(self):
        bad = dict(VALID, extra=1)
        with pytest.raises(ConfigError, match="unknown key"):
            ExperimentConfig.from_dict(bad)
        bad = dict(VALID, model={"alpha": -1.0, "alpa": -1.0})
        with pytest.raises(ConfigError, match=r"model\..?alpa"):
            ExperimentConfig.from_dict(bad)

    @pytest.mark.parametrize("section,key,value", [
        ("model", "alpha", -0.5),
        ("model", "beta", 0.0),
        ("model", "f_kind", "quartic"),
        ("model", "g_sign", 0.0),
        ("discretization", "n", 4),
        ("discretization", "N", 15),
        ("discretization", "N", 4),
        ("discretization", "L", -1.0),
        ("discretization", "dt", 0.0),
        ("discretization", "out_every", 0),
        ("data", "kind", "checkerboard"),
        ("data", "width", 0.0),
        ("data", "eps", 1.5),
        ("analysis", "k_list", [0, 9]),
        ("analysis", "fit_window", [100.0, 10.0]),
        ("analysis", "n_times", 4),
        ("analysis", "slope_tol", 0.0),
    ])
    def test_bad_values_rejected_with_field_name(self, section, key, value):
        bad = json.loads(json.dumps(VALID))
        bad[section][key] = value
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(bad)

    # scale parameters whose squares or cubes leave the double range (an
    # overflowing cell volume, a Gaussian of zero width) and non-finite
    # window ends, found by the config fuzz test
    @pytest.mark.parametrize("section,key,value", [
        ("model", "alpha", -1e300), ("model", "alpha", float("-inf")),
        ("discretization", "L", 1e300), ("discretization", "L", 1e-300),
        ("data", "width", 1e300), ("data", "width", 1e-300),
        ("analysis", "fit_window", [10.0, float("inf")]),
    ])
    def test_values_outside_the_float_range_rejected(self, section, key, value):
        bad = json.loads(json.dumps(VALID))
        bad[section][key] = value
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}(\[1\])?: "):
            ExperimentConfig.from_dict(bad)

    def test_certify_band_must_hold_a_grid_frequency(self):
        cfg = {"experiment": "lemma_certify", "analysis": {"r0": 1e-3}}
        assert ExperimentConfig.from_dict(cfg).analysis.r0 == 1e-3
        cfg["analysis"]["r0"] = 9e-4
        with pytest.raises(ConfigError, match=r"^analysis\.r0: no certification "
                                              r"frequency at or below r0=0\.0009"):
            ExperimentConfig.from_dict(cfg)

    def test_gap_fit_window_must_start_after_time_zero(self):
        # the nonlinear-minus-linear gap is exactly 0 at t = 0
        box = {**VALID, "experiment": "nl_vs_linear_gap"}
        cfg = {**box, "analysis": {**VALID["analysis"], "fit_window": [0.1, 30.0]}}
        ExperimentConfig.from_dict(cfg)
        cfg["analysis"]["fit_window"] = [0.0, 30.0]
        with pytest.raises(ConfigError, match=r"^analysis\.fit_window: must start "
                                              r"after t = 0"):
            ExperimentConfig.from_dict(cfg)

    @pytest.mark.parametrize("section,key,wrong", [
        (f.name, g.name, 1 if g.type == "str" else "x")
        for f in dataclasses.fields(ExperimentConfig)
        if f.default_factory is not dataclasses.MISSING
        for g in dataclasses.fields(f.default_factory)])
    def test_every_section_field_rejects_booleans_and_wrong_types(self, section, key, wrong):
        for value in (True, False, wrong):
            bad = json.loads(json.dumps(VALID))
            bad[section][key] = value
            with pytest.raises(ConfigError, match=rf"^{section}\.{key}: "):
                ExperimentConfig.from_dict(bad)

    def test_booleans_are_not_numbers(self):
        bad = json.loads(json.dumps(VALID))
        bad["discretization"]["N"] = True
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    @pytest.mark.parametrize("section,key,value,message", [
        ("model", "alpha", "x", "model.alpha: expected a number, got 'x'"),
        ("model", "alpha", True, "model.alpha: expected a number, got a boolean"),
        ("data", "kind", True, "data.kind: expected a string, got a boolean"),
        ("data", "kind", 1, "data.kind: expected a string, got 1"),
        ("data", "path", 1, "data.path: expected a string, got 1"),
        ("discretization", "n", 2.0, "discretization.n: expected an integer, got 2.0"),
        ("analysis", "k_list", 3, "analysis.k_list: expected a list, got 3"),
        ("analysis", "k_list", [0, False],
         "analysis.k_list[1]: expected an integer, got a boolean"),
        ("analysis", "fit_window", [1.0, "x"],
         "analysis.fit_window[1]: expected a number, got 'x'"),
    ])
    def test_type_errors_name_the_json_type(self, section, key, value, message):
        bad = json.loads(json.dumps(VALID))
        bad[section][key] = value
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(bad)
        assert str(err.value) == message

    @pytest.mark.parametrize("section,key", [
        (f.name, g.name)
        for f in dataclasses.fields(ExperimentConfig)
        if f.default_factory is not dataclasses.MISSING
        for g in dataclasses.fields(f.default_factory)])
    def test_every_section_field_names_a_json_type_for_a_boolean(self, section, key):
        bad = json.loads(json.dumps(VALID))
        bad[section][key] = True
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: expected "
                                              r"(a number|an integer|a string|a list), "
                                              r"got a boolean$"):
            ExperimentConfig.from_dict(bad)

    @pytest.mark.parametrize("section,key,value,message", [
        ("model", "alpha", 0.5, "model.alpha: invalid value 0.5 (must lie in [-1e+100, -1])"),
        ("data", "kind", "x", "data.kind: invalid value 'x' "
                              "(one of gaussian, radial_L2, custom_file)"),
        ("analysis", "k_list", [], "analysis.k_list: invalid value [] (must be nonempty)"),
    ])
    def test_range_text_is_in_the_predicate_message_only(self, section, key, value,
                                                         message):
        bad = json.loads(json.dumps(VALID))
        bad[section][key] = value
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(bad)
        assert str(err.value) == message

    def test_custom_file_requires_path(self):
        bad = json.loads(json.dumps(VALID))
        bad["data"] = {"kind": "custom_file"}
        with pytest.raises(ConfigError, match="path"):
            ExperimentConfig.from_dict(bad)

    @pytest.mark.parametrize("experiment", ["nonlinear_rates", "nl_vs_linear_gap",
                                            "oracle_crosscheck"])
    def test_time_step_must_divide_the_final_time(self, experiment):
        bad = {**VALID, "experiment": experiment,
               "discretization": {**VALID["discretization"], "dt": 0.07}}
        with pytest.raises(ConfigError, match=r"^discretization\.dt: dt=0\.07 "
                                              r"does not divide T=30\.0$"):
            ExperimentConfig.from_dict(bad)

    @pytest.mark.parametrize("dt", [1e-12, 1e-300, 5e-324])
    def test_step_count_over_the_ceiling_is_rejected_at_load(self, tmp_path, dt):
        # rejected before any array is built: at dt = 1e-12 the output times
        # alone would take 36.4 TiB, and at 5e-324 T/dt overflows to inf
        cfg = json.loads((ROOT / "configs" / "nonlinear_rates_1d.json").read_text())
        cfg["discretization"]["dt"] = dt
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match=r"^discretization\.dt: T/dt = .* steps is "
                                              r"over the ceiling of 1000000 steps$"):
            load_config(path)

    @pytest.mark.parametrize("experiment", ["nonlinear_rates", "nl_vs_linear_gap",
                                            "oracle_crosscheck"])
    def test_step_ceiling_admits_exactly_max_steps(self, experiment):
        box = {**VALID, "experiment": experiment}
        for steps, ok in ((MAX_STEPS, True), (MAX_STEPS + 1, False)):
            cfg = {**box, "discretization": {**VALID["discretization"],
                                             "dt": 30.0 / steps}}
            if ok:
                ExperimentConfig.from_dict(cfg)
            else:
                with pytest.raises(ConfigError, match=r"^discretization\.dt: .* over "
                                                      r"the ceiling"):
                    ExperimentConfig.from_dict(cfg)

    def test_radial_experiments_do_not_step_in_time(self):
        # linear_rates never reads dt, T or out_every against its fit window
        cfg = {**VALID, "discretization": {**VALID["discretization"], "dt": 0.07}}
        assert ExperimentConfig.from_dict(cfg).discretization.dt == 0.07

    def test_fit_window_counts_the_recorded_output_times(self):
        # T = 30, dt = 0.02, every 5th step: outputs every 0.1 and the fit
        # window holds those in [lo, hi], ends included
        box = {**VALID, "experiment": "nl_vs_linear_gap"}
        for window, ok in (([29.5, 30.0], True), ([29.55, 30.0], False)):
            cfg = {**box, "analysis": {**VALID["analysis"], "fit_window": window}}
            if ok:
                ExperimentConfig.from_dict(cfg)
            else:
                with pytest.raises(ConfigError, match=r"^analysis\.fit_window: "
                                                      r"need at least 6 points"):
                    ExperimentConfig.from_dict(cfg)

    def test_decay_series_needs_eight_output_times(self):
        # 1500 steps: every 215th gives 0, six multiples and the last step;
        # every 250th ends on a multiple, one output time fewer
        box = {**VALID, "experiment": "nonlinear_rates",
               "analysis": {**VALID["analysis"], "fit_window": [0.0, 30.0]}}
        for out_every, ok in ((215, True), (250, False)):
            cfg = {**box, "discretization": {**VALID["discretization"],
                                             "out_every": out_every}}
            if ok:
                ExperimentConfig.from_dict(cfg)
            else:
                with pytest.raises(ConfigError, match=r"^discretization\.out_every: "
                                                      r"trajectory has 7 output times"):
                    ExperimentConfig.from_dict(cfg)


class TestRegistries:
    # each pair lists the same names twice, in modules that cannot share one
    # tuple: the experiment runners import the config, and the config's
    # message order for the kinds is not the solver's
    def test_config_and_runner_registries_name_the_same_experiments(self):
        assert set(config.EXPERIMENTS) == set(experiments.EXPERIMENT_INFO)

    def test_config_and_solver_name_the_same_nonlinearity_kinds(self):
        assert set(config._NONLINEARITY_KINDS) == set(nonlinear._KINDS)


class TestOutputCount:
    def test_count_equals_the_array_predicates(self):
        # the arithmetic count against the times the run records, with
        # cadences that divide the step count and ones that leave a last
        # partial stride, and window ends on, beside and between output
        # times (3 * 0.1 is above 0.3, so [0.3, x] holds it and [x, 0.3] not)
        for dt in (0.1, 0.02, 1.0 / 3.0, 0.25):
            for n_steps in (1, 7, 30, 1000):
                for out_every in (1, 3, 7, 1000, 2000):
                    times = _output_times(n_steps, dt, out_every)
                    assert _output_count(n_steps, dt, out_every) == times.size
                    picks = times[:: max(1, times.size // 4)]
                    ends = np.unique(np.concatenate([
                        [-1.0, 0.0, 0.3, 1.0, 2.5], picks, times[-1:],
                        np.nextafter(picks, -np.inf), np.nextafter(picks, np.inf)]))
                    for lo in ends:
                        for hi in ends[ends >= lo]:
                            inside = np.count_nonzero((times >= lo) & (times <= hi))
                            assert _output_count(n_steps, dt, out_every,
                                                 lo, hi) == inside, (dt, n_steps,
                                                                     out_every, lo, hi)

    def test_loading_the_step_ceiling_builds_no_output_times(self):
        # MAX_STEPS output times would take 8 MB as an array, and the fit
        # window's mask 1 MB more
        cfg = {**VALID, "experiment": "nonlinear_rates",
               "discretization": {**VALID["discretization"],
                                  "dt": 30.0 / MAX_STEPS, "out_every": 1}}
        tracemalloc.start()
        try:
            ExperimentConfig.from_dict(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestFileDiagnostics:
    def test_invalid_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "experiment": "linear_rates",\n  oops\n}\n')
        with pytest.raises(ConfigError, match=r"line 3"):
            load_config(path)

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.json")

    def test_non_object_top_level_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            load_config(path)
