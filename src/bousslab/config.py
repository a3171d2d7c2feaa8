"""Experiment configuration: typed dataclasses with strict JSON loading.

Configs are plain JSON objects mirrored by frozen dataclasses.  Loading is
strict — unknown keys, wrong types, and out-of-range values raise
``ConfigError`` with the offending field path — and ``to_dict`` round-trips
losslessly so that a report can embed the exact configuration it ran.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

from .analysis import _check_fit_count, _check_series_length, default_certify_grids
from .nonlinear import _output_count, _step_count

#: largest magnitude (and, for box and data sizes, its inverse the smallest)
#: of a scale parameter: squares and cubes of it, such as cell volumes,
#: |xi|^4 alpha^2 or width^n, stay finite nonzero doubles
_SCALE_LIMIT = 1e100

#: most time steps ``T/dt`` a box run may take: 250 times the largest
#: shipped run (``nonlinear_rates_1d``, 4 000 steps)
MAX_STEPS = 1_000_000

EXPERIMENTS = ("linear_rates", "nonlinear_rates", "profile_gap",
               "nl_vs_linear_gap", "lemma_certify", "oracle_crosscheck")


class ConfigError(ValueError):
    """A configuration file or dictionary is invalid; message names the field."""


def _check_unknown(section: str, data: Mapping[str, Any], allowed: set[str]) -> None:
    extra = set(data) - allowed
    if extra:
        key = sorted(extra)[0]
        raise ConfigError(f"unknown key {section}{key!r} "
                          f"(allowed: {', '.join(sorted(allowed))})")


def _require(section: str, name: str, value: Any, kinds, pred=None, what: str = "") -> Any:
    if isinstance(value, bool) and bool not in (kinds if isinstance(kinds, tuple) else (kinds,)):
        raise ConfigError(f"{section}{name}: expected a number, got a boolean")
    if not isinstance(value, kinds):
        raise ConfigError(f"{section}{name}: expected {what or kinds}, got {value!r}")
    if pred is not None and not pred(value):
        raise ConfigError(f"{section}{name}: invalid value {value!r}" +
                          (f" ({what})" if what else ""))
    return value


@dataclass(frozen=True)
class ModelConfig:
    """Equation parameters and the shape of the nonlinearity."""

    alpha: float = -1.0
    beta: float = 1.0
    f_kind: str = "quadratic"
    g_kind: str = "quadratic"
    g_sign: float = 1.0

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], section: str = "model.") -> "ModelConfig":
        _check_unknown(section, data, {f.name for f in fields(cls)})
        out: dict[str, Any] = {}
        if "alpha" in data:
            out["alpha"] = float(_require(section, "alpha", data["alpha"], (int, float),
                                          lambda a: -_SCALE_LIMIT <= a <= -1.0,
                                          f"must lie in [-{_SCALE_LIMIT:g}, -1]"))
        if "beta" in data:
            out["beta"] = float(_require(section, "beta", data["beta"], (int, float),
                                         lambda b: b > 0.0, "must be > 0"))
        for key in ("f_kind", "g_kind"):
            if key in data:
                out[key] = _require(section, key, data[key], str,
                                    lambda s: s in ("none", "quadratic", "cubic"),
                                    "one of none, quadratic, cubic")
        if "g_sign" in data:
            out["g_sign"] = float(_require(section, "g_sign", data["g_sign"], (int, float),
                                           lambda s: s in (-1.0, 1.0, -1, 1), "must be +-1"))
        return cls(**out)


@dataclass(frozen=True)
class DiscretizationConfig:
    """Grid and time-stepping parameters."""

    n: int = 1
    L: float = 200.0
    N: int = 256
    dt: float = 0.05
    T: float = 10.0
    out_every: int = 1

    @classmethod
    def from_dict(cls, data: Mapping[str, Any],
                  section: str = "discretization.") -> "DiscretizationConfig":
        _check_unknown(section, data, {f.name for f in fields(cls)})
        out: dict[str, Any] = {}
        if "n" in data:
            out["n"] = _require(section, "n", data["n"], int,
                                lambda v: v in (1, 2, 3), "1, 2, or 3")
        if "L" in data:
            out["L"] = float(_require(section, "L", data["L"], (int, float),
                                      lambda v: 1 / _SCALE_LIMIT <= v <= _SCALE_LIMIT,
                                      f"must lie in [{1 / _SCALE_LIMIT:g}, {_SCALE_LIMIT:g}]"))
        if "N" in data:
            out["N"] = _require(section, "N", data["N"], int,
                                lambda v: v >= 8 and v % 2 == 0, "must be even and >= 8")
        if "dt" in data:
            out["dt"] = float(_require(section, "dt", data["dt"], (int, float),
                                       lambda v: 0 < v < math.inf, "must be positive"))
        if "T" in data:
            out["T"] = float(_require(section, "T", data["T"], (int, float),
                                      lambda v: 0 < v < math.inf, "must be positive"))
        if "out_every" in data:
            out["out_every"] = _require(section, "out_every", data["out_every"], int,
                                        lambda v: v >= 1, "must be >= 1")
        return cls(**out)


@dataclass(frozen=True)
class DataConfig:
    """Initial data: a named family plus its shape parameters."""

    kind: str = "gaussian"
    amplitude: float = 1.0
    width: float = 1.0
    velocity_amplitude: float = 0.0
    eps: float = 0.2
    path: str = ""

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], section: str = "data.") -> "DataConfig":
        _check_unknown(section, data, {f.name for f in fields(cls)})
        out: dict[str, Any] = {}
        if "kind" in data:
            out["kind"] = _require(section, "kind", data["kind"], str,
                                   lambda s: s in ("gaussian", "radial_L2", "custom_file"),
                                   "one of gaussian, radial_L2, custom_file")
        for key, pred, what in (("amplitude", lambda v: math.isfinite(v), "must be finite"),
                                ("width", lambda v: 1 / _SCALE_LIMIT <= v <= _SCALE_LIMIT,
                                 f"must lie in [{1 / _SCALE_LIMIT:g}, {_SCALE_LIMIT:g}]"),
                                ("velocity_amplitude", lambda v: math.isfinite(v), "must be finite"),
                                ("eps", lambda v: 0 < v < 1, "must lie in (0, 1)")):
            if key in data:
                out[key] = float(_require(section, key, data[key], (int, float), pred, what))
        if "path" in data:
            out["path"] = _require(section, "path", data["path"], str)
        cfg = cls(**out)
        if cfg.kind == "custom_file" and not cfg.path:
            raise ConfigError(f"{section}path: required when kind is 'custom_file'")
        return cfg


@dataclass(frozen=True)
class AnalysisConfig:
    """Fit windows, derivative orders, and certification grids."""

    k_list: tuple[int, ...] = (0, 1, 2)
    fit_window: tuple[float, float] = (10.0, 1000.0)
    n_times: int = 40
    slope_tol: float = 0.05
    c_floor: float = 0.1
    cap: float = 1e3
    r0: float = 0.5

    @classmethod
    def from_dict(cls, data: Mapping[str, Any],
                  section: str = "analysis.") -> "AnalysisConfig":
        _check_unknown(section, data, {f.name for f in fields(cls)})
        out: dict[str, Any] = {}
        if "k_list" in data:
            raw = _require(section, "k_list", data["k_list"], list,
                           lambda v: len(v) > 0, "must be nonempty")
            for i, k in enumerate(raw):
                _require(section, f"k_list[{i}]", k, int,
                         lambda v: 0 <= v <= 4, "must lie in 0..4")
            out["k_list"] = tuple(raw)
        if "fit_window" in data:
            raw = _require(section, "fit_window", data["fit_window"], list,
                           lambda v: len(v) == 2, "must be [lo, hi]")
            lo = float(_require(section, "fit_window[0]", raw[0], (int, float),
                                math.isfinite, "must be finite"))
            hi = float(_require(section, "fit_window[1]", raw[1], (int, float),
                                math.isfinite, "must be finite"))
            if not (0 <= lo < hi):
                raise ConfigError(f"{section}fit_window: need 0 <= lo < hi, got {raw}")
            out["fit_window"] = (lo, hi)
        if "n_times" in data:
            out["n_times"] = _require(section, "n_times", data["n_times"], int,
                                      lambda v: v >= 8, "must be >= 8")
        for key, pred, what in (("slope_tol", lambda v: v > 0, "must be > 0"),
                                ("c_floor", lambda v: v >= 0, "must be >= 0"),
                                ("cap", lambda v: v > 0, "must be > 0"),
                                ("r0", lambda v: v > 0, "must be > 0")):
            if key in data:
                out[key] = float(_require(section, key, data[key], (int, float), pred, what))
        return cls(**out)


@dataclass(frozen=True)
class ExperimentConfig:
    """Top-level run description: which experiment, with what pieces."""

    experiment: str
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)
    discretization: DiscretizationConfig = field(default_factory=DiscretizationConfig)
    data: DataConfig = field(default_factory=DataConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        if not isinstance(data, Mapping):
            raise ConfigError(f"top level: expected a JSON object, got {type(data).__name__}")
        _check_unknown("", data, {f.name for f in fields(cls)})
        if "experiment" not in data:
            raise ConfigError("experiment: required key is missing")
        exp = _require("", "experiment", data["experiment"], str,
                       lambda s: s in EXPERIMENTS,
                       "one of " + ", ".join(EXPERIMENTS))
        seed = _require("", "seed", data.get("seed", 0), int,
                        lambda v: v >= 0, "must be >= 0")
        sections: dict[str, Any] = {}
        for name, sub in (("model", ModelConfig), ("discretization", DiscretizationConfig),
                          ("data", DataConfig), ("analysis", AnalysisConfig)):
            raw = data.get(name, {})
            if not isinstance(raw, Mapping):
                raise ConfigError(f"{name}: expected a JSON object, got {raw!r}")
            sections[name] = sub.from_dict(raw)
        cfg = cls(experiment=exp, seed=seed, **sections)
        _check_box_schedule(cfg)
        _check_certify_band(cfg)
        return cfg

    def to_dict(self) -> dict[str, Any]:
        raw = asdict(self)
        raw["analysis"]["k_list"] = list(self.analysis.k_list)
        raw["analysis"]["fit_window"] = list(self.analysis.fit_window)
        return raw


def _check_box_schedule(cfg: ExperimentConfig) -> None:
    """Cross-field constraints of the time-stepping experiments.

    Checked with the predicates the run applies itself, so a config that
    would fail there is rejected here, naming the field: ``dt`` must divide
    ``T`` (:func:`~bousslab.nonlinear.solve`), the decay series of
    ``nonlinear_rates`` needs 8 output times
    (:func:`~bousslab.analysis.decay_series`), and the fit window must hold
    6 of them (:func:`~bousslab.analysis.fit_rate`), after t = 0 for
    ``nl_vs_linear_gap``, whose nonlinear-minus-linear gap is exactly 0
    there (both runs start from the same spectra).  ``oracle_crosscheck``
    picks its own output cadence and fits nothing, so only its step count
    is checked.
    A run may take at most ``MAX_STEPS`` steps.  The output times are
    counted arithmetically (:func:`~bousslab.nonlinear._output_count`), so
    loading allocates nothing per step or per output time.
    """
    if cfg.experiment not in ("nonlinear_rates", "nl_vs_linear_gap", "oracle_crosscheck"):
        return
    d = cfg.discretization
    # round(T / dt) > MAX_STEPS, or T / dt overflowed to inf
    if not d.T / d.dt <= MAX_STEPS + 0.5:
        raise ConfigError(f"discretization.dt: T/dt = {d.T / d.dt:.6g} steps is over "
                          f"the ceiling of {MAX_STEPS} steps")
    try:
        n_steps = _step_count(d.T, d.dt)
    except ValueError as exc:
        raise ConfigError(f"discretization.dt: {exc}") from exc
    if cfg.experiment == "oracle_crosscheck":
        return
    if cfg.experiment == "nonlinear_rates":
        try:
            _check_series_length(_output_count(n_steps, d.dt, d.out_every))
        except ValueError as exc:
            raise ConfigError(f"discretization.out_every: {exc}") from exc
    # the loader admits only windows with 0 <= lo < hi
    lo, hi = cfg.analysis.fit_window
    try:
        _check_fit_count(_output_count(n_steps, d.dt, d.out_every, lo, hi))
    except ValueError as exc:
        raise ConfigError(f"analysis.fit_window: {exc}") from exc
    # t = 0, the first output time, is then the window's first one
    if cfg.experiment == "nl_vs_linear_gap" and lo <= 0.0 <= hi:
        raise ConfigError("analysis.fit_window: must start after t = 0, where the "
                          "nonlinear-minus-linear gap is 0")


def _check_certify_band(cfg: ExperimentConfig) -> None:
    """``lemma_certify`` certifies the profile remainders on the frequencies
    of :func:`~bousslab.analysis.default_certify_grids` up to ``r0``, so at
    least one of them must lie there.
    """
    if cfg.experiment != "lemma_certify":
        return
    xi, _ = default_certify_grids()
    if not (xi <= cfg.analysis.r0).any():
        raise ConfigError(f"analysis.r0: no certification frequency at or below "
                          f"r0={cfg.analysis.r0:g} (the grid starts at {xi.min():g})")


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON config file.

    JSON syntax errors are reported with their line and column; semantic
    errors name the offending field.
    """
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {p} at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    return ExperimentConfig.from_dict(raw)
