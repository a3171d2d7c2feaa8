"""Experiment configuration: typed dataclasses with strict JSON loading.

Configs are plain JSON objects mirrored by frozen dataclasses.  Each field
declares its check once, in its dataclass metadata, and one loader
(:func:`_load`) walks the fields of every section in declaration order.
Loading is strict — unknown keys, wrong types, and out-of-range values raise
``ConfigError`` with the offending field path — and ``to_dict`` round-trips
losslessly so that a report can embed the exact configuration it ran.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
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

#: pointwise functions the source term may take for ``f`` and ``g``
_NONLINEARITY_KINDS = ("none", "quadratic", "cubic")


class ConfigError(ValueError):
    """A configuration file or dictionary is invalid; message names the field."""


def _check_unknown(section: str, data: Mapping[str, Any], allowed: set[str]) -> None:
    extra = set(data) - allowed
    if extra:
        key = sorted(extra)[0]
        raise ConfigError(f"unknown key {section}{key!r} "
                          f"(allowed: {', '.join(sorted(allowed))})")


#: the JSON type each field's Python ``kinds`` admit, as the errors name it
_JSON_TYPES = {(int, float): "a number", int: "an integer", str: "a string", list: "a list"}


def _require(section: str, name: str, value: Any, kinds, pred=None, what: str = "") -> Any:
    """``value`` if it is one of ``kinds`` (never a boolean) and meets ``pred``;
    ``what`` describes ``pred`` in the error."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        got = "a boolean" if isinstance(value, bool) else repr(value)
        raise ConfigError(f"{section}{name}: expected {_JSON_TYPES[kinds]}, got {got}")
    if pred is not None and not pred(value):
        raise ConfigError(f"{section}{name}: invalid value {value!r}" +
                          (f" ({what})" if what else ""))
    return value


def _parsed(default: Any, parse) -> Any:
    """A field whose JSON value ``parse(section, name, value)`` checks and
    converts to the value to store."""
    return field(default=default, metadata={"parse": parse})


def _checked(default: Any, kinds, pred=None, what: str = "", cast=None) -> Any:
    """A field whose value passes :func:`_require`, stored through ``cast``."""
    def parse(section: str, name: str, value: Any) -> Any:
        value = _require(section, name, value, kinds, pred, what)
        return value if cast is None else cast(value)
    return _parsed(default, parse)


def _real(default: float, pred, what: str) -> Any:
    """A real number meeting ``pred``, stored as a float."""
    return _checked(default, (int, float), pred, what, float)


def _between(default: float, lo: float, hi: float) -> Any:
    """A real number in ``[lo, hi]``."""
    return _real(default, lambda v: lo <= v <= hi, f"must lie in [{lo:g}, {hi:g}]")


def _scale(default: float) -> Any:
    """A box or data size: a real in ``[1/_SCALE_LIMIT, _SCALE_LIMIT]``."""
    return _between(default, 1 / _SCALE_LIMIT, _SCALE_LIMIT)


def _choice(default: Any, options: tuple[str, ...]) -> Any:
    """One of the strings ``options``."""
    return _checked(default, str, lambda s: s in options, "one of " + ", ".join(options))


def _parse_k_list(section: str, name: str, raw: Any) -> tuple[int, ...]:
    _require(section, name, raw, list, lambda v: len(v) > 0, "must be nonempty")
    for i, k in enumerate(raw):
        _require(section, f"{name}[{i}]", k, int, lambda v: 0 <= v <= 4, "must lie in 0..4")
    return tuple(raw)


def _parse_fit_window(section: str, name: str, raw: Any) -> tuple[float, float]:
    _require(section, name, raw, list, lambda v: len(v) == 2, "must be [lo, hi]")
    lo, hi = (float(_require(section, f"{name}[{i}]", end, (int, float),
                             math.isfinite, "must be finite"))
              for i, end in enumerate(raw))
    if not (0 <= lo < hi):
        raise ConfigError(f"{section}{name}: need 0 <= lo < hi, got {raw}")
    return lo, hi


def _section(cls: type) -> Any:
    """A nested JSON object loaded as ``cls``; absent, it takes ``cls``'s defaults."""
    def parse(section: str, name: str, raw: Any) -> Any:
        if not isinstance(raw, Mapping):
            raise ConfigError(f"{section}{name}: expected a JSON object, got {raw!r}")
        return _load(cls, raw, f"{section}{name}.")
    return field(default_factory=cls, metadata={"parse": parse})


def _load(cls: type, data: Mapping[str, Any], section: str = "") -> Any:
    """Build ``cls`` from ``data``, parsing its fields in declaration order.

    An absent field takes its default; a field without one is required.
    """
    _check_unknown(section, data, {f.name for f in fields(cls)})
    out: dict[str, Any] = {}
    for f in fields(cls):
        if f.name in data:
            out[f.name] = f.metadata["parse"](section, f.name, data[f.name])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{section}{f.name}: required key is missing")
    return cls(**out)


@dataclass(frozen=True)
class ModelConfig:
    """Equation parameters and the shape of the nonlinearity."""

    alpha: float = _between(-1.0, -_SCALE_LIMIT, -1.0)
    beta: float = _real(1.0, lambda b: b > 0.0, "must be > 0")
    f_kind: str = _choice("quadratic", _NONLINEARITY_KINDS)
    g_kind: str = _choice("quadratic", _NONLINEARITY_KINDS)
    g_sign: float = _real(1.0, lambda s: s in (-1.0, 1.0), "must be +-1")


@dataclass(frozen=True)
class DiscretizationConfig:
    """Grid and time-stepping parameters."""

    n: int = _checked(1, int, lambda v: v in (1, 2, 3), "1, 2, or 3")
    L: float = _scale(200.0)
    N: int = _checked(256, int, lambda v: v >= 8 and v % 2 == 0, "must be even and >= 8")
    dt: float = _real(0.05, lambda v: 0 < v < math.inf, "must be positive")
    T: float = _real(10.0, lambda v: 0 < v < math.inf, "must be positive")
    out_every: int = _checked(1, int, lambda v: v >= 1, "must be >= 1")


@dataclass(frozen=True)
class DataConfig:
    """Initial data: a named family plus its shape parameters."""

    kind: str = _choice("gaussian", ("gaussian", "radial_L2", "custom_file"))
    amplitude: float = _real(1.0, math.isfinite, "must be finite")
    width: float = _scale(1.0)
    velocity_amplitude: float = _real(0.0, math.isfinite, "must be finite")
    eps: float = _real(0.2, lambda v: 0 < v < 1, "must lie in (0, 1)")
    path: str = _checked("", str)


@dataclass(frozen=True)
class AnalysisConfig:
    """Fit windows, derivative orders, and certification grids."""

    k_list: tuple[int, ...] = _parsed((0, 1, 2), _parse_k_list)
    fit_window: tuple[float, float] = _parsed((10.0, 1000.0), _parse_fit_window)
    n_times: int = _checked(40, int, lambda v: v >= 8, "must be >= 8")
    slope_tol: float = _real(0.05, lambda v: v > 0, "must be > 0")
    c_floor: float = _real(0.1, lambda v: v >= 0, "must be >= 0")
    cap: float = _real(1e3, lambda v: v > 0, "must be > 0")
    r0: float = _real(0.5, lambda v: v > 0, "must be > 0")


@dataclass(frozen=True)
class ExperimentConfig:
    """Top-level run description: which experiment, with what pieces."""

    experiment: str = _choice(MISSING, EXPERIMENTS)
    seed: int = _checked(0, int, lambda v: v >= 0, "must be >= 0")
    model: ModelConfig = _section(ModelConfig)
    discretization: DiscretizationConfig = _section(DiscretizationConfig)
    data: DataConfig = _section(DataConfig)
    analysis: AnalysisConfig = _section(AnalysisConfig)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        if not isinstance(data, Mapping):
            raise ConfigError(f"top level: expected a JSON object, got {type(data).__name__}")
        cfg = _load(cls, data)
        _check_data_path(cfg)
        _check_box_schedule(cfg)
        _check_certify_band(cfg)
        return cfg

    def to_dict(self) -> dict[str, Any]:
        raw = asdict(self)
        raw["analysis"]["k_list"] = list(self.analysis.k_list)
        raw["analysis"]["fit_window"] = list(self.analysis.fit_window)
        return raw


def _check_data_path(cfg: ExperimentConfig) -> None:
    """``custom_file`` data are read from ``path``, so it must be given."""
    if cfg.data.kind == "custom_file" and not cfg.data.path:
        raise ConfigError("data.path: required when kind is 'custom_file'")


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
