"""Named experiment suites: configured runs producing verdicts and artifacts.

:func:`run_experiment` owns the run: it builds the :class:`RunReport` for a
validated :class:`~bousslab.config.ExperimentConfig`, times the experiment's
runner under ``timings["total_s"]`` and returns the report.  A runner holds
only its science and its verdicts, which reference the acceptance criteria
(``AC1`` .. ``AC10``) of the shipped acceptance suite
(``tests/test_acceptance.py``), and times its phases with :func:`_phase`.
Experiments:

* ``linear_rates``      — decay exponents of the closed-form radial evolution
* ``nonlinear_rates``   — small-data decay exponents on a periodic box
* ``profile_gap``       — approach rate to the diffusive-wave profile
* ``nl_vs_linear_gap``  — nonlinear-minus-linear gap against its weight
* ``lemma_certify``     — kernel envelope constants and product estimates
* ``oracle_crosscheck`` — kernel residuals, energy balance, solver agreement
"""

from __future__ import annotations

import math
import time
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .analysis import (DecaySeries, RateFit, certify_bound, decay_series,
                       default_certify_grids, fit_rate, gap_weight,
                       initial_data_size, product_estimate_check,
                       radial_decay_series, xnorm_proxy)
from .config import ConfigError, DataConfig, ExperimentConfig
from .linear import RadialData, gaussian_radial_data, square_integrable_radial_data
from .nonlinear import (NonlinearitySpec, Trajectory, _step_count,
                        linear_trajectory, march, picard_iterate,
                        reference_solve, solve)
from .spectral import Grid, PhysicalField, make_grid, sobolev_norm
from .symbols import (ModelParams, RootPair, characteristic_roots,
                      damping_coefficient, mode_energy, propagator,
                      restoring_coefficient)


@dataclass
class RunReport:
    """Everything one experiment produced, ready for serialization."""

    experiment: str
    config: dict
    series: list[DecaySeries] = field(default_factory=list)
    rate_rows: list[dict] = field(default_factory=list)
    fits: list[dict] = field(default_factory=list)
    certificates: list[dict] = field(default_factory=list)
    verdicts: list[dict] = field(default_factory=list)
    guides: dict[str, list] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v["status"] != "fail" for v in self.verdicts)

    def to_dict(self) -> dict:
        return {"experiment": self.experiment, "config": self.config,
                "fits": self.fits, "certificates": self.certificates,
                "verdicts": self.verdicts, "timings": self.timings,
                "passed": self.passed}


@contextmanager
def _phase(report: RunReport, key: str) -> Iterator[None]:
    """Add the wall time of the block to ``report.timings[key]``."""
    start = time.perf_counter()
    yield
    report.timings[key] = report.timings.get(key, 0.0) + time.perf_counter() - start


def _verdict(criterion: str, name: str, status: str, detail: str,
             value: float | None = None,
             threshold: float | None = None) -> dict:
    v = {"criterion": criterion, "name": name, "status": status, "detail": detail}
    if value is not None:
        v["value"] = float(value)
    if threshold is not None:
        v["threshold"] = float(threshold)
    return v


def _model_params(cfg: ExperimentConfig) -> ModelParams:
    return ModelParams(alpha=cfg.model.alpha, beta=cfg.model.beta)


def _nl_spec(cfg: ExperimentConfig) -> NonlinearitySpec:
    return NonlinearitySpec(f_kind=cfg.model.f_kind, g_kind=cfg.model.g_kind,
                            beta=cfg.model.beta, g_sign=cfg.model.g_sign)


def _radial_data(data: DataConfig, n: int) -> RadialData:
    if data.kind == "gaussian":
        return gaussian_radial_data(amplitude=data.amplitude, width=data.width,
                                    n=n, velocity_amplitude=data.velocity_amplitude)
    if data.kind == "radial_L2":
        return square_integrable_radial_data(n=n, eps=data.eps,
                                             amplitude=data.amplitude)
    raise ConfigError(f"data.kind: radial experiments support gaussian or "
                      f"radial_L2 data, got {data.kind!r}")


def _box_data(cfg: ExperimentConfig) -> tuple[Grid, PhysicalField, PhysicalField]:
    """Initial data on the periodic box for time-stepping experiments."""
    d = cfg.discretization
    grid = make_grid(d.n, d.L, d.N)
    data = cfg.data
    if data.kind == "gaussian":
        amp, w = data.amplitude, data.width
        u0 = PhysicalField.from_function(
            grid, lambda *xs: amp * np.exp(-sum(x**2 for x in xs) / (2.0 * w**2)))
        if data.velocity_amplitude != 0.0:
            # derivative of the bump along the first axis: zero-mean by construction
            va = data.velocity_amplitude
            u1 = PhysicalField.from_function(
                grid, lambda *xs: va * (-xs[0] / w**2)
                * np.exp(-sum(x**2 for x in xs) / (2.0 * w**2)))
        else:
            u1 = PhysicalField.zero(grid)
        return grid, u0, u1
    if data.kind == "custom_file":
        arrays = {}
        try:
            payload = np.load(data.path)
            # a .npy file loads as one unnamed array
            if isinstance(payload, np.lib.npyio.NpzFile):
                with payload:
                    arrays = {k: payload[k] for k in ("u0", "u1") if k in payload}
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            # missing, pickled (any non-array file), empty, or a broken archive
            raise ConfigError(f"data.path: cannot read {data.path!r}: {exc}") from exc
        if len(arrays) != 2:
            raise ConfigError("data.path: npz file must contain arrays 'u0' and 'u1'")
        try:
            u0 = PhysicalField(grid, np.asarray(arrays["u0"], dtype=np.float64))
            u1 = PhysicalField(grid, np.asarray(arrays["u1"], dtype=np.float64))
        except ValueError as exc:
            raise ConfigError(f"data.path: {exc}") from exc
        return grid, u0, u1
    raise ConfigError(f"data.kind: box experiments support gaussian or "
                      f"custom_file data, got {data.kind!r}")


def _theory_slope(kind: str, n: int, k: int, source: str) -> float:
    base = -0.25 * n - 0.5 * k if kind == "gaussian" else -0.5 * k
    if source == "profile_gap":
        base -= 0.5
    return base


def _fit_block(report: RunReport, window: tuple[float, float],
               theory_of: Callable[[DecaySeries], float],
               gate: Callable[[DecaySeries, RateFit, float], tuple[str, str, str]],
               skip_criterion: str = "AC4") -> dict[str, RateFit]:
    """Fit the report's series, fill rate rows/fits/verdicts; returns fits by label.

    ``gate(series, fit, theory)`` returns (criterion, status, detail); an
    all-zero series is recorded as skipped with reason "zero series".
    """
    fits: dict[str, RateFit] = {}
    for s in report.series:
        theory = theory_of(s)
        if not np.any(s.values > 0.0):
            report.rate_rows.append({"k": s.k, "slope": math.nan,
                                     "stderr": math.nan, "theory_slope": theory,
                                     "verdict": "skip"})
            report.fits.append({"label": s.label, "k": s.k,
                                "theory_slope": theory, "skipped": "zero series"})
            report.verdicts.append(_verdict(skip_criterion, f"fit[{s.label}]",
                                            "skip", "zero series"))
            continue
        fit = fit_rate(s, window)
        fits[s.label] = fit
        criterion, status, detail = gate(s, fit, theory)
        report.rate_rows.append({"k": s.k, "slope": fit.slope,
                                 "stderr": fit.stderr, "theory_slope": theory,
                                 "verdict": status})
        report.fits.append({"label": s.label, "k": s.k, "slope": fit.slope,
                            "stderr": fit.stderr, "intercept": fit.intercept,
                            "window": list(fit.window), "n_points": fit.n_points,
                            "theory_slope": theory})
        report.verdicts.append(_verdict(criterion, f"slope[{s.label}]", status,
                                        detail, value=fit.slope))
        report.guides.setdefault(s.label, []).append(
            (theory, f"slope {theory:+.2f}"))
    return fits


# ---------------------------------------------------------------------------
# linear radial rates
# ---------------------------------------------------------------------------


def _radial_series(cfg: ExperimentConfig,
                   which: str | tuple[str, ...]) -> list[DecaySeries]:
    """The radial decay series of ``which`` over the log-spaced time sweep."""
    n = cfg.discretization.n
    lo, hi = cfg.analysis.fit_window
    times = np.geomspace(max(lo, 1e-3), hi, cfg.analysis.n_times)
    return radial_decay_series(_radial_data(cfg.data, n), times, cfg.analysis.k_list,
                               n, _model_params(cfg), which=which)


def _linear_rates(cfg: ExperimentConfig, report: RunReport) -> None:
    n = cfg.discretization.n
    report.series = _radial_series(cfg, "linear")
    tol = cfg.analysis.slope_tol
    kind = cfg.data.kind
    criterion = "AC4" if kind == "gaussian" else "AC5"

    def gate(s: DecaySeries, fit: RateFit, theory: float) -> tuple[str, str, str]:
        if criterion == "AC5" and s.k == 0:
            ok = -0.1 <= fit.slope <= 0.02
            return ("AC5", "pass" if ok else "fail",
                    f"bounded norm: slope {fit.slope:.4f} in [-0.1, 0.02]")
        ok = abs(fit.slope - theory) <= tol
        return (criterion, "pass" if ok else "fail",
                f"|{fit.slope:.4f} - ({theory:g})| <= {tol:g}")

    _fit_block(report, cfg.analysis.fit_window,
               lambda s: _theory_slope(kind, n, s.k, s.source), gate,
               skip_criterion=criterion)


# ---------------------------------------------------------------------------
# profile convergence gap
# ---------------------------------------------------------------------------


def _profile_gap(cfg: ExperimentConfig, report: RunReport) -> None:
    if cfg.data.kind != "gaussian":
        raise ConfigError("data.kind: profile_gap requires gaussian data")
    n = cfg.discretization.n
    report.series = _radial_series(cfg, ("linear", "gap"))
    tol = cfg.analysis.slope_tol

    def gate(s: DecaySeries, fit: RateFit, theory: float) -> tuple[str, str, str]:
        return ("AC6", "info", "component fit")

    fits = _fit_block(report, cfg.analysis.fit_window,
                      lambda s: _theory_slope("gaussian", n, s.k, s.source), gate,
                      skip_criterion="AC6")
    for k in cfg.analysis.k_list:
        lin_fit = fits.get(f"linear:k{k}:sobolev2")
        gap_fit = fits.get(f"profile_gap:k{k}:sobolev2")
        if lin_fit is None or gap_fit is None:
            report.verdicts.append(_verdict("AC6", f"gap_gain[k{k}]", "skip",
                                            "zero series"))
            continue
        gain = gap_fit.slope - lin_fit.slope
        ok = abs(gain - (-0.5)) <= tol
        report.verdicts.append(_verdict(
            "AC6", f"gap_gain[k{k}]", "pass" if ok else "fail",
            f"gap slope minus linear slope {gain:.4f} within -0.5 +- {tol:g}",
            value=gain, threshold=tol))


# ---------------------------------------------------------------------------
# nonlinear box rates
# ---------------------------------------------------------------------------

_SMALLNESS = 1e-2


def _checked_box_data(report: RunReport, cfg: ExperimentConfig,
                      criterion: str) -> tuple[Grid, PhysicalField, PhysicalField]:
    """:func:`_box_data`, with its domain-size and smallness verdicts."""
    grid, u0, u1 = _box_data(cfg)
    d = cfg.discretization
    # radius at which the Gaussian bump reaches the double-precision floor
    r0 = 9.0 * cfg.data.width if cfg.data.kind == "gaussian" else 0.1 * d.L
    need = 2.0 * (r0 + 1.2 * d.T)
    report.verdicts.append(_verdict(
        criterion, "domain_size_rule", "pass" if d.L >= need else "fail",
        f"L = {d.L:g} >= 2*(R0 + 1.2*T) = {need:g} (R0 ~ {r0:g})",
        value=d.L, threshold=need))
    try:
        e0 = initial_data_size(u0, u1)
    except ValueError as exc:
        # only file data can carry a velocity mean (the Gaussian velocity is odd)
        raise ConfigError(f"data.path: 'u1' in {cfg.data.path!r}: {exc}") from exc
    report.verdicts.append(_verdict(
        criterion, "data_smallness", "pass" if e0 <= _SMALLNESS else "fail",
        f"initial data size {e0:.4g} <= {_SMALLNESS:g}",
        value=e0, threshold=_SMALLNESS))
    return grid, u0, u1


def _nonlinear_rates(cfg: ExperimentConfig, report: RunReport) -> None:
    d = cfg.discretization
    with _phase(report, "solve_s"):
        _, u0, u1 = _checked_box_data(report, cfg, "AC7")
        run = solve(u0, u1, d.T, d.dt, _nl_spec(cfg), _model_params(cfg),
                    out_every=d.out_every)
    report.series = decay_series(run, cfg.analysis.k_list, source="nonlinear")
    tol = cfg.analysis.slope_tol

    def gate(s: DecaySeries, fit: RateFit, theory: float) -> tuple[str, str, str]:
        if s.k != 0:
            return ("AC7", "info", "ungated derivative order")
        ok = abs(fit.slope - theory) <= tol
        return ("AC7", "pass" if ok else "fail",
                f"|{fit.slope:.4f} - ({theory:g})| <= {tol:g}")

    _fit_block(report, cfg.analysis.fit_window,
               lambda s: _theory_slope("gaussian", d.n, s.k, s.source), gate,
               skip_criterion="AC7")

    xn = xnorm_proxy(run, d.n)
    if xn[0] > 0.0:
        ratio = float(np.max(xn) / xn[0])
        report.verdicts.append(_verdict(
            "AC7", "xnorm_bounded", "pass" if ratio <= 10.0 else "fail",
            f"weighted amplitude sup/initial = {ratio:.3f} <= 10",
            value=ratio, threshold=10.0))
    else:
        report.verdicts.append(_verdict("AC7", "xnorm_bounded", "skip",
                                        "zero series"))


# ---------------------------------------------------------------------------
# nonlinear-minus-linear gap
# ---------------------------------------------------------------------------


def _nl_vs_linear_gap(cfg: ExperimentConfig, report: RunReport) -> None:
    d = cfg.discretization
    params = _model_params(cfg)
    # the states are compared as the march yields them, so the run holds one
    # state and the initial spectra, never the trajectory: at each output time
    # only the u row of the linear flow of the initial spectra is formed, and
    # every norm is a Plancherel sum on the half spectra
    rows = []
    with _phase(report, "solve_s"):
        grid, u0, u1 = _checked_box_data(report, cfg, "AC8")
        for t, y in march(u0, u1, d.T, d.dt, _nl_spec(cfg), params,
                          out_every=d.out_every):
            with _phase(report, "compare_s"):
                if not rows:
                    y0 = y
                sym = propagator(grid.xi2_half, float(t), params)
                lin_u = sym.sine * y0[1] + sym.cosine * y0[0]
                rows.append((t, sobolev_norm(grid, y[0]), sobolev_norm(grid, lin_u),
                             sobolev_norm(grid, y[0] - lin_u)))
    # the marching alone: the comparisons between its yields are compare_s
    report.timings["solve_s"] -= report.timings["compare_s"]
    times, nl_vals, lin_vals, diff_vals = (np.array(col) for col in zip(*rows))
    eta = gap_weight(times, d.n)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_vals = np.where(lin_vals > 0.0, diff_vals / (lin_vals * eta), 0.0)
    report.series = [
        DecaySeries(times, nl_vals, k=0, norm_kind="sobolev2", source="nonlinear"),
        DecaySeries(times, lin_vals, k=0, norm_kind="sobolev2", source="linear"),
        DecaySeries(times, diff_vals, k=0, norm_kind="sobolev2",
                    source="nl_minus_linear"),
        DecaySeries(times, ratio_vals, k=0, norm_kind="ratio", source="nl_minus_linear"),
    ]

    def gate(s: DecaySeries, fit: RateFit, theory: float) -> tuple[str, str, str]:
        if s.norm_kind != "ratio":
            return ("AC8", "info", "component fit")
        ok = fit.slope <= cfg.analysis.slope_tol
        return ("AC8", "pass" if ok else "fail",
                f"gap/weight ratio trend {fit.slope:.4f} <= {cfg.analysis.slope_tol:g}")

    _fit_block(report, cfg.analysis.fit_window,
               lambda s: (0.0 if s.norm_kind == "ratio"
                          else _theory_slope("gaussian", d.n, s.k, s.source)), gate,
               skip_criterion="AC8")


# ---------------------------------------------------------------------------
# lemma certification
# ---------------------------------------------------------------------------

_C_CANDIDATES = (1.0, 0.75, 0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.125, 0.1)
_ENVELOPE_BOUNDS = ("sine_envelope", "cosine_envelope")
_REMAINDER_BOUNDS = ("profile_remainder_sine", "profile_remainder_cosine")


def _random_smooth_fields(grid: Grid, rng: np.random.Generator,
                          stack: tuple[int, ...] = ()) -> np.ndarray:
    """Random real fields with a Gaussian-damped spectrum, shaped
    ``(*stack, *grid.shape)``, from one draw of ``rng``.

    The noise fills the stack in C order, so the fields are those of one
    draw per field in that order.
    """
    # one complex work array, transformed in place; the real part is copied
    # out so that it does not keep the work array alive
    work = rng.standard_normal(stack + grid.shape).astype(np.complex128)
    np.fft.fftn(work, axes=grid.axes, out=work)
    work *= np.exp(-grid.xi2 / 2.0)
    return np.fft.ifftn(work, axes=grid.axes, out=work).real.copy()


def _lemma_certify(cfg: ExperimentConfig, report: RunReport) -> None:
    a = cfg.analysis
    with _phase(report, "certify_s"):
        params = _model_params(cfg)
        xi_grid, t_grid = default_certify_grids()
        for which in _ENVELOPE_BOUNDS + _REMAINDER_BOUNDS:
            cert = certify_bound(which, xi_grid, t_grid, _C_CANDIDATES, params,
                                 r0=a.r0, cap=a.cap)
            report.certificates.append({
                "which": cert.which, "fitted_c": cert.fitted_c,
                "sup_ratio": cert.sup_ratio, "passed": cert.passed,
                "grid_spec": cert.grid_spec, "cap": cert.cap})
            criterion = "AC3" if which in _ENVELOPE_BOUNDS else "AC6"
            ok = cert.passed and cert.fitted_c >= a.c_floor and cert.sup_ratio <= a.cap
            detail = (f"c = {cert.fitted_c:.3g} >= {a.c_floor:g}, "
                      f"sup C = {cert.sup_ratio:.4g} <= {a.cap:g}"
                      if cert.passed else "no candidate decay rate certified")
            report.verdicts.append(_verdict(
                criterion, f"certificate[{which}]", "pass" if ok else "fail", detail,
                value=cert.fitted_c if cert.passed else math.nan,
                threshold=a.c_floor))

    # bilinear product estimates on random smooth fields
    with _phase(report, "products_s"):
        grid = make_grid(1, 30.0, 256)
        rng = np.random.default_rng(cfg.seed)
        draws = 100
        # the pairs (v, w) in the order of one draw per field
        fields = _random_smooth_fields(grid, rng, (draws, 2))
        constants = {(chk.instance, m): chk.constant for m in (0, 1)
                     for chk in product_estimate_check(grid, fields[:, 0],
                                                       fields[:, 1], m)}
        for (instance, m), arr in sorted(constants.items()):
            finite = bool(np.all(np.isfinite(arr)) and np.all(arr > 0.0))
            spread = float(arr.max() / arr.min()) if finite else math.inf
            if instance == "sq_l1" and m == 0:
                exact = bool(np.all(arr == 1.0))
                report.verdicts.append(_verdict(
                    "AC10", "cauchy_schwarz_equality", "pass" if exact else "fail",
                    f"constant == 1 exactly across {draws} draws"))
                continue
            ok = finite and spread <= 10.0
            report.verdicts.append(_verdict(
                "AC10", f"constant_stability[{instance},m={m}]",
                "pass" if ok else "fail",
                f"max/min constant over {draws} draws = {spread:.3f} <= 10",
                value=spread, threshold=10.0))


# ---------------------------------------------------------------------------
# oracle crosscheck
# ---------------------------------------------------------------------------


def _direct_second_derivatives(xi2: np.ndarray, t: np.ndarray,
                               params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Naive-route second time derivatives of the two fundamental kernels.

    Evaluated straight from the characteristic roots with plain complex
    exponentials — intentionally independent of the stable evaluation path.
    """
    roots = characteristic_roots(xi2, params)
    lp, lm = roots.lambda_plus, roots.lambda_minus
    delta = lp - lm
    ep, em = np.exp(lp * t), np.exp(lm * t)
    sine_tt = (lp**2 * ep - lm**2 * em) / delta
    cosine_tt = (lp * lm**2 * em - lm * lp**2 * ep) / delta
    return sine_tt, cosine_tt


def _trajectory_distance(a: Trajectory, b: Trajectory) -> float:
    """Sup over the common output times of the L^2 distance of the displacements."""
    if a.times.size != b.times.size or not np.allclose(a.times, b.times):
        raise ValueError("trajectories live on different time meshes")
    return float(np.max(sobolev_norm(a.grid, a.spectra[:, 0] - b.spectra[:, 0])))


def _clear_of_confluence(roots: RootPair) -> np.ndarray:
    """Mask of the samples whose roots are far enough apart for the division
    by their difference in :func:`_direct_second_derivatives`."""
    return np.abs(roots.lambda_plus - roots.lambda_minus) \
        >= 1e-2 * np.maximum(1.0, np.abs(roots.lambda_minus))


def _oracle_crosscheck(cfg: ExperimentConfig, report: RunReport) -> None:
    params = _model_params(cfg)
    with _phase(report, "symbols_s"):
        rng = np.random.default_rng(cfg.seed)

        # kernel ODE residuals on random (frequency, time) samples
        xi2 = (10.0 ** rng.uniform(-1.5, 1.0, size=500)) ** 2
        t = 10.0 ** rng.uniform(-2.0, 0.7, size=500)
        roots = characteristic_roots(xi2, params)
        b = damping_coefficient(xi2, params)
        c = restoring_coefficient(xi2)
        # the root sum and product divide by nothing, so they hold on every sample
        vieta = float(max(np.max(np.abs(roots.lambda_plus + roots.lambda_minus + b)
                                 / np.maximum(1.0, b)),
                          np.max(np.abs(roots.lambda_plus * roots.lambda_minus - c)
                                 / np.maximum(1.0, c))))
        clear = _clear_of_confluence(roots)
        xi2, t, b, c = xi2[clear], t[clear], b[clear], c[clear]
        sym = propagator(xi2, t, params)
        sine_tt, cosine_tt = _direct_second_derivatives(xi2, t, params)
        res_sine = np.abs(sine_tt + b * sym.sine_dt + c * sym.sine)
        res_cosine = np.abs(cosine_tt + b * sym.cosine_dt + c * sym.cosine)
        scale_s = np.abs(sine_tt) + b * np.abs(sym.sine_dt) + c * np.abs(sym.sine) + 1.0
        scale_c = np.abs(cosine_tt) + b * np.abs(sym.cosine_dt) + c * np.abs(sym.cosine) + 1.0
        worst = float(max(np.max(res_sine / scale_s), np.max(res_cosine / scale_c)))
        report.verdicts.append(_verdict(
            "AC1", "kernel_ode_residual", "pass" if worst <= 1e-6 else "fail",
            f"max relative residual {worst:.3g} <= 1e-06 on {xi2.size} samples",
            value=worst, threshold=1e-6))

        z = propagator(np.zeros(1), np.zeros(1), params)
        init_ok = (z.sine[0] == 0.0 and z.cosine[0] == 1.0
                   and z.sine_dt[0] == 1.0 and z.cosine_dt[0] == 0.0)
        report.verdicts.append(_verdict(
            "AC1", "kernel_initial_values", "pass" if bool(init_ok) else "fail",
            "kernels at t = 0 equal (0, 1, 1, 0) exactly"))
        report.verdicts.append(_verdict(
            "AC1", "root_sum_product", "pass" if vieta <= 1e-10 else "fail",
            f"root sum/product residual {vieta:.3g} <= 1e-10",
            value=vieta, threshold=1e-10))

        # energy balance along fundamental solutions
        xi2_e = (10.0 ** rng.uniform(-1.5, 1.0, size=100)) ** 2
        t_e = rng.uniform(0.0, 3.0, size=100)
        keep = _clear_of_confluence(characteristic_roots(xi2_e, params))
        xi2_e, t_e = xi2_e[keep], t_e[keep]
        sym_e = propagator(xi2_e, t_e, params)
        stt, ctt = _direct_second_derivatives(xi2_e, t_e, params)
        s = xi2_e
        b_e = damping_coefficient(xi2_e, params)
        c_e = restoring_coefficient(xi2_e)
        worst_e = 0.0
        for v, vdot, vddot in ((sym_e.sine, sym_e.sine_dt, stt),
                               (sym_e.cosine, sym_e.cosine_dt, ctt)):
            em = mode_energy(xi2_e, v, vdot, params)
            dEdt = (2.0 * (1.0 + s) * (vddot * np.conj(vdot)).real
                    + 2.0 * ((1.0 + s) * c_e + s * b_e) * (vdot * np.conj(v)).real
                    + 2.0 * s * ((vddot * np.conj(v)).real + np.abs(vdot) ** 2))
            resid = np.abs(dEdt + em.dissipation)
            scale = np.abs(dEdt) + np.abs(em.dissipation) + 1e-300
            worst_e = max(worst_e, float(np.max(resid / scale)))
        report.verdicts.append(_verdict(
            "AC2", "energy_balance", "pass" if worst_e <= 1e-6 else "fail",
            f"max relative energy-balance residual {worst_e:.3g} <= 1e-06 "
            f"on {xi2_e.size} samples", value=worst_e, threshold=1e-6))

    # integrator vs adaptive reference
    spec = _nl_spec(cfg)
    with _phase(report, "reference_s"):
        grid, u0, u1 = _box_data(cfg)
        d = cfg.discretization
        out_every = max(1, _step_count(d.T, d.dt) // 10)
        run = solve(u0, u1, d.T, d.dt, spec, params, out_every=out_every)
        ref = reference_solve(u0, u1, d.T, spec, params, tol=1e-12,
                              t_eval=run.times)
        gap = sobolev_norm(grid, run.spectra[1:, 0] - ref.spectra[1:, 0])
        err = float(np.max(gap / np.maximum(sobolev_norm(grid, ref.spectra[1:, 0]), 1e-300)))
        report.verdicts.append(_verdict(
            "AC9", "integrator_vs_reference", "pass" if err <= 1e-6 else "fail",
            f"max relative difference {err:.3g} <= 1e-06 at {run.times.size - 1} "
            f"output times", value=err, threshold=1e-6))

    # fixed-point iteration: contraction and limit
    with _phase(report, "picard_s"):
        T_pic = 2.0
        mesh = np.linspace(0.0, T_pic, 33)
        iters = [linear_trajectory(u0, u1, mesh, params)]
        for _ in range(4):
            iters.append(picard_iterate(iters[-1], u0, u1, spec, params))
        dists = [_trajectory_distance(iters[i + 1], iters[i]) for i in range(4)]
        ratios = [dists[i + 1] / dists[i] for i in range(3) if dists[i] > 0.0]
        worst_ratio = max(ratios) if ratios else 0.0
        report.verdicts.append(_verdict(
            "AC9", "picard_contraction", "pass" if worst_ratio < 0.5 else "fail",
            f"successive-distance ratio {worst_ratio:.4f} < 0.5",
            value=worst_ratio, threshold=0.5))

        mesh_fine = np.linspace(0.0, T_pic, 65)
        fine = linear_trajectory(u0, u1, mesh_fine, params)
        for _ in range(4):
            fine = picard_iterate(fine, u0, u1, spec, params)
        coarse_on_fine = Trajectory(mesh, fine.grid, fine.spectra[::2])
        quad_est = _trajectory_distance(iters[-1], coarse_on_fine)

        etd = solve(u0, u1, T_pic, T_pic / 512.0, spec, params, out_every=16)
        limit_gap = _trajectory_distance(iters[-1], etd)
        bound = 2.0 * quad_est + 10.0 * dists[-1] + 1e-14
        report.verdicts.append(_verdict(
            "AC9", "picard_limit_matches_solve", "pass" if limit_gap <= bound else "fail",
            f"iteration limit within {limit_gap:.3g} of the integrator "
            f"(allowed {bound:.3g} from quadrature refinement + contraction tail)",
            value=limit_gap, threshold=bound))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

EXPERIMENT_INFO: dict[str, tuple[Callable[[ExperimentConfig, RunReport], None], str]] = {
    "linear_rates": (_linear_rates,
                     "decay exponents of the closed-form radial evolution "
                     "against the predicted power laws"),
    "nonlinear_rates": (_nonlinear_rates,
                        "small-data decay exponents on a periodic box with "
                        "amplitude-boundedness check"),
    "profile_gap": (_profile_gap,
                    "convergence rate of the evolution to its diffusive-wave "
                    "profile"),
    "nl_vs_linear_gap": (_nl_vs_linear_gap,
                         "decay of the nonlinear-minus-linear difference "
                         "against the dimension-dependent weight"),
    "lemma_certify": (_lemma_certify,
                      "explicit (C, c) constants for the kernel envelope "
                      "bounds and bilinear product estimates"),
    "oracle_crosscheck": (_oracle_crosscheck,
                          "solver consistency: kernel residuals, energy "
                          "balance, integrator vs adaptive reference, and "
                          "contraction of the fixed-point iteration"),
}


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> RunReport:
    """Run ``cfg``'s experiment; the report's ``total_s`` times the whole run.

    A run starts no worker threads.  ``threads`` is kept only for the
    benchmark harness, which passes ``threads=1``; any other value is a
    ValueError.
    """
    if threads != 1:
        raise ValueError(f"threads={threads!r}: a run takes one thread")
    runner, _ = EXPERIMENT_INFO[cfg.experiment]
    report = RunReport(cfg.experiment, cfg.to_dict())
    with _phase(report, "total_s"):
        runner(cfg, report)
    return report


def list_experiments() -> str:
    lines = [f"{name} -> {desc}" for name, (_, desc) in EXPERIMENT_INFO.items()]
    return "\n".join(lines) + "\n"
