"""Time stepping, Picard iteration, and the method-of-lines oracle.

Oracles: trigonometric closed forms for the source term, the exact linear
flow for the zero-nonlinearity integrator, Richardson self-convergence for
the order check, and a Radau IIA integration of the raw spectral ODE system
(built only from the ODE coefficients, never the kernels).
"""
from __future__ import annotations

import math
import sys
import tracemalloc
import warnings
from typing import Callable, Sequence

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.sparse import csc_matrix

import bousslab.linear
import bousslab.nonlinear
from bousslab import (BlowUpError, Grid, ModelParams, NonlinearitySpec,
                      PhysicalField, ReferenceIntegrationError, Trajectory,
                      damping_coefficient, inverse_transform,
                      linear_solution, linear_trajectory, make_grid, march,
                      picard_iterate, propagator, reference_solve,
                      restoring_coefficient, sobolev_norm, solve)
from bousslab.nonlinear import (_EtdStepper, _etd_integrals, _initial_state,
                                _mesh_lags, _output_times, _over_guard, _Source,
                                _trapezoid_weights)

from conftest import l2_norm, random_smooth_field, total_energy

P = ModelParams(alpha=-1.0)
ZERO_SPEC = NonlinearitySpec(f_kind="none", g_kind="none")
QUAD_SPEC = NonlinearitySpec(f_kind="quadratic", g_kind="quadratic", beta=1.0)


def small_gaussian(grid, amplitude=0.01, width=1.0):
    return PhysicalField.from_function(
        grid, lambda *xs: amplitude * np.exp(-sum(x**2 for x in xs)
                                             / (2.0 * width**2)))


def pairwise_picard(base: Trajectory, u0: PhysicalField, u1: PhysicalField,
                    spec: NonlinearitySpec, params: ModelParams) -> list[np.ndarray]:
    """Reference Picard map: one kernel evaluation per mesh pair (t_i, tau_j).

    Returns the stacked half spectra ``(u_hat, ut_hat)`` at every mesh time.
    """
    g = base.grid
    times = base.times
    y0 = _initial_state(u0, u1)
    source = _Source(g, spec)
    sources = [source(y, t) for y, t in zip(base.spectra, times)]
    out = [y0]
    for i in range(1, times.size):
        t_i = times[i]
        sym = propagator(g.xi2_half, t_i, params)
        y = np.stack([sym.sine * y0[1] + sym.cosine * y0[0],
                      sym.sine_dt * y0[1] + sym.cosine_dt * y0[0]])
        tau = times[: i + 1]
        w = _trapezoid_weights(tau)
        for j in range(i + 1):
            lag = propagator(g.xi2_half, t_i - tau[j], params)
            y[0] += w[j] * lag.sine * sources[j]
            y[1] += w[j] * lag.sine_dt * sources[j]
        out.append(y)
    return out


POWER = {"quadratic": lambda v: v * v, "cubic": lambda v: v * v * v}


def pointwise_source(u: np.ndarray, ut: np.ndarray, spec: NonlinearitySpec) -> np.ndarray:
    """``f(u) + sign beta g(u_t)`` in the order of :class:`_Source`."""
    w = None
    if spec.f_kind != "none":
        w = POWER[spec.f_kind](u)
    if spec.g_kind != "none":
        gterm = spec.g_sign * spec.beta * POWER[spec.g_kind](ut)
        w = gterm if w is None else w + gterm
    return w


def batched_source(y: np.ndarray, grid, spec: NonlinearitySpec,
                   weighted: bool = True) -> np.ndarray:
    """Reference evaluator: n-D ``irfftn``/``rfftn`` on fresh arrays.

    The same arithmetic in the same order as :class:`_Source`, written with
    the whole-array transforms and out-of-place operators: the truncation
    carries ``1/fft_scale`` and the weight ``-|xi|^2 fft_scale``.
    """
    if spec.is_zero:
        return np.zeros(grid.half_shape, dtype=np.complex128)
    mask = grid.dealias_mask_half
    u, ut = np.fft.irfftn(np.where(mask, 1.0 / grid.fft_scale, 0.0) * y,
                          s=grid.shape, axes=grid.axes)
    spectrum = np.where(mask, np.fft.rfftn(pointwise_source(u, ut, spec),
                                           axes=grid.axes), 0.0)
    if not weighted:
        return spectrum
    return np.where(mask, -grid.xi2_half * grid.fft_scale, 0.0) * spectrum


def two_stage_step(stepper: _EtdStepper, y: np.ndarray, t: float) -> np.ndarray:
    """Reference ETD2RK step: the corrector source is evaluated at the
    predictor, with the stepper's weights and in the order of its arithmetic.
    """
    n0 = stepper.source.unweighted(y, t)
    pred = (stepper.from_u * y[0] + stepper.from_ut * y[1]
            + (stepper.from_now + stepper.from_prev) * n0)
    n1 = stepper.source.unweighted(pred, t + stepper.dt)
    return pred + -stepper.from_prev * (n1 - n0)


class LegacyStepper:
    """The ETD2 step as it was formed before the weights absorbed the
    source's weight and the transform scales, kept as the reference of the
    drift test: the source is weighted on its own, with the scales applied
    to the fields and to the spectrum, and a step forms the predictor, then
    the source difference, then the corrected state.
    """

    def __init__(self, grid, dt: float, spec: NonlinearitySpec, params: ModelParams):
        self.grid, self.dt, self.spec = grid, dt, spec
        sym = propagator(grid.xi2_half, dt, params)
        i0, i1 = _etd_integrals(grid.xi2_half, dt, params)
        c128 = np.complex128
        self.from_u = np.stack([sym.cosine, sym.cosine_dt], dtype=c128)
        self.from_ut = np.stack([sym.sine, sym.sine_dt], dtype=c128)
        self.w_predict = np.stack([i0.real, sym.sine], dtype=c128)
        self.w_correct = np.stack([(i0 - i1 / dt).real, (i0 / dt).real], dtype=c128)
        self.prev = None

    def source(self, y: np.ndarray) -> np.ndarray:
        g, spec = self.grid, self.spec
        mask = g.dealias_mask_half
        u, ut = np.fft.irfftn(mask * y, s=g.shape, axes=g.axes) / g.fft_scale
        spectrum = np.fft.rfftn(pointwise_source(u, ut, spec), axes=g.axes) * g.fft_scale
        return np.where(mask, -g.xi2_half, 0.0) * spectrum

    def advance(self, y: np.ndarray) -> np.ndarray:
        n_now = self.source(y)
        pred = self.from_u * y[0] + self.from_ut * y[1] + self.w_predict * n_now
        if self.prev is None:
            diff = self.source(pred) - n_now
        else:
            diff = n_now - self.prev
        self.prev = n_now
        return pred + self.w_correct * diff


def mode_ode(b: float, c: float, z: Sequence[float], t0: float, dt: float,
             forcing: Callable[[float], float]) -> np.ndarray:
    """``(u, u')`` at ``t0 + dt`` of ``u'' + b u' + c u = forcing(t)`` from
    ``z`` at ``t0``, by DOP853 at rtol 1e-13 (no propagator kernels).
    """
    sol = solve_ivp(lambda t, w: [w[1], -b * w[1] - c * w[0] + forcing(t)],
                    (t0, t0 + dt), z, method="DOP853", rtol=1e-13, atol=1e-15)
    assert sol.success
    return sol.y[:, -1]


def state_distance(a: Trajectory, b: Trajectory) -> float:
    assert np.allclose(a.times, b.times)
    return float(np.max(sobolev_norm(a.grid, a.spectra[:, 0] - b.spectra[:, 0])))


def displacement(run: Trajectory, i: int) -> np.ndarray:
    """Physical displacement of a trajectory at output index ``i``."""
    return inverse_transform(run.grid, run.spectra[i, 0])


def source_of(u: PhysicalField, ut: PhysicalField, spec: NonlinearitySpec) -> np.ndarray:
    """Half spectrum of the dealiased source at one physical state."""
    return _Source(u.grid, spec)(_initial_state(u, ut), 0.0)


class TestNonlinearitySpec:
    @pytest.mark.parametrize("kw", [
        dict(f_kind="quartic"), dict(g_kind="zero"), dict(g_sign=0.5),
        dict(beta=-1.0), dict(g_sign=-2.0),
    ])
    def test_invalid_specs_rejected(self, kw):
        with pytest.raises(ValueError):
            NonlinearitySpec(**kw)

    def test_zero_detection(self):
        assert ZERO_SPEC.is_zero
        assert not NonlinearitySpec(f_kind="none", g_kind="quadratic").is_zero


class TestNonlinearity:
    def test_squared_cosine_trig_identity(self):
        # laplacian of cos^2 x = laplacian of (1 + cos 2x)/2 = -2 cos 2x
        g = make_grid(1, 2.0 * math.pi, 64)
        out = source_of(PhysicalField.from_function(g, np.cos), PhysicalField.zero(g),
                        NonlinearitySpec(f_kind="quadratic", g_kind="none"))
        vals = inverse_transform(g, out)
        x = g.coordinates()[0]
        assert np.max(np.abs(vals - (-2.0 * np.cos(2.0 * x)))) <= 1e-12

    def test_velocity_branch_sign_and_weight(self):
        g = make_grid(1, 2.0 * math.pi, 64)
        spec = NonlinearitySpec(f_kind="none", g_kind="quadratic", beta=2.0,
                                g_sign=-1.0)
        vals = inverse_transform(g, source_of(PhysicalField.zero(g),
                                              PhysicalField.from_function(g, np.cos),
                                              spec))
        x = g.coordinates()[0]
        assert np.max(np.abs(vals - 4.0 * np.cos(2.0 * x))) <= 1e-12

    def test_constant_displacement_gives_zero(self):
        g = make_grid(1, 2.0 * math.pi, 32)
        out = source_of(PhysicalField(g, np.full(32, 0.7)), PhysicalField.zero(g),
                        QUAD_SPEC)
        assert np.all(out == 0.0)

    def test_absent_nonlinearity_gives_zero(self, rng):
        g = make_grid(1, 2.0 * math.pi, 32)
        out = source_of(random_smooth_field(g, rng), random_smooth_field(g, rng),
                        ZERO_SPEC)
        assert np.all(out == 0.0)

    def test_dealiasing_kills_high_modes(self):
        g = make_grid(1, 2.0 * math.pi, 64)
        out = source_of(PhysicalField.from_function(g, np.cos), PhysicalField.zero(g),
                        NonlinearitySpec(f_kind="quadratic", g_kind="none"))
        modes = np.arange(g.half_shape[-1])
        # beyond the kept band: exactly zero; inside it, modes above the
        # product bandwidth 2 hold only FFT roundoff (no aliased images)
        assert np.all(out[modes > 64 // 3] == 0.0)
        peak = np.max(np.abs(out))
        assert np.max(np.abs(out[modes > 2])) <= 1e-13 * peak

    def test_dealias_mask_enforced_for_random_fields(self, rng):
        g = make_grid(1, 2.0 * math.pi, 32)
        out = source_of(random_smooth_field(g, rng), random_smooth_field(g, rng),
                        QUAD_SPEC)
        assert np.all(out[~g.dealias_mask_half] == 0.0)

    def test_overflow_raises_blow_up(self):
        g = make_grid(1, 2.0 * math.pi, 32)
        with pytest.raises(BlowUpError, match="blow-up"):
            with np.errstate(over="ignore"):
                source_of(PhysicalField(g, np.full(32, 1e200)), PhysicalField.zero(g),
                          QUAD_SPEC)


SOURCE_GRIDS = {"1d_64": (1, 30.0, 64), "1d_512": (1, 60.0, 512),
                "2d_128": (2, 40.0, 128), "3d_16": (3, 20.0, 16)}
SOURCE_SPECS = [
    NonlinearitySpec("quadratic", "quadratic"),
    NonlinearitySpec("quadratic", "quadratic", beta=0.7, g_sign=-1.0),
    NonlinearitySpec("cubic", "quadratic", beta=1.3),
    NonlinearitySpec("quadratic", "cubic", beta=0.7, g_sign=-1.0),
    NonlinearitySpec("none", "cubic", beta=1.3, g_sign=-1.0),
    NonlinearitySpec("cubic", "none"),
    ZERO_SPEC,
]


class TestSource:
    @staticmethod
    def full_half_spectrum(grid, rng) -> np.ndarray:
        # every mode of the stacked pair, including those above the 2/3 cut
        # and the Nyquist planes, holds a random complex value
        shape = (2,) + grid.half_shape
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("spec", SOURCE_SPECS,
                             ids=lambda s: f"{s.f_kind}-{s.g_kind}-{s.g_sign:+g}")
    @pytest.mark.parametrize("grid", SOURCE_GRIDS)
    def test_bitwise_equal_to_whole_array_transforms(self, grid, spec, rng):
        g = make_grid(*SOURCE_GRIDS[grid])
        source = _Source(g, spec)
        for _ in range(2):  # the second call runs on used workspaces
            y = self.full_half_spectrum(g, rng)
            expected = batched_source(y, g, spec)
            assert np.array_equal(source(y, 0.0), expected)
            out = np.full(g.half_shape, np.nan + 0j)
            assert source(y, 0.0, out=out) is out
            assert np.array_equal(out, expected)
            # the unweighted evaluation writes the masked spectrum into out
            unweighted = batched_source(y, g, spec, weighted=False)
            out = np.full(g.half_shape, np.nan + 0j)
            assert source.unweighted(y, 0.0, out=out) is out
            assert np.array_equal(out, unweighted)

    @pytest.mark.parametrize("grid", SOURCE_GRIDS)
    def test_masked_out_input_modes_do_not_change_the_source(self, grid, rng):
        g = make_grid(*SOURCE_GRIDS[grid])
        source = _Source(g, QUAD_SPEC)
        y = self.full_half_spectrum(g, rng)
        truncated = np.where(g.dealias_mask_half, y, 0.0)
        assert np.array_equal(source(y, 0.0), source(truncated, 0.0))

    @pytest.mark.parametrize("grid", SOURCE_GRIDS)
    def test_every_masked_out_output_mode_is_exactly_zero(self, grid, rng):
        # the leading-axis transforms skip the masked-out columns (and, in
        # 3-D, rows): a stale or NaN-filled ``out`` must not show through
        g = make_grid(*SOURCE_GRIDS[grid])
        source = _Source(g, QUAD_SPEC)
        y = self.full_half_spectrum(g, rng)
        for evaluate in (source, source.unweighted):
            out = np.full(g.half_shape, np.nan + 0j)
            evaluate(y, 0.0, out=out)
            masked = out[~g.dealias_mask_half]
            assert masked.size > 0 and np.all(masked == 0.0)
            assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("cut", [None, 2])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kept_columns_and_mask_come_from_the_declared_cut(self, n, cut, monkeypatch):
        # the 2/3 cut is declared once, on Grid: moving it moves both the
        # mask and the source evaluator's pruned blocks
        if cut is not None:
            monkeypatch.setattr(Grid, "dealias_cut", property(lambda self: cut))
        g = make_grid(n, 20.0, 16)
        cut = g.dealias_cut
        m = np.fft.fftfreq(16, d=1.0 / 16)
        keep = np.abs(m) <= cut
        for axis in range(n):
            sel = [0] * n
            sel[axis] = slice(None)
            assert np.array_equal(g.dealias_mask_half[tuple(sel)],
                                  keep[: g.half_shape[axis]])
        source = _Source(g, QUAD_SPEC)
        assert all(blk[-1] == slice(0, cut + 1) for _, blk in source.leading)
        covered = np.zeros(g.half_shape, dtype=bool)
        for blk in source.masked:
            covered[blk] = True
        assert np.array_equal(covered, ~g.dealias_mask_half)

    @pytest.mark.parametrize("grid", ["1d_64", "2d_128", "3d_16"])
    def test_nan_in_a_masked_out_mode_still_blows_up(self, grid, monkeypatch):
        g = make_grid(*SOURCE_GRIDS[grid])
        # the largest last-axis mode is above the 2/3 cut on every grid
        masked = (1,) + (0,) * (g.n - 1) + (-1,)
        assert not g.dealias_mask_half[masked[1:]]
        u0 = small_gaussian(g, amplitude=0.01, width=2.0)
        y = _initial_state(u0, PhysicalField.zero(g))
        y[masked] = math.nan
        with pytest.raises(BlowUpError, match="non-finite values") as info:
            _Source(g, QUAD_SPEC)(y, 0.7)
        assert info.value.time == 0.7

        # in a run, the state of the step that made the NaN trips the guard
        advance = _EtdStepper.advance
        steps = [0]

        def poisoned(self, y, t):
            out = advance(self, y, t)
            steps[0] += 1
            if steps[0] == 3:
                out[masked] = math.nan
            return out

        monkeypatch.setattr(_EtdStepper, "advance", poisoned)
        with pytest.raises(BlowUpError, match="amplitude exceeded") as info:
            solve(u0, PhysicalField.zero(g), T=0.5, dt=0.1, spec=QUAD_SPEC,
                  params=P)
        assert steps[0] == 3 and info.value.time == 3 * 0.1

    def test_fresh_results_do_not_alias(self, rng):
        g = make_grid(2, 20.0, 16)
        source = _Source(g, QUAD_SPEC)
        y1, y2 = (self.full_half_spectrum(g, rng) for _ in range(2))
        s1 = source(y1, 0.0)
        kept = s1.copy()
        s2 = source(y2, 0.0)
        assert not np.shares_memory(s1, s2)
        assert np.array_equal(s1, kept)
        assert np.array_equal(s2, batched_source(y2, g, QUAD_SPEC))

    @pytest.mark.parametrize("spec", SOURCE_SPECS,
                             ids=lambda s: f"{s.f_kind}-{s.g_kind}-{s.g_sign:+g}")
    @pytest.mark.parametrize("grid", ["1d_64", "2d_128", "3d_16"])
    def test_stacked_states_are_bitwise_single_calls(self, grid, spec, rng):
        g = make_grid(*SOURCE_GRIDS[grid])
        ys = np.stack([self.full_half_spectrum(g, rng) for _ in range(3)])
        times = np.array([0.25, 0.5, 0.75])
        single = _Source(g, spec)
        expected = np.stack([single(y, t) for y, t in zip(ys, times)])
        stacked = _Source(g, spec, stack=(3,))
        for _ in range(2):  # the second call runs on used workspaces
            assert np.array_equal(stacked(ys, times), expected)
        out = np.full((3,) + g.half_shape, np.nan + 0j)
        assert stacked(ys, times, out=out) is out
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("stage", [0, 1, 2])
    @pytest.mark.parametrize("grid", ["1d_64", "2d_128", "3d_16"])
    def test_non_finite_stage_raises_at_its_time(self, grid, stage):
        g = make_grid(*SOURCE_GRIDS[grid])
        y = _initial_state(small_gaussian(g, amplitude=0.01, width=2.0),
                           PhysicalField.zero(g))
        ys = np.stack([y, y, y])
        # this stage and every later one hold a NaN: the first one is named
        ys[stage:, 1, (3,) * g.n] = math.nan
        times = np.array([0.25, 0.5, 0.75])
        with pytest.raises(BlowUpError, match="non-finite values") as info:
            _Source(g, QUAD_SPEC, stack=(3,))(ys, times)
        assert info.value.time == times[stage]

    def test_etd_step_allocates_one_state(self):
        g = make_grid(2, 40.0, 128)
        u0 = small_gaussian(g, amplitude=0.05, width=2.0)
        stepper = _EtdStepper(g, 0.05, QUAD_SPEC, P)
        tracemalloc.start()
        try:
            # trace the state in hand too, so that freeing it counts
            y = stepper.advance(_initial_state(u0, PhysicalField.zero(g)), 0.0)
            start = tracemalloc.get_traced_memory()[0]
            for i in range(1, 11):
                tracemalloc.reset_peak()
                y = stepper.advance(y, 0.05 * i)
                peak = tracemalloc.get_traced_memory()[1]
                # the new state is the only array a step allocates, next to
                # the headers of a few views; the work arrays of the
                # evaluator and the stepper are reused, and a temporary
                # source row (half a state) would not fit in the slack
                assert peak - start <= y.nbytes + y.nbytes // 16, i
        finally:
            tracemalloc.stop()

    def test_stepper_and_source_hold_fewer_work_bytes(self):
        g = make_grid(2, 40.0, 128)
        stepper = _EtdStepper(g, 0.05, QUAD_SPEC, P)

        def held(obj) -> int:
            return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))

        row = 16 * math.prod(g.half_shape)  # one complex half spectrum
        field = 8 * math.prod(g.shape)  # one real physical field
        # stepper: four weight pairs, the work pair and the two source rows;
        # source: truncation, weight, the truncated pair, the physical pair,
        # the pointwise product and its finiteness mask
        assert held(stepper) == 8 * row + 2 * row + 2 * row
        assert held(stepper.source) == 4 * row + 3 * field + field // 8
        # the step that kept the source's weight apart also held a predictor
        # pair in the stepper and a spectrum row in the source
        assert held(stepper) + held(stepper.source) < 19 * row + 3 * field + field // 8


class TestStepAndSolve:
    def test_zero_spec_step_matches_linear_flow(self, rng):
        g = make_grid(1, 12.0, 64)
        u0 = random_smooth_field(g, rng, scale=0.1)
        u1 = random_smooth_field(g, rng, scale=0.1)
        dt = 0.3
        run = solve(u0, u1, T=dt, dt=dt, spec=ZERO_SPEC, params=P)
        stepped = inverse_transform(g, run.spectra[-1])
        exact = inverse_transform(g, linear_solution(g, run.spectra[0], dt, P))
        scale = max(np.max(np.abs(exact[0])), 1e-30)
        assert np.max(np.abs(stepped[0] - exact[0])) <= 1e-12 * scale
        assert np.max(np.abs(stepped[1] - exact[1])) <= 1e-12

    def test_invalid_step_rejected(self):
        # rejected by name before the step count round(T / dt) is formed
        g = make_grid(1, 12.0, 16)
        for dt in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                solve(PhysicalField.zero(g), PhysicalField.zero(g), T=1.0, dt=dt,
                      spec=QUAD_SPEC, params=P)

    def test_zero_data_stays_zero(self):
        g = make_grid(1, 12.0, 32)
        run = solve(PhysicalField.zero(g), PhysicalField.zero(g), T=1.0,
                    dt=0.1, spec=QUAD_SPEC, params=P)
        assert np.all(run.spectra == 0.0)

    def test_linear_spec_solve_matches_arbitrary_time_solution(self, rng):
        g = make_grid(1, 12.0, 64)
        u0 = random_smooth_field(g, rng, scale=0.1)
        u1 = random_smooth_field(g, rng, scale=0.1)
        run = solve(u0, u1, T=2.0, dt=0.05, spec=ZERO_SPEC, params=P,
                    out_every=8)
        exact = linear_solution(g, run.spectra[0], run.times, P)
        for i in range(run.times.size):
            u_exact = inverse_transform(g, exact[i, 0])
            scale = max(np.max(np.abs(u_exact)), 1e-30)
            assert np.max(np.abs(displacement(run, i) - u_exact)) <= 1e-10 * scale

    def test_output_cadence_and_times(self):
        g = make_grid(1, 12.0, 16)
        run = solve(PhysicalField.zero(g), PhysicalField.zero(g), T=1.0,
                    dt=0.1, spec=ZERO_SPEC, params=P, out_every=2)
        assert np.allclose(run.times, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])

    def test_second_order_self_convergence(self):
        g = make_grid(1, 30.0, 64)
        u0 = small_gaussian(g, amplitude=0.01)
        u1 = PhysicalField.zero(g)
        finals = []
        for dt in (0.1, 0.05, 0.025):
            run = solve(u0, u1, T=10.0, dt=dt, spec=QUAD_SPEC, params=P,
                        out_every=int(round(10.0 / dt)))
            finals.append(displacement(run, -1))
        e_coarse = np.max(np.abs(finals[0] - finals[1]))
        e_fine = np.max(np.abs(finals[1] - finals[2]))
        assert e_coarse / e_fine == pytest.approx(4.0, rel=0.2)

    def test_observed_order_rises_to_two_at_unit_amplitude(self):
        # at amplitude 1 the nonlinearity is not small and the coarse steps
        # are outside the asymptotic range: the observed order climbs toward
        # 2 as dt is halved (about 1.55, 1.78, 1.89)
        g = make_grid(1, 30.0, 64)
        u0 = small_gaussian(g, amplitude=1.0)
        u1 = PhysicalField.zero(g)
        finals = []
        for dt in (0.1, 0.05, 0.025, 0.0125, 0.00625):
            run = solve(u0, u1, T=10.0, dt=dt, spec=QUAD_SPEC, params=P,
                        out_every=int(round(10.0 / dt)))
            finals.append(displacement(run, -1))
        diffs = [np.max(np.abs(a - b)) for a, b in zip(finals, finals[1:])]
        orders = np.log2(np.array(diffs[:-1]) / np.array(diffs[1:]))
        assert np.all(np.diff(orders) > 0.0), orders
        assert orders[-1] >= 1.85, orders

    def test_matches_reference_oracle(self):
        g = make_grid(1, 30.0, 64)
        u0 = small_gaussian(g, amplitude=0.01)
        u1 = PhysicalField.zero(g)
        T = 5.0
        run = solve(u0, u1, T=T, dt=0.01, spec=QUAD_SPEC, params=P,
                    out_every=100)
        ref = reference_solve(u0, u1, T=T, spec=QUAD_SPEC, params=P,
                              tol=1e-10, t_eval=run.times)
        err = state_distance(run, ref)
        assert err <= 1e-6 * l2_norm(u0)

    def test_three_dimensional_solve_matches_reference_oracle(self):
        g = make_grid(3, 20.0, 16)
        u0 = small_gaussian(g, amplitude=0.05, width=2.0)
        u1 = PhysicalField.zero(g)
        run = solve(u0, u1, T=1.0, dt=0.01, spec=QUAD_SPEC, params=P,
                    out_every=25)
        ref = reference_solve(u0, u1, T=1.0, spec=QUAD_SPEC, params=P,
                              tol=1e-10, t_eval=run.times)
        assert state_distance(run, ref) <= 1e-6 * l2_norm(u0)

    def test_each_further_step_makes_one_forward_and_one_inverse_transform(
            self, monkeypatch):
        counts = {"forward": 0, "inverse": 0}

        def counted(fn, kind):
            def wrapper(*args, **kwargs):
                counts[kind] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("fft", "fftn", "rfft", "rfftn"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name), "forward"))
        for name in ("ifft", "ifftn", "irfft", "irfftn"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name), "inverse"))
        g = make_grid(2, 20.0, 16)
        u0 = small_gaussian(g, amplitude=0.05, width=2.0)
        u1 = PhysicalField.zero(g)

        def transforms(n_steps: int) -> dict:
            counts.update(forward=0, inverse=0)
            # every run records only the initial and the final state, so a
            # difference of runs is the cost of the extra steps
            solve(u0, u1, T=0.1 * n_steps, dt=0.1, spec=QUAD_SPEC, params=P,
                  out_every=100)
            return dict(counts)

        # after the two-stage first step, one source evaluation per step: one
        # batched inverse of the (u, u_t) pair and one forward transform; an
        # n-D transform is n per-axis numpy.fft calls (an unbatched inverse
        # would make 2n, a second evaluation another n of each)
        runs = [transforms(k) for k in (1, 2, 3, 4)]
        for fewer, more in zip(runs, runs[1:]):
            assert {k: more[k] - fewer[k] for k in counts} == {"forward": g.n,
                                                               "inverse": g.n}

    def test_n_steps_make_n_plus_one_source_evaluations(self, monkeypatch):
        # the stepper takes the unweighted evaluation; a weighted call makes
        # one as well, so every source evaluation is counted
        calls = [0]
        evaluate = _Source.unweighted

        def counted(self, *args, **kwargs):
            calls[0] += 1
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(_Source, "unweighted", counted)
        g = make_grid(1, 30.0, 64)
        u0 = small_gaussian(g, amplitude=0.01)
        # 0.1 * i is not (i - 1) * 0.1 + 0.1 for many i, so a history that
        # compared float times would fall back to two evaluations there
        for n_steps in (1, 2, 37):
            calls[0] = 0
            solve(u0, PhysicalField.zero(g), T=0.1 * n_steps, dt=0.1,
                  spec=QUAD_SPEC, params=P, out_every=10)
            assert calls[0] == n_steps + 1

    def test_one_step_solve_is_the_two_stage_step(self):
        g = make_grid(2, 20.0, 16)
        u0 = small_gaussian(g, amplitude=0.05, width=2.0)
        u1 = small_gaussian(g, amplitude=0.02, width=3.0)
        dt = 0.1
        run = solve(u0, u1, T=dt, dt=dt, spec=QUAD_SPEC, params=P)
        expected = two_stage_step(_EtdStepper(g, dt, QUAD_SPEC, P),
                                  _initial_state(u0, u1), 0.0)
        assert np.array_equal(run.spectra[-1], expected)

    @pytest.mark.parametrize("grid", ["1d_512", "2d_128", "3d_16"])
    def test_fused_steps_stay_within_rounding_of_the_legacy_step(self, grid):
        # the fused step reorders the arithmetic of the step that weighted
        # the source on its own; over 200 steps of a nonlinear run the two
        # stay within 1e-12 of the state norm
        g = make_grid(*SOURCE_GRIDS[grid])
        y = _initial_state(small_gaussian(g, amplitude=0.5, width=2.0),
                           small_gaussian(g, amplitude=0.2, width=3.0))
        dt = 0.05
        stepper = _EtdStepper(g, dt, QUAD_SPEC, P)
        legacy = LegacyStepper(g, dt, QUAD_SPEC, P)
        fused = y
        worst = 0.0
        for i in range(200):
            fused = stepper.advance(fused, i * dt)
            y = legacy.advance(y)
            worst = max(worst, np.linalg.norm(fused - y) / np.linalg.norm(y))
        assert 0.0 < worst <= 1e-12

    @pytest.mark.parametrize("coeffs", [(0.3, -0.8, 0.0), (0.3, -0.8, 1.5)],
                             ids=["affine", "quadratic"])
    def test_time_only_source_steps_match_mode_ode(self, coeffs):
        # with a source S(t) on one mode, a step is exact for the linear model
        # of S that it assumes: through t and t + dt on the first step, through
        # t - dt and t on every later one; both models are S when S is affine
        g = make_grid(1, 2.0 * math.pi, 16)
        k, dt = 1, 0.1
        b = float(damping_coefficient(g.xi2_half[k], P))
        c = float(restoring_coefficient(g.xi2_half[k]))
        forcing = np.polynomial.Polynomial(coeffs)
        stepper = _EtdStepper(g, dt, QUAD_SPEC, P)
        # the step multiplies the unweighted source by the weight it folded
        # into its coefficients, so the stub divides it out
        weight = stepper.source.weight[k].real

        class TimeOnlySource:
            def unweighted(self, y, t, out=None):
                out.fill(0.0)
                out[k] = forcing(t) / weight
                return out

        stepper.source = TimeOnlySource()
        z = np.array([0.2, -0.1])
        for n in range(12):
            t = n * dt
            y = np.zeros((2,) + g.half_shape, dtype=np.complex128)
            y[:, k] = z
            stepped = stepper.advance(y, t)[:, k]
            node = t + dt if n == 0 else t - dt
            slope = (forcing(node) - forcing(t)) / (node - t)
            model = mode_ode(b, c, z, t, dt, lambda s: forcing(t) + slope * (s - t))
            assert np.max(np.abs(stepped - model)) <= 1e-12, n
            z = mode_ode(b, c, z, t, dt, forcing)
            local_error = np.max(np.abs(stepped - z))
            if coeffs[2] == 0.0:
                assert local_error <= 1e-12, n
            else:
                # O(dt^3) in the velocity row, far above the match above
                assert 1e-5 <= local_error <= 10.0 * dt**3, n

    def test_energy_non_increasing_along_linear_run(self, rng):
        g = make_grid(1, 12.0, 64)
        u0 = random_smooth_field(g, rng, scale=0.1)
        u1 = random_smooth_field(g, rng, scale=0.1)
        run = solve(u0, u1, T=2.0, dt=0.02, spec=ZERO_SPEC, params=P,
                    out_every=10)
        e = total_energy(run.grid, run.spectra, P)
        assert np.all(np.diff(e) <= 1e-8 * e[0])

    def test_blow_up_guard_carries_time(self, monkeypatch):
        g = make_grid(1, 12.0, 32)
        u0 = small_gaussian(g, amplitude=1.0)
        u1 = PhysicalField.zero(g)
        # an absurdly tight guard turns the first recorded step into a
        # trip, exercising the diagnostic path deterministically
        monkeypatch.setattr(bousslab.nonlinear, "_BLOWUP_FACTOR", 1e-12)
        with pytest.raises(BlowUpError) as exc:
            solve(u0, u1, T=1.0, dt=0.1, spec=ZERO_SPEC, params=P)
        assert exc.value.time > 0.0

    def test_guard_trips_on_nan_in_velocity_row_only(self):
        g = make_grid(2, 20.0, 16)
        y = _initial_state(small_gaussian(g), small_gaussian(g))
        assert not _over_guard(y, 1e6, g.dxi**g.n)
        y[1, 3, 2] = complex(0.0, math.nan)
        assert _over_guard(y, 1e6, g.dxi**g.n)

    def test_guard_trips_on_inf_in_displacement_row(self):
        g = make_grid(1, 12.0, 32)
        y = _initial_state(small_gaussian(g), PhysicalField.zero(g))
        y[0, 5] = -math.inf
        assert _over_guard(y, 1e6, g.dxi**g.n)

    def test_guard_trips_just_over_the_amplitude(self):
        g = make_grid(2, 20.0, 16)
        y = _initial_state(small_gaussian(g), small_gaussian(g, amplitude=1.0))
        amplitude, velocity = sobolev_norm(g, y)
        # the velocity row is not amplitude-checked
        assert velocity > 2.0 * amplitude
        assert _over_guard(y, amplitude * (1.0 - 1e-12), g.dxi**g.n)
        assert not _over_guard(y, amplitude * (1.0 + 1e-12), g.dxi**g.n)

    @pytest.mark.parametrize("n, L, N", [(1, 60.0, 512), (2, 40.0, 128),
                                         (3, 20.0, 16)])
    def test_guard_amplitude_matches_half_l2(self, n, L, N, rng):
        # the guard's dot-product amplitude trips within 1e-13 of the
        # Plancherel L^2 norm of the displacement
        g = make_grid(n, L, N)
        for _ in range(5):
            shape = (2,) + g.half_shape
            y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            amplitude = sobolev_norm(g, y[0])
            assert _over_guard(y, amplitude * (1.0 - 1e-13), g.dxi**g.n)
            assert not _over_guard(y, amplitude * (1.0 + 1e-13), g.dxi**g.n)


def stored_solve(u0: PhysicalField, u1: PhysicalField, T: float, dt: float,
                 spec: NonlinearitySpec, out_every: int) -> np.ndarray:
    """The spectra of :func:`solve` from one step loop that records into a
    preallocated trajectory, as the solver did before it streamed its
    states."""
    g = u0.grid
    n_steps = round(T / dt)
    y = _initial_state(u0, u1)
    stepper = _EtdStepper(g, dt, spec, P)
    spectra = [y]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            y = stepper.advance(y, (i - 1) * dt)
            if i % out_every == 0 or i == n_steps:
                spectra.append(y)
    return np.stack(spectra)


class TestMarch:
    CASES = [(make_grid(1, 30.0, 64), 0.05), (make_grid(2, 20.0, 16), 0.05),
             (make_grid(3, 20.0, 16), 0.1)]

    @pytest.mark.parametrize("grid, amplitude", CASES, ids=["1d", "2d", "3d"])
    def test_solve_is_the_collected_march_bitwise(self, grid, amplitude):
        # 13 steps at a cadence of 4: the last output is not on the cadence
        u0, u1 = small_gaussian(grid, amplitude), small_gaussian(grid, 0.5 * amplitude)
        args = (u0, u1, 1.3, 0.1, QUAD_SPEC, P)
        # the states are kept without a copy: the march never writes to one
        # it has yielded
        states = list(march(*args, out_every=4))
        run = solve(*args, out_every=4)
        times = _output_times(13, 0.1, 4)
        assert [t for t, _ in states] == times.tolist() == run.times.tolist()
        assert np.array_equal(np.stack([y for _, y in states]), run.spectra)
        assert np.array_equal(run.spectra, stored_solve(u0, u1, 1.3, 0.1, QUAD_SPEC, 4))

    @pytest.mark.parametrize("kw, match", [
        ({"dt": 0.0}, "dt must be positive and finite"),
        ({"dt": math.nan}, "dt must be positive and finite"),
        ({"dt": 0.3}, "does not divide"),
        ({"out_every": 0}, "output cadence"),
        ({"out_every": 1.5}, "output cadence"),
        ({"T": math.inf}, "final time must be positive and finite"),
        ({"T": math.nan}, "final time must be positive and finite"),
        ({"T": -1.0}, "final time must be positive and finite"),
    ])
    @pytest.mark.parametrize("solver", [march, solve])
    def test_bad_arguments_raise_at_call_time(self, solver, kw, match):
        g = make_grid(1, 12.0, 16)
        args = {"T": 1.0, "dt": 0.1, "out_every": 1, **kw}
        # march raises before its first state is asked for
        with pytest.raises(ValueError, match=match):
            solver(PhysicalField.zero(g), PhysicalField.zero(g), spec=QUAD_SPEC,
                   params=P, **args)

    @pytest.mark.parametrize("amplitude, spec, factor", [
        (1.0, ZERO_SPEC, 1e-12),                              # the guard trips
        (10.0, NonlinearitySpec("cubic", "cubic"), 1e250),    # the source overflows
    ], ids=["guard", "overflow"])
    def test_blow_up_is_the_same_through_march_and_solve(self, amplitude, spec,
                                                         factor, monkeypatch):
        g = make_grid(1, 30.0, 64)
        args = (small_gaussian(g, amplitude), PhysicalField.zero(g), 2.0, 0.01,
                spec, P)
        monkeypatch.setattr(bousslab.nonlinear, "_BLOWUP_FACTOR", factor)
        with pytest.raises(BlowUpError) as solved:
            solve(*args, out_every=3)
        with pytest.raises(BlowUpError) as marched:
            for _ in march(*args, out_every=3):
                pass
        assert marched.value.time == solved.value.time > 0.0
        assert str(marched.value) == str(solved.value)

    def test_consumer_error_state_is_its_own_at_every_yield(self, monkeypatch):
        g = make_grid(1, 30.0, 64)
        args = (small_gaussian(g, 10.0), PhysicalField.zero(g), 2.0, 0.01,
                NonlinearitySpec("cubic", "cubic"), P)
        before = np.geterr()
        with np.errstate(over="raise", invalid="warn"):
            inside = np.geterr()
            states = march(*args)
            next(states)
            next(states)
            assert np.geterr() == inside
            # abandoned mid-run
            del states
            assert np.geterr() == inside
            # stopped by an overflow that the march itself keeps quiet
            monkeypatch.setattr(bousslab.nonlinear, "_BLOWUP_FACTOR", 1e250)
            with pytest.raises(BlowUpError, match="non-finite"):
                for _ in march(*args):
                    assert np.geterr() == inside
            assert np.geterr() == inside
        assert np.geterr() == before


class TestPicard:
    def test_zero_spec_fixed_point_in_one_application(self, rng):
        g = make_grid(1, 12.0, 32)
        u0 = random_smooth_field(g, rng, scale=0.05)
        u1 = random_smooth_field(g, rng, scale=0.05)
        times = np.linspace(0.0, 1.0, 9)
        seed = Trajectory(times=times, grid=g,
                          spectra=np.repeat(_initial_state(u0, u1)[None], times.size, axis=0))
        lin = linear_trajectory(u0, u1, times, P)
        out = picard_iterate(seed, u0, u1, ZERO_SPEC, P)
        assert state_distance(out, lin) <= 1e-10 * max(l2_norm(u0), 1e-30)

    def test_contraction_for_small_data(self):
        g = make_grid(1, 30.0, 64)
        u0 = small_gaussian(g, amplitude=0.01)
        u1 = PhysicalField.zero(g)
        times = np.linspace(0.0, 2.0, 17)
        current = linear_trajectory(u0, u1, times, P)
        dists = []
        for _ in range(3):
            nxt = picard_iterate(current, u0, u1, QUAD_SPEC, P)
            dists.append(state_distance(nxt, current))
            current = nxt
        assert dists[1] / dists[0] < 0.5
        assert dists[2] / dists[1] < 0.5

    @pytest.mark.parametrize("case", ["oracle_crosscheck_m33", "non_uniform_mesh",
                                      "grid_2d", "graded_mesh", "inexact_step"])
    def test_bitwise_equal_to_pairwise_sum(self, case):
        if case == "oracle_crosscheck_m33":
            g, params = make_grid(1, 30.0, 64), P
            u0, u1 = small_gaussian(g, amplitude=0.01), PhysicalField.zero(g)
            times = np.linspace(0.0, 2.0, 33)
        elif case in ("graded_mesh", "inexact_step"):
            # lags shared between columns, but more of them than mesh times:
            # steps 1/16 then 1/8, and a uniform step 0.1 that is not exact
            g, params = make_grid(1, 30.0, 64), P
            u0 = small_gaussian(g, amplitude=0.02)
            u1 = small_gaussian(g, amplitude=0.01, width=2.0)
            times = (np.concatenate([np.arange(17) / 16, 1.0 + np.arange(1, 9) / 8])
                     if case == "graded_mesh" else np.linspace(0.0, 2.0, 21))
            m = times.size
            assert m < _mesh_lags(times)[0].size < m * (m + 1) // 2
        elif case == "non_uniform_mesh":
            g, params = make_grid(1, 30.0, 64), ModelParams(alpha=-1.5)
            u0 = small_gaussian(g, amplitude=0.02)
            u1 = PhysicalField.from_function(
                g, lambda x: 0.01 * np.sin(x) * np.exp(-x**2 / 8.0))
            steps = np.random.default_rng(3).uniform(0.02, 0.2, size=32)
            times = np.concatenate([[0.0], np.cumsum(steps)])
        else:
            g, params = make_grid(2, 20.0, 16), P
            u0 = small_gaussian(g, amplitude=0.05, width=2.0)
            u1 = small_gaussian(g, amplitude=0.02, width=3.0)
            times = np.linspace(0.0, 1.0, 17)
        base = linear_trajectory(u0, u1, times, params)
        # the second application starts from a base with a nonzero velocity
        for _ in range(2):
            out = picard_iterate(base, u0, u1, QUAD_SPEC, params)
            ref = pairwise_picard(base, u0, u1, QUAD_SPEC, params)
            assert np.array_equal(out.times, times)
            for y, r in zip(out.spectra, ref, strict=True):
                assert np.array_equal(y, r)
            base = out

    @pytest.mark.parametrize("m", [33, 65])
    def test_one_lag_kernel_evaluation_per_sweep(self, monkeypatch, m):
        columns = {"linear": [], "lags": []}

        def counted(key):
            def evaluate(xi2, t, params):
                columns[key].append(np.shape(t))
                return propagator(xi2, t, params)
            return evaluate

        # the linear part goes through bousslab.linear, the Duhamel sum
        # through bousslab.nonlinear; both reach the one kernel function
        monkeypatch.setattr(bousslab.linear, "propagator", counted("linear"))
        monkeypatch.setattr(bousslab.nonlinear, "propagator", counted("lags"))
        g = make_grid(1, 30.0, 64)
        u0, u1 = small_gaussian(g, amplitude=0.01), PhysicalField.zero(g)
        base = linear_trajectory(u0, u1, np.linspace(0.0, 2.0, m), P)
        for sweep in range(1, 3):
            base = picard_iterate(base, u0, u1, QUAD_SPEC, P)
            # one linear call per sweep (the seed made the first) and one
            # lag call, whose kernel table is M lags x the half-lattice modes
            assert len(columns["linear"]) == sweep + 1
            assert columns["lags"] == [(m, 1)] * sweep

    @pytest.mark.parametrize("m", [33, 65])
    def test_crosscheck_meshes_have_one_lag_per_mesh_time(self, m):
        # linspace(0, 2, M) of the oracle_crosscheck sweeps has an exact step,
        # 1/16 or 1/32, so every lag is one of its M multiples
        times = np.linspace(0.0, 2.0, m)
        lags, rows = _mesh_lags(times)
        assert np.array_equal(lags, np.arange(m) * (2.0 / (m - 1)))
        assert len(rows) == m
        for j, r in enumerate(rows):
            assert np.array_equal(lags[r], times[j:] - times[j])

    def test_grid_mismatch_rejected(self, rng):
        g = make_grid(1, 12.0, 32)
        other = make_grid(1, 12.0, 64)
        u0 = random_smooth_field(g, rng)
        u1 = random_smooth_field(g, rng)
        base = linear_trajectory(u0, u1, np.linspace(0.0, 1.0, 9), P)
        with pytest.raises(ValueError, match="grid"):
            picard_iterate(base, random_smooth_field(other, rng),
                           random_smooth_field(other, rng), ZERO_SPEC, P)


class TestReferenceSolve:
    def test_single_mode_analytic_solution(self):
        g = make_grid(1, 2.0 * math.pi, 16)
        u0 = PhysicalField.zero(g)
        u1 = PhysicalField.from_function(g, np.cos)
        ref = reference_solve(u0, u1, T=2.0, spec=ZERO_SPEC, params=P,
                              tol=1e-10, t_eval=[0.0, 1.0, 2.0])
        x = g.coordinates()[0]
        for i, t in enumerate(ref.times[1:], start=1):
            exact = math.exp(-t) * math.sin(t) * np.cos(x)
            assert np.max(np.abs(displacement(ref, i) - exact)) <= 1e-8

    def test_zero_data(self):
        g = make_grid(1, 10.0, 16)
        ref = reference_solve(PhysicalField.zero(g), PhysicalField.zero(g),
                              T=1.0, spec=QUAD_SPEC, params=P, tol=1e-8)
        assert np.all(ref.spectra == 0.0)

    @pytest.mark.parametrize("tol", [1e-13, 1e-3])
    def test_tolerance_range_enforced(self, tol):
        g = make_grid(1, 10.0, 16)
        with pytest.raises(ValueError, match="tolerance"):
            reference_solve(PhysicalField.zero(g), PhysicalField.zero(g),
                            T=1.0, spec=ZERO_SPEC, params=P, tol=tol)


def crosscheck_problem(T: float):
    """The ``oracle_crosscheck`` data on its grid, with the AC9 output times
    (spacing 0.5) up to ``T``.
    """
    g = make_grid(1, 30.0, 64)
    return (small_gaussian(g, amplitude=0.01), PhysicalField.zero(g),
            np.linspace(0.0, T, int(round(T / 0.5)) + 1))


def dop853_mode_system(u0: PhysicalField, u1: PhysicalField,
                       t_eval: np.ndarray, tol: float) -> list[np.ndarray]:
    """Physical ``u`` at ``t_eval`` of the spectral mode system under
    :data:`QUAD_SPEC`, by DOP853 at rtol = atol = ``tol`` with the reference
    evaluator :func:`batched_source` (no propagator kernels).
    """
    g = u0.grid
    b = damping_coefficient(g.xi2_half, P)
    c = restoring_coefficient(g.xi2_half)
    shape = (2,) + g.half_shape

    def unpack(y):
        return np.ascontiguousarray(y).view(np.complex128).reshape(shape)

    def rhs(t, y):
        z = unpack(y)
        dz = np.stack([z[1], -b * z[1] - c * z[0] + batched_source(z, g, QUAD_SPEC)])
        return dz.view(np.float64).ravel()

    y0 = _initial_state(u0, u1).view(np.float64).ravel()
    sol = solve_ivp(rhs, (0.0, t_eval[-1]), y0, method="DOP853", rtol=tol,
                    atol=tol, t_eval=t_eval)
    assert sol.success
    return [inverse_transform(g, unpack(sol.y[:, j]))[0] for j in range(t_eval.size)]


def scipy_radau_mode_system(u0: PhysicalField, u1: PhysicalField,
                            t_eval: np.ndarray, tol: float) -> np.ndarray:
    """Stacked half spectra at ``t_eval`` of the spectral mode system under
    :data:`QUAD_SPEC`, by ``scipy.integrate.solve_ivp(method="Radau")`` at
    rtol = atol = ``tol`` given the exact linear Jacobian as a sparse matrix
    (so its Newton systems are solved by sparse LU), on the oracle's vector
    layout and with one single-state source evaluation per right-hand side.
    """
    g = u0.grid
    neg_b = -damping_coefficient(g.xi2_half, P)
    c = restoring_coefficient(g.xi2_half)
    source = _Source(g, QUAD_SPEC)
    shape = (2,) + g.half_shape

    def rhs(t, y):
        z = y.view(np.complex128).reshape(shape)
        dz = np.stack([z[1], neg_b * z[1] - c * z[0] + source(z, t)])
        return dz.view(np.float64).ravel()

    # each mode contributes the block [[0, 1], [-c, -b]] to its real and to
    # its imaginary part; the u block comes first
    m = 2 * c.size
    k = np.arange(m)
    jac = csc_matrix((np.concatenate([np.ones(m), np.repeat(neg_b.ravel(), 2),
                                      -np.repeat(c.ravel(), 2)]),
                      (np.concatenate([k, m + k, m + k]),
                       np.concatenate([m + k, m + k, k]))), shape=(2 * m, 2 * m))
    y0 = _initial_state(u0, u1).view(np.float64).ravel()
    sol = solve_ivp(rhs, (0.0, t_eval[-1]), y0, method="Radau", rtol=tol,
                    atol=tol, jac=jac, t_eval=t_eval)
    assert sol.success
    return np.ascontiguousarray(sol.y.T).view(np.complex128).reshape(
        (t_eval.size,) + shape)


def count_evaluated_states(monkeypatch) -> list[int]:
    """Count the states every :class:`_Source` call evaluates (a call on
    ``k`` stacked states counts ``k``) in the returned one-item list.
    """
    states = [0]
    evaluate = _Source.__call__

    def counted(self, y, *args, **kwargs):
        states[0] += math.prod(y.shape[:y.ndim - 1 - self.grid.n])
        return evaluate(self, y, *args, **kwargs)

    monkeypatch.setattr(_Source, "__call__", counted)
    return states


class TestRadauOracle:
    """The Radau IIA oracle on the ``oracle_crosscheck`` problem."""

    def test_agrees_with_an_explicit_integration_of_the_mode_system(self):
        u0, u1, times = crosscheck_problem(T=2.0)
        ref = reference_solve(u0, u1, T=2.0, spec=QUAD_SPEC, params=P,
                              tol=1e-12, t_eval=times)
        explicit = dop853_mode_system(u0, u1, times, tol=1e-12)
        g = u0.grid
        err = max(l2_norm(PhysicalField(g, displacement(ref, i) - e))
                  / l2_norm(PhysicalField(g, e))
                  for i, e in enumerate(explicit[1:], start=1))
        assert err <= 1e-9

    def test_tightest_tolerance_needs_few_source_evaluations(self, monkeypatch):
        # an explicit pair is held to the |xi|^4 stability limit: DOP853
        # makes about 19 500 evaluations here
        states = count_evaluated_states(monkeypatch)
        u0, u1, times = crosscheck_problem(T=5.0)
        reference_solve(u0, u1, T=5.0, spec=QUAD_SPEC, params=P, tol=1e-12,
                        t_eval=times)
        assert 0 < states[0] <= 5000

    @pytest.mark.parametrize("problem", ["oracle_crosscheck", "3d_16"])
    def test_matches_scipy_radau_step_for_step(self, problem, monkeypatch):
        if problem == "oracle_crosscheck":
            (u0, u1, times), T, tol, bound = crosscheck_problem(T=5.0), 5.0, 1e-12, 1e-13
        else:
            g = make_grid(3, 20.0, 16)
            u0, u1 = small_gaussian(g, amplitude=0.05, width=2.0), PhysicalField.zero(g)
            T, tol, bound = 1.0, 1e-10, 1e-12
            times = np.linspace(0.0, T, 5)
        states = count_evaluated_states(monkeypatch)
        expected = scipy_radau_mode_system(u0, u1, times, tol)
        scipy_states, states[0] = states[0], 0
        ref = reference_solve(u0, u1, T=T, spec=QUAD_SPEC, params=P, tol=tol,
                              t_eval=times)
        # the same steps, Newton iterations and rejections evaluate the same states
        assert states[0] == scipy_states
        err = max(np.linalg.norm(r - e) / np.linalg.norm(e)
                  for r, e in zip(ref.spectra[1:], expected[1:], strict=True))
        assert np.array_equal(ref.spectra[0], expected[0])
        assert err <= bound

    def test_non_finite_stage_is_named_at_its_time(self, monkeypatch):
        evaluate = _Source.__call__
        stage_times = []

        def poisoned(self, y, t, out=None):
            if self.stack:
                stage_times.append(np.array(t))
                if len(stage_times) == 40:  # well into the run
                    y = y.copy()
                    y[1:, 0, 3] = math.nan  # the second and third stages
            return evaluate(self, y, t, out)

        monkeypatch.setattr(_Source, "__call__", poisoned)
        u0, u1, times = crosscheck_problem(T=5.0)
        with pytest.raises(ReferenceIntegrationError) as info:
            reference_solve(u0, u1, T=5.0, spec=QUAD_SPEC, params=P, tol=1e-12,
                            t_eval=times)
        t_stage = float(stage_times[-1][1])
        assert len(stage_times) == 40 and t_stage > 0.0
        assert str(info.value) == ("reference integration failed: non-finite "
                                   f"source at t={t_stage:.6g}")
        assert isinstance(info.value.__cause__, BlowUpError)
        assert info.value.__cause__.time == t_stage

    def test_never_evaluates_the_closed_form_kernels(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle evaluated a closed-form kernel")

        names = ("propagator", "phi_divided_difference", "_etd_integrals")
        for module in [m for key, m in sys.modules.items()
                       if key == "bousslab" or key.startswith("bousslab.")]:
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        u0, u1, times = crosscheck_problem(T=1.0)
        ref = reference_solve(u0, u1, T=1.0, spec=QUAD_SPEC, params=P,
                              tol=1e-12, t_eval=times)
        assert np.all(np.isfinite(ref.spectra[-1]))

    def test_non_finite_source_is_named_and_chained(self):
        g = make_grid(1, 30.0, 64)
        with pytest.raises(ReferenceIntegrationError,
                           match=r"^reference integration failed: non-finite "
                                 r"source at t=0$") as info:
            reference_solve(small_gaussian(g, amplitude=1e200),
                            PhysicalField.zero(g), T=1.0, spec=QUAD_SPEC,
                            params=P)
        assert isinstance(info.value.__cause__, BlowUpError)

    @pytest.mark.parametrize("t_eval", [[0.5, 1.0], [0.0, 1.0, 0.5],
                                        [0.0, 2.5, 5.5]],
                             ids=["not_from_zero", "unsorted", "past_T"])
    def test_bad_output_times_rejected_before_integrating(self, t_eval,
                                                          monkeypatch):
        def forbidden(self, *args, **kwargs):
            raise AssertionError("the source was evaluated")

        monkeypatch.setattr(_Source, "__call__", forbidden)
        u0, u1, _ = crosscheck_problem(T=5.0)
        with pytest.raises(ValueError, match="t_eval"):
            reference_solve(u0, u1, T=5.0, spec=QUAD_SPEC, params=P,
                            t_eval=t_eval)


class TestOverflowWarnings:
    """The solvers, not each source evaluation, keep numpy quiet about the
    overflow that a blow-up makes; with every warning an error, each still
    stops with its own exception at the same time."""

    @staticmethod
    def raised_under(action: str, run: Callable[[], object], error: type):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(error) as info:
                run()
        return info.value

    def test_solve_raises_at_the_step_whose_source_overflowed(self, monkeypatch):
        # cubic powers overflow below the guard's squares: the source of a
        # later multistep step, at t = 0.05, is the first non-finite one
        g = make_grid(1, 30.0, 64)
        u0 = small_gaussian(g, amplitude=10.0)
        monkeypatch.setattr(bousslab.nonlinear, "_BLOWUP_FACTOR", 1e250)

        def run():
            solve(u0, PhysicalField.zero(g), T=2.0, dt=0.01,
                  spec=NonlinearitySpec("cubic", "cubic"), params=P)

        quiet, strict = (self.raised_under(action, run, BlowUpError)
                         for action in ("ignore", "error"))
        assert "non-finite values" in str(strict)
        assert strict.time == quiet.time == 5 * 0.01

    def test_picard_names_the_first_overflowing_mesh_time(self):
        g = make_grid(1, 30.0, 64)
        u0, u1 = small_gaussian(g, amplitude=1e200), PhysicalField.zero(g)
        base = linear_trajectory(u0, u1, np.linspace(0.0, 1.0, 9), P)
        strict = self.raised_under(
            "error", lambda: picard_iterate(base, u0, u1, QUAD_SPEC, P), BlowUpError)
        assert "non-finite values" in str(strict) and strict.time == 0.0

    def test_reference_solve_names_the_non_finite_source(self):
        g = make_grid(1, 30.0, 64)
        strict = self.raised_under(
            "error", lambda: reference_solve(small_gaussian(g, amplitude=1e200),
                                             PhysicalField.zero(g), T=1.0,
                                             spec=QUAD_SPEC, params=P),
            ReferenceIntegrationError)
        assert str(strict) == ("reference integration failed: non-finite "
                               "source at t=0")
        assert isinstance(strict.__cause__, BlowUpError)


class TestTrajectory:
    def test_times_must_start_at_zero_and_increase(self):
        g = make_grid(1, 10.0, 16)
        z = np.zeros((3, 2) + g.half_shape, dtype=np.complex128)
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.5, 1.0]), grid=g, spectra=z[:2])
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0, 1.0]), grid=g, spectra=z)

    def test_length_mismatch_rejected(self):
        g = make_grid(1, 10.0, 16)
        z = np.zeros((1, 2) + g.half_shape, dtype=np.complex128)
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0]), grid=g, spectra=z)
