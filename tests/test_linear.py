"""Closed-form linear evolution: discrete fields, continuum radial norms and
the radial quadrature behind them.

Oracles: single-mode data reduce the PDE to the scalar mode ODE whose solution
at |xi| = 1 is elementary; radial-quadrature norms are checked against the
discrete box solution inside the pre-wrap-around window, against closed
forms at t = 0, and against the same integrals at 4 times the panels.
"""
from __future__ import annotations

import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bousslab.linear
from bousslab import (ModelParams, PhysicalField, QuadratureError, RadialData,
                      forward_transform, gaussian_radial_data, inverse_transform,
                      linear_norm_radial, linear_solution, linear_trajectory,
                      load_config, make_grid, profile_symbols, sobolev_norm, solve,
                      square_integrable_radial_data)
from bousslab.experiments import run_experiment
from bousslab.linear import (_GAUSS_ORDER, _KRONROD_ORDER, SPHERE_SURFACE, _gauss_kronrod,
                             _panel_sums, _radial_integral)
from bousslab.nonlinear import NonlinearitySpec
from bousslab.symbols import propagator

from conftest import l2_norm, random_smooth_field, total_energy

ROOT = Path(__file__).resolve().parents[1]

P = ModelParams(alpha=-1.0)


def cosine_data(grid, velocity: bool):
    zero = PhysicalField.zero(grid)
    mode = PhysicalField.from_function(grid, np.cos)
    return (zero, mode) if velocity else (mode, zero)


def state(u0: PhysicalField, u1: PhysicalField) -> np.ndarray:
    """Stacked half spectra ``(u0_hat, u1_hat)``."""
    return forward_transform(u0.grid, np.stack([u0.values, u1.values]))


class TestStatePair:
    """The stacked state pair ``(u_hat, ut_hat)`` the box solvers carry."""

    def test_grid_mismatch_rejected(self):
        a = PhysicalField.zero(make_grid(1, 1.0, 8))
        b = PhysicalField.zero(make_grid(1, 2.0, 8))
        with pytest.raises(ValueError, match="grid"):
            solve(a, b, T=1.0, dt=0.5, spec=NonlinearitySpec(), params=P)

    def test_negative_time_rejected(self):
        g = make_grid(1, 1.0, 8)
        with pytest.raises(ValueError):
            linear_solution(g, state(PhysicalField.zero(g), PhysicalField.zero(g)),
                            -1.0, P)


class TestLinearSolution:
    def test_time_zero_is_identity(self, rng):
        g = make_grid(1, 10.0, 64)
        u0 = random_smooth_field(g, rng)
        u1 = random_smooth_field(g, rng)
        y0 = state(u0, u1)
        out = linear_solution(g, y0, 0.0, P)
        assert np.array_equal(out, y0)
        u, ut = inverse_transform(g, out)
        assert np.allclose(u, u0.values, atol=1e-14)
        assert np.allclose(ut, u1.values, atol=1e-14)

    def test_single_mode_velocity_data(self):
        g = make_grid(1, 2.0 * math.pi, 64)
        u0, u1 = cosine_data(g, velocity=True)
        u, ut = inverse_transform(g, linear_solution(g, state(u0, u1), 1.0, P))
        expect_u = math.exp(-1.0) * math.sin(1.0) * u1.values
        expect_ut = math.exp(-1.0) * (math.cos(1.0) - math.sin(1.0)) * u1.values
        assert np.max(np.abs(u - expect_u)) <= 1e-10
        assert np.max(np.abs(ut - expect_ut)) <= 1e-10

    def test_single_mode_displacement_data(self):
        g = make_grid(1, 2.0 * math.pi, 64)
        u0, u1 = cosine_data(g, velocity=False)
        u, _ = inverse_transform(g, linear_solution(g, state(u0, u1), 1.0, P))
        expect_u = math.exp(-1.0) * (math.cos(1.0) + math.sin(1.0)) * u0.values
        assert np.max(np.abs(u - expect_u)) <= 1e-10

    def test_grid_mismatch_rejected(self):
        u0 = PhysicalField.zero(make_grid(1, 1.0, 8))
        u1 = PhysicalField.zero(make_grid(1, 1.0, 16))
        with pytest.raises(ValueError, match="grid"):
            linear_trajectory(u0, u1, [0.0, 1.0], P)

    def test_scaling_linearity(self, rng):
        g = make_grid(1, 10.0, 64)
        y0 = state(random_smooth_field(g, rng), random_smooth_field(g, rng))
        base = linear_solution(g, y0, 2.0, P)
        scaled = linear_solution(g, 3.0 * y0, 2.0, P)
        assert np.allclose(scaled, 3.0 * base, rtol=1e-13, atol=1e-300)

    def test_semigroup_on_state(self, rng):
        g = make_grid(1, 10.0, 64)
        y0 = state(random_smooth_field(g, rng), random_smooth_field(g, rng))
        direct = linear_solution(g, y0, 2.0, P)
        relay = linear_solution(g, linear_solution(g, y0, 0.7, P), 1.3, P)
        u_direct = inverse_transform(g, direct[0])
        scale = max(np.max(np.abs(u_direct)), 1e-30)
        assert np.max(np.abs(inverse_transform(g, relay[0]) - u_direct)) <= 1e-9 * scale

    def test_energy_non_increasing(self, rng):
        g = make_grid(1, 12.0, 64)
        for _ in range(20):
            y0 = state(random_smooth_field(g, rng), random_smooth_field(g, rng))
            e = total_energy(g, linear_solution(g, y0, np.linspace(0.0, 4.0, 9), P), P)
            assert np.all(np.diff(e) <= 1e-10 * e[0])

    def test_zero_state_energy(self):
        g = make_grid(1, 12.0, 32)
        z = state(PhysicalField.zero(g), PhysicalField.zero(g))
        assert total_energy(g, z, P) == 0.0


def profile_evolution(u0: PhysicalField, u1: PhysicalField, t: float) -> np.ndarray:
    """Leading-order asymptotic displacement (damped sinc/cosine kernels)."""
    g = u0.grid
    g0, h0 = profile_symbols(g.xi2_half, t, P)
    y0 = state(u0, u1)
    return inverse_transform(g, g0 * y0[1] + h0 * y0[0])


class TestProfileSolution:
    def test_time_zero_is_displacement(self, rng):
        g = make_grid(1, 10.0, 64)
        u0 = random_smooth_field(g, rng)
        u1 = random_smooth_field(g, rng)
        assert np.allclose(profile_evolution(u0, u1, 0.0), u0.values, atol=1e-14)

    def test_single_mode_velocity_data(self):
        g = make_grid(1, 2.0 * math.pi, 64)
        u0, u1 = cosine_data(g, velocity=True)
        expect = math.exp(-0.5) * math.sin(1.0) * u1.values
        assert np.max(np.abs(profile_evolution(u0, u1, 1.0) - expect)) <= 1e-10

    def test_profile_tracks_linear_solution(self):
        # the gap norm decays faster than the solution norm
        data = gaussian_radial_data(n=1)
        t_lo, t_hi = 1e2, 1e4
        lin_lo = linear_norm_radial(data, t_lo, [("linear", 0)], 1, P)[0]
        lin_hi = linear_norm_radial(data, t_hi, [("linear", 0)], 1, P)[0]
        gap_lo = linear_norm_radial(data, t_lo, [("gap", 0)], 1, P)[0]
        gap_hi = linear_norm_radial(data, t_hi, [("gap", 0)], 1, P)[0]
        lin_rate = math.log(lin_hi / lin_lo)
        gap_rate = math.log(gap_hi / gap_lo)
        assert gap_rate < lin_rate  # strictly faster decay


class TestRadialNorms:
    def test_displacement_identity_at_time_zero(self):
        profile = lambda r: np.exp(-(r**2))
        data = RadialData(u0_hat=profile, u1_hat=lambda r: np.zeros_like(r))
        val = linear_norm_radial(data, 0.0, [("linear", 0)], 1, P)[0]
        # c_1 int_0^inf e^(-2 r^2) dr = 2 sqrt(pi / 8)
        assert val**2 == pytest.approx(2.0 * math.sqrt(math.pi / 8.0), rel=1e-9)

    def test_gap_vanishes_at_time_zero(self):
        data = gaussian_radial_data(n=1, velocity_amplitude=0.7)
        assert linear_norm_radial(data, 0.0, [("gap", 0)], 1, P)[0] \
            == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("which", ("moonshine", "profile"))
    def test_unknown_which_rejected(self, which):
        # the profile norm alone has no caller: the gap norm is the profile's use
        data = gaussian_radial_data(n=1)
        with pytest.raises(ValueError, match=r"one of \('linear', 'gap'\), got '"
                           + which):
            linear_norm_radial(data, 1.0, [(which, 0)], 1, P)

    def test_square_integrable_data_has_finite_norms(self):
        data = square_integrable_radial_data(n=1, eps=0.2)
        for k in (0, 1):
            v = linear_norm_radial(data, 10.0, [("linear", k)], 1, P)[0]
            assert np.isfinite(v) and v > 0.0

    def test_radial_data_validation(self):
        with pytest.raises(ValueError, match="cutoff hint"):
            RadialData(u0_hat=lambda r: r, u1_hat=lambda r: r, cutoff_hint=0.0)

    def test_discrete_box_agrees_inside_window(self):
        # width-1 Gaussian: transform profile e^(-r^2/2); box large enough
        # that no wrap-around reaches the data before t = (L/2 - R0)/1.1
        g = make_grid(1, 120.0, 512)
        u0 = PhysicalField.from_function(g, lambda x: np.exp(-x**2 / 2.0))
        y0 = state(u0, PhysicalField.zero(g))
        data = gaussian_radial_data(n=1)
        for t in (0.0, 5.0, 20.0, 40.0):
            box = sobolev_norm(g, linear_solution(g, y0, t, P)[0])
            cont = linear_norm_radial(data, t, [("linear", 0)], 1, P)[0]
            assert box == pytest.approx(cont, rel=1e-3)


class TestSquareIntegrableData:
    """The profile r^(-(n-eps)/2) on r <= 1, for the whole range 0 < eps < 1."""

    @pytest.mark.parametrize("n", (1, 2, 3))
    @pytest.mark.parametrize("eps", (0.05, 0.1, 0.2, 0.3, 0.45, 0.5, 0.7))
    def test_closed_form_at_time_zero(self, eps, n):
        # c_n int_0^1 r^(n-1) r^(eps-n) dr = c_n / eps
        data = square_integrable_radial_data(n=n, eps=eps)
        assert data.substitution_power == 1.0 / eps
        val = linear_norm_radial(data, 0.0, [("linear", 0)], n, P)[0]
        assert val == pytest.approx(math.sqrt(SPHERE_SURFACE[n] / eps), rel=1e-12)

    @pytest.mark.parametrize("n", (1, 3))
    @pytest.mark.parametrize("t", (0.5, 5.0))
    @pytest.mark.parametrize("eps", (0.3, 0.45, 0.7))
    def test_fractional_inverse_eps_matches_weighted_quadrature(self, eps, t, n):
        # 1/eps is not an integer here; the reference integrates the same
        # c_n int_0^1 r^(eps - 1 + 2k) cosine(r, t)^2 dr by QUADPACK's
        # algebraic-weight rule, which takes the endpoint power exactly
        integrate = pytest.importorskip("scipy.integrate")

        def cosine2(r: float) -> float:
            return float(propagator(np.asarray(r * r), t, P).cosine) ** 2

        data = square_integrable_radial_data(n=n, eps=eps)
        got = linear_norm_radial(data, t, [("linear", 0), ("linear", 1)], n, P)
        for k, val in enumerate(got):
            ref, _ = integrate.quad(cosine2, 0.0, 1.0, weight="alg",
                                    wvar=(eps - 1.0 + 2 * k, 0.0),
                                    epsabs=0.0, epsrel=1e-13, limit=200)
            assert val == pytest.approx(math.sqrt(SPHERE_SURFACE[n] * ref), rel=1e-9)

    def test_small_eps_converges_at_late_time(self):
        data = square_integrable_radial_data(n=1, eps=0.1)
        for k in (0, 1):
            v = linear_norm_radial(data, 1e4, [("linear", k)], 1, P)[0]
            assert math.isfinite(v) and v > 0.0

    @pytest.mark.parametrize("eps", (0.01, 0.015, 0.016, 0.2))
    def test_small_eps_closed_forms_at_time_zero(self, eps):
        # r = s^(1/eps) underflows at the first nodes of a fine panel sum,
        # where r^(eps-1) alone overflows: c_1 int_0^1 A^2 r^(eps-1+2k) dr is
        # 2 A^2 / eps at k = 0 and 2 A^2 / (2 + eps) at k = 1
        a = 1.5
        data = square_integrable_radial_data(n=1, eps=eps, amplitude=a)
        got = linear_norm_radial(data, 0.0, [("linear", 0), ("linear", 1)], 1, P)
        assert got[0] == pytest.approx(math.sqrt(2.0 * a * a / eps), rel=1e-12)
        assert got[1] == pytest.approx(math.sqrt(2.0 * a * a / (2.0 + eps)), rel=1e-12)
        for t in (1e2, 1e4):
            late = linear_norm_radial(data, t, [("linear", 0), ("linear", 1)], 1, P)
            assert all(math.isfinite(v) and v > 0.0 for v in late)

    @pytest.mark.parametrize("eps", (0.0, 1.0, 1.5))
    def test_eps_outside_unit_interval_rejected(self, eps):
        with pytest.raises(ValueError, match="0 < eps < 1"):
            square_integrable_radial_data(3, eps)

    @pytest.mark.parametrize("q", (0, 0.5, -2.0, math.nan, math.inf, True, "2", None))
    def test_substitution_power_validated(self, q):
        with pytest.raises(ValueError, match="substitution power"):
            RadialData(u0_hat=np.ones_like, u1_hat=np.zeros_like,
                       substitution_power=q)

    @pytest.mark.parametrize("q", (1, 1.0, 10 / 3, 7, np.float64(2.5)))
    def test_real_substitution_power_accepted(self, q):
        data = RadialData(u0_hat=np.ones_like, u1_hat=np.zeros_like, substitution_power=q)
        assert data.substitution_power == q

    @pytest.mark.parametrize("p", (math.nan, math.inf, True, "-0.4", None))
    def test_power_validated(self, p):
        with pytest.raises(ValueError, match="power must be a finite real"):
            RadialData(u0_hat=np.ones_like, u1_hat=np.zeros_like, power=p)


def reference_norms(data, t, components, n, params, cutoff, density):
    """The norms of :func:`linear_norm_radial` integrated from ``[0, cutoff]``
    on, with ``density`` times the panel count that the oscillation sets
    there.  Its integrand forms the weight, the data's power and the
    Jacobian of ``r = s^q`` as three separate factors.
    """
    q, p = data.substitution_power, data.power

    def integrand(s, live):
        r = s**q
        xi2 = r * r
        sym = propagator(xi2, t, params)
        g0, h0 = profile_symbols(xi2, t, params)
        u0, u1 = data.u0_hat(r), data.u1_hat(r)
        kernels = {"linear": sym.sine * u1 + sym.cosine * u0,
                   "gap": (sym.sine - g0) * u1 + (sym.cosine - h0) * u0}
        jacobian, data_power = q * s ** (q - 1), r ** (2 * p)
        return np.stack([jacobian * data_power * r ** (2 * k + n - 1) * kernels[w] ** 2
                         for w, k in (components[i] for i in live)])

    panels0 = int(3.0 * cutoff * (t + 1.0) / (2.0 * math.pi)) + 8
    values = _radial_integral(integrand, len(components), cutoff, density * panels0, q)
    return np.sqrt(SPHERE_SURFACE[n] * values)


def wide_domain_norms(data, t, components, n, params):
    """Reference radial norms over ``r^2 <= 800 / (|alpha| t)``, where the
    squared kernels' envelope has fallen to ``e^-800``: the same integrals as
    :func:`linear_norm_radial` on a domain 3.5 times wider.

    The quadrature is handed twice the panel count that the oscillation
    sets, so the body's first K25 sum is on ``p`` panels: the reference
    keeps its own density and does not follow the one of the code under
    test (``p // 2``).
    """
    cutoff = min(data.cutoff_hint, math.sqrt(800.0 / (abs(params.alpha) * t)))
    return reference_norms(data, t, components, n, params, cutoff, 2)


class TestRadialDomain:
    """The late-time domain ``r^2 <= 64 / (|alpha| t)`` of the radial norms."""

    COMPONENTS = [(w, k) for w in ("linear", "gap") for k in (0, 1, 2)]

    def norms_and_bodies(self, monkeypatch, data, t, n, params):
        """The norms and the number of body integrals they took."""
        starts = []
        real = bousslab.linear._refined_integral

        def recording(f, live, a, *args):
            starts.append(a)
            return real(f, live, a, *args)

        monkeypatch.setattr(bousslab.linear, "_refined_integral", recording)
        got = linear_norm_radial(data, t, self.COMPONENTS, n, params)
        return np.asarray(got), starts.count(0.0)

    @pytest.mark.parametrize("t", (50.0, 1e2, 1e3, 1e4))
    @pytest.mark.parametrize("kind", ("gaussian", "radial_L2"))
    @pytest.mark.parametrize("alpha", (-1.0, -3.0))
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_agrees_with_wide_domain(self, n, alpha, kind, t, monkeypatch):
        data = (gaussian_radial_data(n=n) if kind == "gaussian"
                else square_integrable_radial_data(n=n, eps=0.2))
        params = ModelParams(alpha=alpha)
        got, bodies = self.norms_and_bodies(monkeypatch, data, t, n, params)
        # one body integral: the tail gate passed at the first cutoff, so the
        # domain is wide enough without the tail check's cutoff doubling
        assert bodies == 1
        ref = wide_domain_norms(data, t, self.COMPONENTS, n, params)
        assert np.all(ref > 0.0)
        assert np.max(np.abs(got - ref) / ref) <= 1e-12

    @pytest.mark.parametrize("t", (50.0, 70.0, 1e2))
    @pytest.mark.parametrize("n", (1, 2))
    def test_every_cutoff_doubling_at_alpha_minus_ten(self, n, t, monkeypatch):
        # no shipped config doubles a cutoff; here the slow real root (about
        # -0.125 at r = 0.3) outlives the e^-64 envelope, and the tail check
        # takes all three doublings: four body integrals
        data, params = gaussian_radial_data(n=n), ModelParams(alpha=-10.0)
        got, bodies = self.norms_and_bodies(monkeypatch, data, t, n, params)
        assert bodies == 4
        # against r <= 6 with no late-time cutoff, at 4 times the panels
        ref = reference_norms(data, t, self.COMPONENTS, n, params, 6.0, 4)
        assert np.all(ref > 0.0)
        assert np.max(np.abs(got - ref) / ref) <= 1e-12

    def test_late_time_node_count(self, monkeypatch):
        # the e^-800 domain used 73 332 nodes here; the e^-64 one uses 7 215
        nodes = []
        real = bousslab.linear._panel_sums

        def counting(f, live, segments):
            nodes.extend(panels * order for _, _, panels, order in segments)
            return real(f, live, segments)

        monkeypatch.setattr(bousslab.linear, "_panel_sums", counting)
        linear_norm_radial(gaussian_radial_data(n=1), 1e4, [("linear", 0)], 1, P)
        assert 0 < sum(nodes) <= 30_000

    @pytest.mark.parametrize("t", (math.nan, math.inf, -math.inf, -1.0))
    def test_non_finite_or_negative_time_rejected(self, t):
        data = gaussian_radial_data(n=1)
        with pytest.raises(ValueError, match="time must be finite and nonnegative"):
            linear_norm_radial(data, t, [("linear", 0)], 1, P)


def radial_norm(profile, k, n, cutoff, **kw):
    """The continuum norm ``sqrt(c_n int_0^inf r^(2k+n-1) |P(r)|^2 dr)`` of a
    radial spectral profile ``P``: the linear evolution at t = 0 of the
    displacement ``P`` (the kernels are exactly 1 and 0 there).
    """
    data = RadialData(u0_hat=profile, u1_hat=np.zeros_like, cutoff_hint=cutoff, **kw)
    return linear_norm_radial(data, 0.0, [("linear", k)], n, ModelParams())[0]


class TestRadialQuadrature:
    """The radial integrator behind :func:`linear_norm_radial`."""

    def test_gaussian_profile_closed_form(self):
        # c_1 * int e^(-2 r^2) dr over (0, inf) = 2 sqrt(pi/8); norm is its root
        val = radial_norm(lambda r: np.exp(-(r**2)), k=0, n=1, cutoff=8.0)
        assert val**2 == pytest.approx(2.0 * math.sqrt(math.pi / 8.0), rel=1e-9)

    def test_first_derivative_ratio_is_half(self):
        k0 = radial_norm(lambda r: np.exp(-(r**2)), k=0, n=1, cutoff=8.0)
        k1 = radial_norm(lambda r: np.exp(-(r**2)), k=1, n=1, cutoff=8.0)
        assert k1 / k0 == pytest.approx(0.5, rel=1e-9)

    def test_two_dimensional_gaussian_profile(self):
        # c_2 * int r e^(-2 r^2) dr = 2 pi / 4
        val = radial_norm(lambda r: np.exp(-(r**2)), k=0, n=2, cutoff=8.0)
        assert val == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-9)

    def test_zero_profile(self):
        assert radial_norm(lambda r: np.zeros_like(r), k=0, n=1, cutoff=4.0) == 0.0

    def test_non_finite_profile_rejected(self):
        with pytest.raises(QuadratureError,
                           match="^radial quadrature did not converge: non-finite"):
            radial_norm(lambda r: np.where(r > 1.0, np.nan, 1.0), k=0, n=1,
                        cutoff=4.0)

    def test_slowly_decaying_profile_fails_tail_check(self):
        with pytest.raises(QuadratureError, match="tail"):
            radial_norm(lambda r: 1.0 / (1.0 + r), k=0, n=1, cutoff=2.0)

    def test_agrees_with_discrete_norm_for_box_gaussian(self):
        g = make_grid(1, 80.0, 512)
        f = PhysicalField.from_function(g, lambda x: np.exp(-(x**2) / 2.0))
        # unitary transform of e^(-x^2/2) is e^(-xi^2/2)
        cont = radial_norm(lambda r: np.exp(-(r**2) / 2.0), k=0, n=1, cutoff=10.0)
        assert l2_norm(f) == pytest.approx(cont, rel=1e-4)

    def test_invalid_arguments_rejected(self):
        profile = lambda r: np.exp(-(r**2))
        with pytest.raises(ValueError):
            radial_norm(profile, k=0, n=5, cutoff=4.0)
        with pytest.raises(ValueError):
            radial_norm(profile, k=-1, n=1, cutoff=4.0)
        with pytest.raises(ValueError):
            radial_norm(profile, k=0, n=1, cutoff=-4.0)

    def test_non_converging_late_time_integrand_stops_at_node_limit(self):
        # r^(-0.9) at r = 0 without a substitution: each panel doubling
        # shrinks the quadrature error only by 2^-0.1, so refinement never
        # meets rtol.  At t = 1e4 a 2^20-node kernel evaluation peaks near
        # 122 MiB (real kernels, no derivative arrays); the next doubling
        # would double that, and the twelve the refinement allows would need
        # ~8 GiB
        data = RadialData(u0_hat=lambda r: r ** -0.45, u1_hat=np.zeros_like)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(QuadratureError, match="nodes"):
                linear_norm_radial(data, 1e4, [("linear", 0)], 1, ModelParams())
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 160 * 2**20
        assert elapsed < 30.0


def four_rows(r, live):
    """The ``live`` rows of four distinct integrands at the nodes ``r``."""
    table = (np.exp(-r * r), np.cos(3.0 * r) / (1.0 + r), r**3 * np.exp(-r), np.sqrt(r))
    return np.stack([table[i] for i in live])


def one_row_panel_sum(f, row, a, b, panels, order=_GAUSS_ORDER):
    """The composite sum of one row over ``[a, b]`` as a scalar integrand
    gives it: the weighted node values in one 1-D sum.  ``order`` picks the
    rule, G12 from ``leggauss`` or K25 from the table."""
    if order == _GAUSS_ORDER:
        x, w = np.polynomial.legendre.leggauss(order)
    else:
        x, _, w = _gauss_kronrod()
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    vals = f((mid + half * x).ravel(), np.array([row]))[0]
    return np.sum(vals * (half * w).ravel())


def singular_then(tail_value):
    """``r^-0.9`` on ``[0, 2]``, whose panel doubling never meets rtol, and
    ``tail_value`` beyond."""
    return lambda r, live: np.where(r <= 2.0, r**-0.9, tail_value)[None, :]


def smooth_then(tail_value):
    """``exp(-r^2)`` on ``[0, 2]``, converged at the first doubling, and
    ``tail_value`` beyond."""
    return lambda r, live: np.where(r <= 2.0, np.exp(-r * r), tail_value)[None, :]


class TestPanelSums:
    """Several panel sums from one integrand call (``_panel_sums``)."""

    SEGMENTS = [(0.0, 1.0, 8, _GAUSS_ORDER), (0.0, 1.0, 8, _KRONROD_ORDER),
                (1.0, 2.0, 8, _GAUSS_ORDER), (1.0, 2.0, 16, _GAUSS_ORDER),
                (0.5, 3.0, 5, _KRONROD_ORDER)]

    @pytest.mark.parametrize("live", ([0, 1, 2, 3], [2, 0], [3]))
    def test_batched_sums_are_bitwise_the_one_segment_sums(self, live):
        # a K25 segment gives its K25 sums and the G12 sums on its embedded
        # Gauss nodes, each bitwise the sum of a scalar integrand
        live = np.array(live)
        batched = list(_panel_sums(four_rows, live, self.SEGMENTS))
        assert len(batched) == len(self.SEGMENTS)
        for segment, sums in zip(self.SEGMENTS, batched, strict=True):
            (alone,) = _panel_sums(four_rows, live, [segment])
            a, b, panels, order = segment
            expected = [one_row_panel_sum(four_rows, i, a, b, panels) for i in live]
            if order == _KRONROD_ORDER:
                expected = [[one_row_panel_sum(four_rows, i, *segment) for i in live],
                            expected]
            assert np.array_equal(sums, alone)
            assert np.array_equal(sums, expected)

    def test_calls_are_packed_below_the_node_limit(self, monkeypatch):
        # 96 + 200 + 96 nodes share the first call; the last 192 would not fit
        segments = self.SEGMENTS[:4]
        expected = list(_panel_sums(four_rows, np.arange(4), segments))
        sizes = []

        def counted(r, live):
            sizes.append(r.size)
            return four_rows(r, live)

        monkeypatch.setattr(bousslab.linear, "_MAX_NODES", 400)
        got = list(_panel_sums(counted, np.arange(4), segments))
        assert sizes == [392, 192]
        assert all(np.array_equal(g, e) for g, e in zip(got, expected, strict=True))

    @pytest.mark.parametrize("f, panels0, limit, sizes, message", [
        # the first call held 4 K25 body panels and the 8 tail panels, the
        # body's doublings made 200 and 400 nodes and stopped at the next
        # one; the tail's NaN was never reached
        (singular_then(np.nan), 8, 400, [196, 200, 400],
         "a panel sum on [0, 2] would need 800 nodes (limit 400)"),
        # the body converged at its first check, then the tail's values
        (smooth_then(np.nan), 8, 400, [196],
         "non-finite integrand values on [2, 4]"),
        # 2 K25 panels on the body, then the tail's 8 (96 nodes) in a call
        # of their own; a tail above its floor then needs its 16 panels
        (smooth_then(1e-3), 4, 120, [50, 96],
         "a panel sum on [2, 4] would need 192 nodes (limit 120)"),
    ], ids=["body_limit_before_tail_nan", "tail_nan", "tail_limit"])
    def test_errors_name_the_interval_of_one_call_per_sum(
            self, monkeypatch, f, panels0, limit, sizes, message):
        seen = []

        def counted(r, live):
            seen.append(r.size)
            return f(r, live)

        monkeypatch.setattr(bousslab.linear, "_MAX_NODES", limit)
        monkeypatch.setattr(bousslab.linear, "_CUTOFF_DOUBLINGS", 0)
        with pytest.raises(QuadratureError) as err:
            _radial_integral(counted, 1, 2.0, panels0, 1)
        assert str(err.value) == "radial quadrature did not converge: " + message
        assert seen == sizes

    def test_one_kernel_evaluation_when_nothing_refines(self, monkeypatch):
        # t = 1e3, p = 128: 64 K25 body panels, which converge at the first
        # check, and 64 G12 tail panels, whose sum is below its floor
        calls = []
        real = bousslab.linear.propagator

        def counted(xi2, t, params):
            calls.append(xi2.size)
            return real(xi2, t, params)

        monkeypatch.setattr(bousslab.linear, "propagator", counted)
        linear_norm_radial(gaussian_radial_data(n=1), 1e3, [("linear", 0)], 1, ModelParams())
        assert calls == [25 * 64 + 12 * 64]


def four_times_the_panels(f, count, cutoff, panels0, q):
    """``_radial_integral`` at 4 times the panel count ``panels0``: the
    reference a norm's quadrature error is measured against."""
    return _radial_integral(f, count, cutoff, 4 * panels0, q)


def assert_relative(got, ref, rtol):
    """Each of ``got`` within ``rtol |ref|`` of ``ref`` (exact where it is 0)."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.all(np.abs(got - ref) <= rtol * np.abs(ref)), np.max(
        np.abs(got - ref) / np.where(ref == 0.0, 1.0, np.abs(ref)))


def tail_rows(r, live):
    """``exp(-r^2)`` on ``[0, 2]`` and beyond it: a constant 2e-14, whose
    tail is below its floor but moves the sum (row 0), a constant 2.5e-13,
    whose tail lies between its floor and the gate (row 1), and that
    constant plus a fast ripple, which takes several panel doublings
    (row 2); row 3 is ``exp(-r^2)`` throughout."""
    body = np.exp(-r * r)
    out = (np.where(r <= 2.0, body, 2e-14), np.where(r <= 2.0, body, 2.5e-13),
           np.where(r <= 2.0, body, 2.5e-13 + 3e-11 * np.cos(600.0 * r)), body)
    return np.stack([out[i] for i in live])


class TestTailCheck:
    """The tail check on ``[c, 2c]``: a coarse tail sum below ``1e-13 |body|``
    is the tail; only the other rows take the finer sum and refine."""

    def run_counted(self, f, count, cutoff, panels0, q=1):
        """The integrals and the ``(nodes, live)`` of each integrand call;
        the integrals agree to 1e-11 with those at 4 times the panels."""
        calls = []

        def counted(r, live):
            calls.append((r.size, list(live)))
            return f(r, live)

        args = (count, cutoff, panels0, q)
        got = _radial_integral(counted, *args)
        assert_relative(got, four_times_the_panels(f, *args), 1e-11)
        return got, calls

    def test_tail_above_its_floor_takes_the_finer_sum(self, monkeypatch):
        monkeypatch.setattr(bousslab.linear, "_CUTOFF_DOUBLINGS", 0)
        got, calls = self.run_counted(lambda r, live: tail_rows(r, [1]), 1, 2.0, 8)
        # 4 K25 body panels and 8 tail panels, then the tail's 16
        assert calls == [(25 * 4 + 12 * 8, [0]), (12 * 16, [0])]
        body = _radial_integral(lambda r, live: tail_rows(r, [0]), 1, 2.0, 8, 1)
        assert got[0] == pytest.approx(body[0] + 5e-13, rel=1e-15)

    def test_mixed_rows_refine_only_where_the_tail_is_above_its_floor(self, monkeypatch):
        monkeypatch.setattr(bousslab.linear, "_CUTOFF_DOUBLINGS", 2)
        got, calls = self.run_counted(tail_rows, 4, 2.0, 8)
        # at cutoff 2 row 0 takes its coarse tail, rows 1-3 the 16-panel
        # one and row 2 refines its ripple to 64 panels; row 3's tail, about
        # e^-4 / 4, fails the gate, and at cutoff 8 its coarse tail is the tail
        assert calls == [(196, [0, 1, 2, 3]), (192, [1, 2, 3]), (384, [2]), (768, [2]),
                         (196, [3]), (192, [3]), (196, [3])]
        monkeypatch.setattr(bousslab.linear, "_CUTOFF_DOUBLINGS", 0)
        body = _radial_integral(lambda r, live: tail_rows(r, [0]) * (r <= 2.0), 1, 2.0, 8, 1)
        assert body[0] < got[0] < got[2] < got[1]

    def test_zero_profile_is_zero_from_one_call(self):
        got, calls = self.run_counted(lambda r, live: np.zeros((len(live), r.size)),
                                      2, 3.0, 20)
        assert np.array_equal(got, [0.0, 0.0])
        assert calls == [(25 * 10 + 12 * 10, [0, 1])]
        data = RadialData(u0_hat=np.zeros_like, u1_hat=np.zeros_like)
        assert linear_norm_radial(data, 1e3, [("linear", 0), ("gap", 1)], 2,
                                  ModelParams()) == [0.0, 0.0]

    def test_slow_decay_still_fails_the_tail_check(self):
        def f(r, live):
            return np.stack([1.0 / (1.0 + r)] * len(live))

        for panels0 in (8, 32):
            with pytest.raises(QuadratureError) as err:
                _radial_integral(f, 1, 2.0, panels0, 1)
            assert str(err.value) == ("radial quadrature did not converge: tail check "
                                      "failed after 3 cutoff doublings (last cutoff 32)")

    def test_substituted_variable_agrees_with_four_times_the_panels(self, monkeypatch):
        # the rows in s = r^(1/5), the integrand carrying its Jacobian
        monkeypatch.setattr(bousslab.linear, "_CUTOFF_DOUBLINGS", 2)
        self.run_counted(lambda s, live: 5.0 * s**4 * tail_rows(s**5, live), 4, 2.0, 8, q=5)


RADIAL_CONFIGS = ("linear_rates_gaussian_1d", "linear_rates_gaussian_2d",
                  "linear_rates_radial_l2_1d", "profile_gap_1d")


class TestShippedRadialTails:
    """On the shipped radial data every body converges at its first check
    and every coarse tail is below its floor."""

    COMPONENTS = [(w, k) for w in ("linear", "gap") for k in (0, 1, 2)]

    @pytest.mark.parametrize("t", (0.0, 1e2, 1e3, 1e4))
    @pytest.mark.parametrize("data, n", [
        (gaussian_radial_data(n=1), 1), (gaussian_radial_data(n=2), 2),
        (square_integrable_radial_data(n=1, eps=0.2), 1)],
        ids=["gaussian_1d", "gaussian_2d", "radial_L2_1d"])
    def test_agrees_with_four_times_the_panels(self, data, n, t, monkeypatch):
        # the norms' worst quadrature error here is about 2e-13 (the gap
        # kernel); 1e-11 leaves 50 times that
        got = linear_norm_radial(data, t, self.COMPONENTS, n, ModelParams())
        monkeypatch.setattr(bousslab.linear, "_radial_integral", four_times_the_panels)
        assert_relative(got, linear_norm_radial(data, t, self.COMPONENTS, n, ModelParams()),
                        1e-11)

    def test_node_count_of_the_radial_configs(self, monkeypatch):
        sizes = []
        real = bousslab.linear._pack_sums

        def counting(f, live, pack):
            sizes.append(sum(panels * order for _, _, panels, order in pack))
            return real(f, live, pack)

        monkeypatch.setattr(bousslab.linear, "_pack_sums", counting)
        for name in RADIAL_CONFIGS:
            run_experiment(load_config(ROOT / "configs" / f"{name}.json"))
        # in as many calls, 1 065 024 nodes when the body's first sums were
        # G12 at p and 2 p panels, 607 104 at p // 2 and 2 (p // 2)
        assert (sum(sizes), len(sizes)) == (467_976, 160)

    def test_every_body_converges_at_its_first_check(self, monkeypatch):
        # the K25 body on p // 2 first panels rests on this margin: one
        # propagator call per cutoff, and a first |K25 - G12| 10 times under
        # _BODY_RTOL (6.2e-12 at most, radial_L2)
        calls, changes = [], []
        real_propagator = bousslab.linear.propagator
        real_refine = bousslab.linear._refined_integral

        def counted(xi2, t, params):
            calls.append(xi2.size)
            return real_propagator(xi2, t, params)

        def recording(f, live, a, b, panels, order, value, check, rtol, atol):
            if a == 0.0:
                assert order == _KRONROD_ORDER
                changes.append((np.abs(value - check), np.abs(value)))
            return real_refine(f, live, a, b, panels, order, value, check, rtol, atol)

        monkeypatch.setattr(bousslab.linear, "propagator", counted)
        monkeypatch.setattr(bousslab.linear, "_refined_integral", recording)
        for name in RADIAL_CONFIGS:
            run_experiment(load_config(ROOT / "configs" / f"{name}.json"))
        assert len(calls) == len(changes) == 160
        for change, value in changes:
            assert np.all(change <= 1e-10 * value)
