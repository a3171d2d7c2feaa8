"""Closed-form linear evolution: discrete fields and continuum radial norms.

Oracles: single-mode data reduce the PDE to the scalar mode ODE whose solution
at |xi| = 1 is elementary; radial-quadrature norms are checked against the
discrete box solution inside the pre-wrap-around window and against closed
forms at t = 0.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

import bousslab.spectral
from bousslab import (ModelParams, PhysicalField, RadialData, forward_transform,
                      gaussian_radial_data, inverse_transform, linear_norm_radial,
                      linear_solution, linear_trajectory, make_grid,
                      profile_symbols, sobolev_norm, solve,
                      square_integrable_radial_data)
from bousslab.nonlinear import NonlinearitySpec
from bousslab.spectral import SPHERE_SURFACE, _radial_integral
from bousslab.symbols import propagator

from conftest import random_smooth_field, total_energy

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


def wide_domain_norms(data, t, components, n, params):
    """Reference radial norms over ``r^2 <= 800 / (|alpha| t)``, where the
    squared kernels' envelope has fallen to ``e^-800``: the same integrals as
    :func:`linear_norm_radial` on a domain 3.5 times wider.

    The quadrature is handed twice the panel count that the oscillation
    sets, so the body's first sums are at ``p`` and ``2 p`` panels: the
    reference keeps its own density and does not follow the one of the
    code under test (``p // 2`` and ``2 (p // 2)``).  Its integrand forms
    the weight, the data's power and the Jacobian of ``r = s^q`` as three
    separate factors.
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

    cutoff = min(data.cutoff_hint, math.sqrt(800.0 / (abs(params.alpha) * t)))
    panels0 = int(3.0 * cutoff * (t + 1.0) / (2.0 * math.pi)) + 8
    values = _radial_integral(integrand, len(components), cutoff, 2 * panels0, q)
    return np.sqrt(SPHERE_SURFACE[n] * values)


class TestRadialDomain:
    """The late-time domain ``r^2 <= 64 / (|alpha| t)`` of the radial norms."""

    COMPONENTS = [(w, k) for w in ("linear", "gap") for k in (0, 1, 2)]

    @pytest.mark.parametrize("t", (50.0, 1e2, 1e3, 1e4))
    @pytest.mark.parametrize("kind", ("gaussian", "radial_L2"))
    @pytest.mark.parametrize("alpha", (-1.0, -3.0))
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_agrees_with_wide_domain(self, n, alpha, kind, t, monkeypatch):
        data = (gaussian_radial_data(n=n) if kind == "gaussian"
                else square_integrable_radial_data(n=n, eps=0.2))
        params = ModelParams(alpha=alpha)
        starts = []
        real = bousslab.spectral._refined_integral

        def recording(f, live, a, *args):
            starts.append(a)
            return real(f, live, a, *args)

        monkeypatch.setattr(bousslab.spectral, "_refined_integral", recording)
        got = linear_norm_radial(data, t, self.COMPONENTS, n, params)
        # one body integral: the tail gate passed at the first cutoff, so the
        # domain is wide enough without the tail check's cutoff doubling
        assert starts.count(0.0) == 1
        ref = wide_domain_norms(data, t, self.COMPONENTS, n, params)
        assert np.all(ref > 0.0)
        assert np.max(np.abs(np.asarray(got) - ref) / ref) <= 1e-12

    def test_late_time_node_count(self, monkeypatch):
        # the e^-800 domain used 73 332 nodes here; the e^-64 one uses 9 360
        nodes = []
        real = bousslab.spectral._panel_sums

        def counting(f, live, segments):
            nodes.extend(panels * bousslab.spectral._GAUSS_ORDER for _, _, panels in segments)
            return real(f, live, segments)

        monkeypatch.setattr(bousslab.spectral, "_panel_sums", counting)
        linear_norm_radial(gaussian_radial_data(n=1), 1e4, [("linear", 0)], 1, P)
        assert 0 < sum(nodes) <= 30_000

    @pytest.mark.parametrize("t", (math.nan, math.inf, -math.inf, -1.0))
    def test_non_finite_or_negative_time_rejected(self, t):
        data = gaussian_radial_data(n=1)
        with pytest.raises(ValueError, match="time must be finite and nonnegative"):
            linear_norm_radial(data, t, [("linear", 0)], 1, P)
