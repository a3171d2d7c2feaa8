"""Characteristic roots, solution kernels, profiles, and mode energy.

Oracles: the quadratic formula evaluated in exact arithmetic at hand-picked
points, closed-form kernel values at |xi| = 1, a five-point finite-difference
second derivative for the kernel ODE, and the displayed quadratic forms for
the energy bookkeeping.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bousslab import (ModelParams, characteristic_roots, damping_coefficient,
                      decay_envelope, mode_energy, phi, phi_divided_difference,
                      profile_symbols, propagator, restoring_coefficient)


class TestModelParams:
    def test_defaults(self):
        p = ModelParams()
        assert p.alpha == -1.0 and p.beta == 1.0

    @pytest.mark.parametrize("kw", [dict(alpha=-0.5), dict(alpha=0.0),
                                    dict(beta=0.0), dict(beta=-1.0)])
    def test_out_of_regime_parameters_rejected(self, kw):
        with pytest.raises(ValueError):
            ModelParams(**kw)

    def test_coefficients(self):
        p = ModelParams(alpha=-1.0)
        assert damping_coefficient(4.0, p) == pytest.approx(16.0 + 4.0)
        assert restoring_coefficient(4.0) == pytest.approx(4.0 + 16.0)


class TestRoots:
    def test_zero_frequency_double_root(self):
        r = characteristic_roots(0.0, ModelParams())
        assert r.lambda_plus == 0.0 and r.lambda_minus == 0.0

    def test_unit_frequency_closed_form(self):
        r = characteristic_roots(1.0, ModelParams(alpha=-1.0))
        assert r.lambda_plus == pytest.approx(-1.0 + 1.0j, abs=1e-14)
        assert r.lambda_minus == pytest.approx(-1.0 - 1.0j, abs=1e-14)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            characteristic_roots(-1.0, ModelParams())

    @settings(max_examples=50, deadline=None)
    @given(xi2=st.floats(1e-8, 100.0), alpha=st.floats(-5.0, -1.0))
    def test_root_identities_and_dissipativity(self, xi2, alpha):
        p = ModelParams(alpha=alpha)
        r = characteristic_roots(xi2, p)
        b = damping_coefficient(xi2, p)
        c = restoring_coefficient(xi2)
        assert abs(r.lambda_plus + r.lambda_minus + b) <= 1e-10 * max(1.0, abs(b))
        assert abs(r.lambda_plus * r.lambda_minus - c) <= 1e-10 * max(1.0, abs(c))
        for lam in (r.lambda_plus, r.lambda_minus):
            resid = lam * lam + b * lam + c
            assert abs(resid) <= 1e-10 * max(1.0, abs(lam) ** 2)
            assert lam.real <= 1e-12
        assert r.lambda_plus.imag >= 0.0

    def test_vieta_on_thousand_random_frequencies(self):
        rng = np.random.default_rng(7)
        xi2 = rng.uniform(1e-6, 100.0, size=1000)
        r = characteristic_roots(xi2, ModelParams())
        b = damping_coefficient(xi2, ModelParams())
        c = restoring_coefficient(xi2)
        assert np.all(np.abs(r.lambda_plus + r.lambda_minus + b)
                      <= 1e-10 * np.maximum(1.0, np.abs(b)))
        assert np.all(np.abs(r.lambda_plus * r.lambda_minus - c)
                      <= 1e-10 * np.maximum(1.0, np.abs(c)))


def both_branch_phi(k: int, z) -> np.ndarray:
    """Reference ``phi_k``: both branches on every element, then a select."""
    fact = np.array([math.factorial(i) for i in range(24)], dtype=np.float64)
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < 0.5
    zs = np.where(small, z, 0.0)
    series = np.zeros_like(z)
    for m in range(17, -1, -1):
        series = series * zs + 1.0 / fact[m + k]
    zb = np.where(small, 1.0, z)
    x, y = zb.real, zb.imag
    big = (np.expm1(x) + np.exp(x) * (-2.0 * np.sin(0.5 * y) ** 2
                                      + 1j * np.sin(y))) / zb
    for j in range(1, k):
        big = (big - 1.0 / fact[j]) / zb
    if k == 0:
        big = np.exp(zb)
    return np.where(small, series, big)


class TestPhi:
    @pytest.mark.parametrize("k", (0, 1, 2, 3))
    def test_bitwise_equal_to_both_branch_formula(self, k, rng):
        # series band, mixed, out of band, and the |z| = 1/2 switch itself
        n = 20_000
        angle = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        samples = [0.5 * rng.uniform(0.0, 1.0, n) * angle,
                   3.0 * rng.uniform(0.0, 1.0, n) * angle,
                   rng.uniform(0.5, 40.0, n) * angle,
                   np.array([0.0, 0.5, -0.5, 0.5j, -0.5j, 1e-300,
                             np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
                             0.3 + 0.4j, -0.3 - 0.4j])]
        for z in samples:
            assert np.array_equal(phi(k, z), both_branch_phi(k, z))
        for z in (0.0, 0.5, -0.5j, 1e-300, 2.0):  # 0-d inputs
            out = phi(k, z)
            assert out.shape == () and out == both_branch_phi(k, z)

    def test_base_cases(self):
        z = np.array([0.3 + 0.2j, -2.0 + 0.0j, 5.0 - 1.0j])
        assert np.allclose(phi(0, z), np.exp(z), rtol=1e-14)
        assert np.allclose(phi(1, z), np.expm1(z) / z, rtol=1e-13)
        assert np.allclose(phi(2, z), (np.exp(z) - 1.0 - z) / z**2, rtol=1e-12)

    def test_values_at_zero(self):
        assert phi(1, 0.0) == pytest.approx(1.0, rel=1e-15)
        assert phi(2, 0.0) == pytest.approx(0.5, rel=1e-15)
        assert phi(3, 0.0) == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_branch_continuity_at_switch(self):
        # the series/direct switch sits at |z| = 1/2
        for z in (0.499999, 0.500001, 0.499999j, 0.500001j):
            a = complex(phi(2, z))
            b = (np.exp(z) - 1.0 - z) / z**2
            assert abs(a - b) <= 1e-12 * abs(b)

    def test_divided_difference_matches_quotient_when_separated(self):
        a, b = 1.7 + 0.4j, -0.9 + 2.0j
        for k in (1, 2):
            dd = complex(phi_divided_difference(k, a, b))
            quot = (complex(phi(k, a)) - complex(phi(k, b))) / (a - b)
            assert abs(dd - quot) <= 1e-12 * abs(quot)

    def test_divided_difference_confluent_limit(self):
        # at a = b the divided difference is the derivative
        # phi_k'(z) = phi_{k-1}(z) - k phi_k(z)) / z ... checked numerically
        a = 1.3 + 0.7j
        dd = complex(phi_divided_difference(1, a, a))
        h = 1e-7
        numeric = (complex(phi(1, a + h)) - complex(phi(1, a - h))) / (2 * h)
        assert abs(dd - numeric) <= 1e-7 * abs(numeric)

    def test_divided_difference_symmetric(self):
        a, b = 0.3 + 0.1j, 0.22 - 0.4j
        assert complex(phi_divided_difference(2, a, b)) == pytest.approx(
            complex(phi_divided_difference(2, b, a)), rel=1e-13)


class TestPropagator:
    def test_initial_values_exact(self):
        xi2 = np.array([0.0, 1e-4, 1.0, 50.0, 1e4])
        sym = propagator(xi2, 0.0, ModelParams())
        assert np.all(sym.sine == 0.0)
        assert np.all(sym.cosine == 1.0)
        assert np.all(sym.sine_dt == 1.0)
        assert np.all(sym.cosine_dt == 0.0)

    def test_unit_frequency_closed_form(self):
        sym = propagator(1.0, 1.0, ModelParams(alpha=-1.0))
        assert float(sym.sine) == pytest.approx(
            math.exp(-1.0) * math.sin(1.0), rel=1e-12)
        assert float(sym.cosine) == pytest.approx(
            math.exp(-1.0) * (math.cos(1.0) + math.sin(1.0)), rel=1e-12)

    def test_zero_frequency_confluent_values(self):
        sym = propagator(0.0, 5.0, ModelParams())
        assert float(sym.sine) == pytest.approx(5.0, rel=1e-14)
        assert float(sym.cosine) == pytest.approx(1.0, rel=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            propagator(1.0, -0.1, ModelParams())

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            propagator(-1.0, 1.0, ModelParams())

    @pytest.mark.parametrize("force", [None, "series", "direct"])
    def test_time_column_equals_elementwise_evaluation(self, force):
        # a column of times broadcast against a 2-D |xi|^2 grid and the same
        # (time, frequency) pairs flattened to 1-D must give the same bits,
        # both root branches and t = 0 included
        xi = np.fft.fftfreq(32, d=20.0 / 32) * 2.0 * math.pi
        xi2 = xi[:, None] ** 2 + xi[None, :17] ** 2
        t = np.linspace(0.0, 3.0, 7).reshape(-1, 1, 1)
        p = ModelParams(alpha=-1.5)
        column = propagator(xi2, t, p, _force_branch=force)
        flat = [np.broadcast_to(a, (7,) + xi2.shape).ravel() for a in (xi2, t)]
        elementwise = propagator(*flat, p, _force_branch=force)
        assert (damping_coefficient(xi2, p) ** 2 > 4 * restoring_coefficient(xi2)).any()
        for f in ("sine", "cosine", "sine_dt", "cosine_dt"):
            assert np.array_equal(getattr(column, f).ravel(), getattr(elementwise, f))

    def test_displacement_kernel_identity(self, rng):
        # cosine kernel = d(sine)/dt + damping * sine, an algebraic identity
        xi2 = rng.uniform(1e-3, 30.0, size=200)
        t = rng.uniform(0.0, 3.0, size=200)
        p = ModelParams(alpha=-1.5)
        sym = propagator(xi2, t, p)
        b = damping_coefficient(xi2, p)
        lhs = sym.cosine
        rhs = sym.sine_dt + b * sym.sine
        assert np.all(np.abs(lhs - rhs) <= 1e-9 * np.maximum(1.0, np.abs(lhs)))

    def test_branch_agreement_in_switch_band(self):
        # the real-root pair is the only one with two branches: xi2 = 2 gives
        # delta = sqrt(12), just past confluence, so t in [0.1, 0.2] puts
        # delta t in the band around the switch at 1/2; likewise xi2 = 4
        p = ModelParams(alpha=-1.0)
        for xi2, tvals in ((2.0, np.linspace(0.1, 0.2, 8)),
                           (4.0, np.linspace(0.022, 0.039, 8))):
            s1 = propagator(xi2, tvals, p, _force_branch="series")
            s2 = propagator(xi2, tvals, p, _force_branch="direct")
            for f in ("sine", "cosine", "sine_dt", "cosine_dt"):
                a, b = getattr(s1, f), getattr(s2, f)
                assert np.all(np.abs(a - b) <= 1e-8 * np.maximum(1.0, np.abs(a)))

    def test_kernels_satisfy_mode_ode_by_finite_differences(self):
        # five-point second derivative; moderate frequencies keep the stencil
        # in its accuracy regime (adaptive h below)
        rng = np.random.default_rng(11)
        p = ModelParams(alpha=-1.0)
        for _ in range(50):
            xi2 = float(rng.uniform(0.01, 4.0))
            t = float(rng.uniform(0.1, 2.0))
            b = damping_coefficient(xi2, p)
            c = restoring_coefficient(xi2)
            lam_scale = max(1.0, abs(characteristic_roots(xi2, p).lambda_minus))
            h = 1e-2 / lam_scale
            ts = t + h * np.arange(-2.0, 3.0)
            for field in ("sine", "cosine"):
                vals = np.array([float(getattr(propagator(xi2, s, p), field))
                                 for s in ts])
                d1 = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
                d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3]
                      - vals[4]) / (12 * h**2)
                resid = d2 + b * d1 + c * vals[2]
                assert abs(resid) <= 1e-6 * (1.0 + abs(d2))

    def test_low_frequency_root_expansion(self):
        # lambda_pm = +-i |xi| + (alpha/2) |xi|^2 + O(|xi|^3)
        p = ModelParams(alpha=-1.0)
        xi = np.sqrt(np.array([1e-6, 1e-5, 1e-4]))
        r = characteristic_roots(xi**2, p)
        err = np.abs(r.lambda_plus - (1j * xi + 0.5 * p.alpha * xi**2))
        assert np.all(err <= 2.0 * xi**3)


class TestProfilesAndEnvelope:
    def test_zero_frequency_values(self):
        g0, h0 = profile_symbols(0.0, 7.0, ModelParams())
        assert float(g0) == pytest.approx(7.0, rel=1e-14)
        assert float(h0) == 1.0

    def test_unit_frequency_at_pi(self):
        g0, h0 = profile_symbols(1.0, math.pi, ModelParams(alpha=-2.0))
        assert abs(float(g0)) < 1e-15
        assert float(h0) == pytest.approx(-math.exp(-math.pi), rel=1e-12)

    def test_envelope_bounds(self, rng):
        xi2 = rng.uniform(0.0, 50.0, 100)
        t = rng.uniform(0.0, 20.0, 100)
        g0, h0 = profile_symbols(xi2, t, ModelParams(alpha=-1.0))
        assert np.all(np.abs(g0) <= t + 1e-12)
        assert np.all(np.abs(h0) <= 1.0 + 1e-12)

    def test_decay_envelope_values(self):
        assert decay_envelope(0.0) == 0.0
        assert decay_envelope(1.0) == pytest.approx(0.5)
        vals = decay_envelope(np.logspace(-2, 6, 30))
        assert np.all(np.diff(vals) > 0.0) and vals[-1] < 1.0
        assert decay_envelope(1e6) == pytest.approx(1.0, abs=1e-5)


class TestModeEnergy:
    def test_frozen_example(self):
        e = mode_energy(1.0, 1.0, 0.0, ModelParams(alpha=-1.0))
        assert float(e.energy) == pytest.approx(6.0, rel=1e-14)
        assert float(e.dissipation) == pytest.approx(4.0, rel=1e-14)
        assert float(e.reduced) == pytest.approx(2.0, rel=1e-14)

    def test_zero_state(self):
        e = mode_energy(3.0, 0.0, 0.0, ModelParams())
        assert float(e.energy) == 0.0
        assert float(e.dissipation) == 0.0
        assert float(e.reduced) == 0.0

    def test_energy_controls_reduced_energy(self, rng):
        # energy >= c (1 + xi2) reduced with a positive fitted c
        xi2 = rng.uniform(0.0, 30.0, 500)
        u = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        ut = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        e = mode_energy(xi2, u, ut, ModelParams(alpha=-1.0))
        ratio = e.energy / np.maximum((1.0 + xi2) * e.reduced, 1e-300)
        assert np.all(e.energy >= 0.0)
        assert ratio.min() > 0.05

    def test_balance_along_fundamental_solutions(self, rng):
        # d(energy)/dt = -dissipation, derivatives expanded analytically
        # through the kernel derivative identities
        p = ModelParams(alpha=-1.0)
        for _ in range(100):
            xi2 = float(rng.uniform(1e-3, 20.0))
            t = float(rng.uniform(0.0, 3.0))
            b = damping_coefficient(xi2, p)
            c = restoring_coefficient(xi2)
            sym = propagator(xi2, t, p)
            for v, vdot in ((sym.cosine, sym.cosine_dt), (sym.sine, sym.sine_dt)):
                v = complex(v)
                vdot = complex(vdot)
                vddot = -b * vdot - c * v
                e = mode_energy(xi2, v, vdot, p)
                s = xi2
                dE = (2.0 * (1.0 + s) * (vddot * np.conj(vdot)).real
                      + 2.0 * ((1.0 + s) * c + s * b) * (vdot * np.conj(v)).real
                      + 2.0 * s * ((vddot * np.conj(v)).real + abs(vdot) ** 2))
                resid = abs(dE + float(e.dissipation))
                scale = max(abs(dE), float(e.dissipation), 1e-30)
                assert resid <= 1e-6 * scale
