"""Grid, transform, norm, and radial-quadrature behavior.

The transform convention under test: half-spectrum coefficients are
``(L/N)^n (2 pi)^(-n/2) rfftn(values)``, frequencies ``2 pi m / L``, and the
L^2 norm equals ``(2 pi / L)^(n/2)`` times the Euclidean norm of the
coefficients weighed by their half-lattice multiplicity.  Oracles here are direct DFT sums, closed-form Gaussian
integrals, and trigonometric identities.
"""
from __future__ import annotations

import math
import time
import tracemalloc
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bousslab.linear
from bousslab import (ModelParams, PhysicalField, QuadratureError, RadialData,
                      forward_transform, gaussian_radial_data, inverse_transform,
                      l1_norm, linear_norm_radial, load_config, make_grid,
                      neg_sobolev_norm, sobolev_norm, spectral,
                      square_integrable_radial_data)
from bousslab.experiments import run_experiment
from bousslab.spectral import _panel_sums, _radial_integral

from conftest import l2_norm, linf_norm, random_smooth_field


ROOT = Path(__file__).resolve().parents[1]

#: the lattices the half-lattice arrays are checked on, odd N // 3 included
LATTICES = [(n, N) for n in (1, 2, 3) for N in (8, 12, 16)]


def full_lattice(per_axis: np.ndarray, n: int, combine) -> np.ndarray:
    """The dense n-D lattice of ``per_axis`` values (``fftfreq`` order),
    folded over the axes by ``combine``, first axis first."""
    axes = np.meshgrid(*([per_axis] * n), indexing="ij")
    out = axes[0]
    for a in axes[1:]:
        out = combine(out, a)
    return out


def half(N: int) -> tuple:
    """The half-lattice block of a full lattice: last-axis indices 0 .. N/2."""
    return (Ellipsis, slice(0, N // 2 + 1))


class TestGrid:
    @pytest.mark.parametrize("n, N", LATTICES)
    def test_frequencies_are_integer_modes_on_2pi_box(self, n, N):
        g = make_grid(n, 2.0 * math.pi, N)
        xi = 2.0 * math.pi * np.fft.fftfreq(N, d=2.0 * math.pi / N)
        m = np.fft.fftfreq(N, d=1.0 / N)
        assert np.allclose(xi, m, atol=1e-12)
        assert np.array_equal(g.xi2_half, full_lattice(xi * xi, n, np.add)[half(N)])
        assert np.allclose(g.xi2_half, full_lattice(m * m, n, np.add)[half(N)], atol=1e-12)
        # the Nyquist index holds the mode -N/2, whose square is that of +N/2
        assert g.xi2_half[(0,) * (n - 1) + (N // 2,)] == pytest.approx((N / 2) ** 2,
                                                                        rel=1e-15)
        if (n, N) == (1, 8):
            assert np.allclose(g.xi2_half, [0, 1, 4, 9, 16], atol=1e-12)

    def test_cell_volume_and_frequency_spacing(self):
        g = make_grid(2, 10.0, 16)
        assert g.cell_volume == pytest.approx((10.0 / 16) ** 2, rel=1e-15)
        assert g.dxi == pytest.approx(2.0 * math.pi / 10.0, rel=1e-15)

    @pytest.mark.parametrize("bad", [
        dict(n=0, L=10.0, N=16), dict(n=4, L=10.0, N=16),
        dict(n=1, L=-1.0, N=16), dict(n=1, L=10.0, N=15),
        dict(n=1, L=10.0, N=4),
    ])
    def test_invalid_grids_rejected(self, bad):
        with pytest.raises(ValueError):
            make_grid(**bad)

    @pytest.mark.parametrize("n, N", LATTICES)
    def test_dealias_mask_keeps_low_third(self, n, N):
        g = make_grid(n, 2.0 * math.pi, N)
        assert g.dealias_cut == N // 3
        keep = np.abs(np.fft.fftfreq(N, d=1.0 / N)) <= N // 3
        full = full_lattice(keep, n, np.logical_and)
        assert g.dealias_mask_half.dtype == bool
        assert np.array_equal(g.dealias_mask_half, full[half(N)])
        # the Nyquist index -N/2 is above the cut
        assert not g.dealias_mask_half[..., N // 2].any()
        if (n, N) == (1, 12):
            assert g.dealias_mask_half.tolist() == [True] * 5 + [False] * 2

    @pytest.mark.parametrize("n, N", LATTICES)
    def test_squared_frequency_lattice(self, n, N):
        g = make_grid(n, 7.0, N)
        xi = 2.0 * math.pi * np.fft.fftfreq(N, d=7.0 / N)
        assert g.xi2_half.shape == g.half_shape
        assert np.array_equal(g.xi2_half, full_lattice(xi * xi, n, np.add)[half(N)])
        sparse = np.ix_(*([xi] * n))
        assert np.allclose(g.xi2_half, sum(a ** 2 for a in sparse)[half(N)])
        assert not g.xi2_half.flags.writeable
        assert not g.dealias_mask_half.flags.writeable


class TestTransform:
    def test_matches_direct_dft_sum_1d(self, rng):
        g = make_grid(1, 7.0, 16)
        u = rng.standard_normal(16)
        F = forward_transform(g, u)
        assert F.shape == g.half_shape
        j = np.arange(16)
        scale = g.cell_volume * (2.0 * math.pi) ** -0.5
        for m in range(9):
            direct = scale * np.sum(u * np.exp(-2j * math.pi * m * j / 16))
            assert abs(F[m] - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_matches_direct_dft_sum_2d(self, rng):
        g = make_grid(2, 3.0, 8)
        u = rng.standard_normal((8, 8))
        F = forward_transform(g, u)
        j = np.arange(8)
        scale = g.cell_volume * (2.0 * math.pi) ** -1.0
        for m1 in range(0, 8, 3):
            for m2 in range(0, 5, 2):
                w1 = np.exp(-2j * math.pi * m1 * j / 8)
                w2 = np.exp(-2j * math.pi * m2 * j / 8)
                direct = scale * w1 @ u @ w2
                assert abs(F[m1, m2] - direct) <= 1e-12

    def test_cosine_coefficients(self):
        # samples live on the centred mesh but the DFT indexes from the left
        # edge, so odd modes carry a (-1)^m factor relative to the centred
        # integral; magnitudes and all norms are unaffected
        g = make_grid(1, 2.0 * math.pi, 8)
        F = forward_transform(g, PhysicalField.from_function(g, np.cos).values)
        expected = np.zeros(5, dtype=complex)
        expected[1] = -math.sqrt(math.pi / 2.0)
        assert np.allclose(F, expected, atol=1e-12)

    def test_round_trip_identity(self, rng):
        g = make_grid(1, 5.0, 32)
        u = rng.standard_normal(32)
        back = inverse_transform(g, forward_transform(g, u))
        assert np.allclose(back, u, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), exponent=st.integers(3, 5),
           dim=st.integers(1, 2))
    def test_parseval_random_fields(self, seed, exponent, dim):
        g = make_grid(dim, 6.0, 2**exponent)
        u = random_smooth_field(g, np.random.default_rng(seed))
        phys = l2_norm(u)
        spec = sobolev_norm(g, forward_transform(g, u.values))
        assert spec == pytest.approx(phys, rel=1e-10)


class TestHalfSpectrum:
    """The rfftn half-lattice layout the solvers carry their state in."""

    # white noise fills every mode, the Nyquist planes included
    @pytest.mark.parametrize("n, N", [(1, 16), (2, 16), (3, 8)])
    def test_half_l2_with_multiplicity_is_the_full_l2(self, rng, n, N):
        g = make_grid(n, 7.0, N)
        for _ in range(3):
            u = PhysicalField(g, rng.standard_normal(g.shape))
            assert sobolev_norm(g, forward_transform(g, u.values)) == pytest.approx(
                l2_norm(u), rel=1e-13)
        # over a stack: one norm per leading index
        stack = rng.standard_normal((2, 3) + g.shape)
        norms = sobolev_norm(g, forward_transform(g, stack))
        assert norms.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert norms[idx] == pytest.approx(l2_norm(PhysicalField(g, stack[idx])),
                                               rel=1e-13)

    @pytest.mark.parametrize("n, L, N", [(1, 60.0, 512), (2, 180.0, 128)])
    def test_norm_of_one_spectrum_is_bitwise_its_row_of_a_stack(self, rng, n, L, N):
        # a run that reduces its states one at a time reports the numbers a
        # norm over the stored stack of them would
        g = make_grid(n, L, N)
        shape = (5,) + g.half_shape
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for k in (0, 1, 2):
            stacked = sobolev_norm(g, stack, k)
            assert [sobolev_norm(g, c, k) for c in stack] == stacked.tolist()

    @pytest.mark.parametrize("n, N", LATTICES)
    def test_layout_matches_the_full_spectrum(self, rng, n, N):
        g = make_grid(n, 7.0, N)
        stack = rng.standard_normal((2,) + g.shape)
        coeffs_half = forward_transform(g, stack)
        assert coeffs_half.shape == (2,) + g.half_shape
        assert np.max(np.abs(inverse_transform(g, coeffs_half) - stack)) <= 1e-13
        for values, coeffs in zip(stack, coeffs_half):
            full = g.fft_scale * np.fft.fftn(values)
            assert np.max(np.abs(coeffs - full[half(N)])) <= 1e-13 * np.max(np.abs(full))
        # each half-lattice array is the half block of its full-lattice formula
        xi = 2.0 * math.pi * np.fft.fftfreq(N, d=7.0 / N)
        keep = np.abs(np.fft.fftfreq(N, d=1.0 / N)) <= N // 3
        assert np.array_equal(g.xi2_half, full_lattice(xi * xi, n, np.add)[half(N)])
        assert np.array_equal(g.dealias_mask_half,
                              full_lattice(keep, n, np.logical_and)[half(N)])

    @pytest.mark.parametrize("n, N", [(1, 64), (1, 512), (2, 128), (3, 16)])
    def test_per_axis_transforms_equal_rfftn_and_irfftn(self, rng, n, N):
        # bitwise, on a stacked pair; the inverse input is an arbitrary half
        # spectrum, Nyquist planes included, and is left unchanged
        g = make_grid(n, 7.0, N)
        values = rng.standard_normal((2,) + g.shape)
        coeffs = (rng.standard_normal((2,) + g.half_shape)
                  + 1j * rng.standard_normal((2,) + g.half_shape))
        forward = np.fft.rfftn(values, axes=g.axes) * g.fft_scale
        inverse = np.fft.irfftn(coeffs, s=g.shape, axes=g.axes) / g.fft_scale
        assert np.array_equal(forward_transform(g, values), forward)
        kept = coeffs.copy()
        assert np.array_equal(inverse_transform(g, coeffs), inverse)
        assert np.array_equal(coeffs, kept)


class TestFieldTypes:
    def test_shape_mismatch_rejected(self):
        g = make_grid(1, 1.0, 8)
        with pytest.raises(ValueError, match="shape"):
            PhysicalField(g, np.zeros(9))

    def test_non_finite_values_rejected(self):
        g = make_grid(1, 1.0, 8)
        vals = np.zeros(8)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            PhysicalField(g, vals)

    def test_values_are_immutable(self):
        g = make_grid(1, 1.0, 8)
        f = PhysicalField(g, np.zeros(8))
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestNorms:
    def test_gaussian_l2_closed_form(self):
        g = make_grid(1, 80.0, 1024)
        f = PhysicalField.from_function(g, lambda x: np.exp(-(x**2)))
        assert l2_norm(f) == pytest.approx((math.pi / 2.0) ** 0.25, rel=1e-8)

    @pytest.mark.parametrize("q", [1, 2, 4])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_derivative_norm_scales_as_mode_power(self, q, k):
        g = make_grid(1, 2.0 * math.pi, 64)
        f = PhysicalField.from_function(g, lambda x: np.cos(q * x))
        assert sobolev_norm(g, forward_transform(g, f.values), k) == pytest.approx(
            q**k * l2_norm(f), rel=1e-12)

    def test_unit_mode_derivative_weight_is_neutral(self):
        g = make_grid(1, 2.0 * math.pi, 64)
        F = forward_transform(g, PhysicalField.from_function(g, np.cos).values)
        assert sobolev_norm(g, F, 2) == pytest.approx(sobolev_norm(g, F, 0), rel=1e-12)

    def test_negative_order_norm_on_unit_mode(self):
        g = make_grid(1, 2.0 * math.pi, 64)
        f = PhysicalField.from_function(g, np.sin)
        assert neg_sobolev_norm(g, forward_transform(g, f.values)) == pytest.approx(
            l2_norm(f), rel=1e-12)

    def test_negative_order_norm_needs_zero_mean(self):
        g = make_grid(1, 2.0 * math.pi, 64)
        f = PhysicalField.from_function(g, lambda x: np.cos(x) + 1.0)
        with pytest.raises(ValueError, match="mean"):
            neg_sobolev_norm(g, forward_transform(g, f.values))

    def test_l1_and_linf_on_known_field(self):
        g = make_grid(1, 2.0 * math.pi, 256)
        f = PhysicalField.from_function(g, np.sin)
        assert linf_norm(f) == pytest.approx(1.0, abs=1e-3)
        assert l1_norm(f) == pytest.approx(4.0, rel=1e-3)  # int |sin| over a period

    # a derivative order that is negative or not an integer, a full-lattice,
    # physical or mis-sized array, and a mean-carrying negative-order field
    @pytest.mark.parametrize("bad", [
        dict(norm="sobolev", k=-1), dict(norm="sobolev", k=0.5),
        dict(norm="sobolev", coeffs="full"), dict(norm="sobolev", coeffs="physical"),
        dict(norm="neg_sobolev", coeffs="short"), dict(norm="neg_sobolev", coeffs="mean"),
    ])
    def test_invalid_norm_specs_rejected(self, bad):
        g = make_grid(1, 2.0 * math.pi, 32)
        c = forward_transform(g, PhysicalField.from_function(g, np.sin).values)
        coeffs = {"full": np.zeros(g.shape, dtype=complex),
                  "physical": inverse_transform(g, c), "short": c[:-1],
                  "mean": c + 1.0}.get(bad.get("coeffs"), c)
        with pytest.raises(ValueError):
            if bad["norm"] == "sobolev":
                sobolev_norm(g, coeffs, bad.get("k", 0))
            else:
                neg_sobolev_norm(g, coeffs)

    def test_sobolev_norm_equals_the_physical_derivative_norm(self, rng):
        # |xi| u_hat is the half spectrum of the order-1 radial derivative
        g = make_grid(1, 6.0, 32)
        u = random_smooth_field(g, rng)
        coeffs = forward_transform(g, u.values)
        deriv = PhysicalField(g, inverse_transform(g, np.sqrt(g.xi2_half) * coeffs))
        assert sobolev_norm(g, coeffs, 1) == pytest.approx(l2_norm(deriv), rel=1e-12)


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


def one_row_panel_sum(f, row, a, b, panels, order=12):
    """The composite Gauss-Legendre sum of one row over ``[a, b]`` as a
    scalar integrand gives it: the weighted node values in one 1-D sum."""
    x, w = np.polynomial.legendre.leggauss(order)
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
    """Several panel sums from one integrand call (``spectral._panel_sums``)."""

    SEGMENTS = [(0.0, 1.0, 8), (0.0, 1.0, 16), (1.0, 2.0, 8), (1.0, 2.0, 16),
                (0.5, 3.0, 5)]

    @pytest.mark.parametrize("live", ([0, 1, 2, 3], [2, 0], [3]))
    def test_batched_sums_are_bitwise_the_one_segment_sums(self, live):
        live = np.array(live)
        batched = list(_panel_sums(four_rows, live, self.SEGMENTS))
        assert len(batched) == len(self.SEGMENTS)
        for segment, sums in zip(self.SEGMENTS, batched, strict=True):
            (alone,) = _panel_sums(four_rows, live, [segment])
            assert np.array_equal(sums, alone)
            assert np.array_equal(sums, [one_row_panel_sum(four_rows, i, *segment)
                                         for i in live])

    def test_calls_are_packed_below_the_node_limit(self, monkeypatch):
        # 96 + 192 + 96 nodes share the first call; the last 192 would not fit
        segments = self.SEGMENTS[:4]
        expected = list(_panel_sums(four_rows, np.arange(4), segments))
        sizes = []

        def counted(r, live):
            sizes.append(r.size)
            return four_rows(r, live)

        monkeypatch.setattr(spectral, "_MAX_NODES", 400)
        got = list(_panel_sums(counted, np.arange(4), segments))
        assert sizes == [384, 192]
        assert all(np.array_equal(g, e) for g, e in zip(got, expected, strict=True))

    @pytest.mark.parametrize("f, panels0, limit, sizes, message", [
        # the first call held 4 + 8 body panels and the 8 tail panels, the
        # body's doublings made 192 and 384 nodes and stopped at the next
        # one; the tail's NaN was never reached
        (singular_then(np.nan), 8, 400, [240, 192, 384],
         "a panel sum on [0, 2] would need 768 nodes (limit 400)"),
        # the body converged at its first doubling, then the tail's values
        (smooth_then(np.nan), 8, 400, [240],
         "non-finite integrand values on [2, 4]"),
        # 2 + 4 panels on the body, then the tail's 8 (96 nodes); a tail
        # above its floor then needs its 16 panels (192 nodes)
        (smooth_then(1e-3), 4, 150, [72, 96],
         "a panel sum on [2, 4] would need 192 nodes (limit 150)"),
    ], ids=["body_limit_before_tail_nan", "tail_nan", "tail_limit"])
    def test_errors_name_the_interval_of_one_call_per_sum(
            self, monkeypatch, f, panels0, limit, sizes, message):
        seen = []

        def counted(r, live):
            seen.append(r.size)
            return f(r, live)

        monkeypatch.setattr(spectral, "_MAX_NODES", limit)
        monkeypatch.setattr(spectral, "_CUTOFF_DOUBLINGS", 0)
        with pytest.raises(QuadratureError) as err:
            _radial_integral(counted, 1, 2.0, panels0, 1)
        assert str(err.value) == "radial quadrature did not converge: " + message
        assert seen == sizes

    def test_one_kernel_evaluation_when_nothing_refines(self, monkeypatch):
        # t = 1e3, p = 128: 64 and 128 body panels, which converge at the
        # first check, and 64 tail panels, whose sum is below its floor
        calls = []
        real = bousslab.linear.propagator

        def counted(xi2, t, params):
            calls.append(xi2.size)
            return real(xi2, t, params)

        monkeypatch.setattr(bousslab.linear, "propagator", counted)
        linear_norm_radial(gaussian_radial_data(n=1), 1e3, [("linear", 0)], 1, ModelParams())
        assert calls == [12 * (64 + 128 + 64)]


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
        monkeypatch.setattr(spectral, "_CUTOFF_DOUBLINGS", 0)
        got, calls = self.run_counted(lambda r, live: tail_rows(r, [1]), 1, 2.0, 8)
        # 4 + 8 body panels and 8 tail panels, then the tail's 16
        assert calls == [(12 * (4 + 8 + 8), [0]), (12 * 16, [0])]
        body = _radial_integral(lambda r, live: tail_rows(r, [0]), 1, 2.0, 8, 1)
        assert got[0] == pytest.approx(body[0] + 5e-13, rel=1e-15)

    def test_mixed_rows_refine_only_where_the_tail_is_above_its_floor(self, monkeypatch):
        monkeypatch.setattr(spectral, "_CUTOFF_DOUBLINGS", 2)
        got, calls = self.run_counted(tail_rows, 4, 2.0, 8)
        # at cutoff 2 row 0 takes its coarse tail, rows 1-3 the 16-panel
        # one and row 2 refines its ripple to 64 panels; row 3's tail, about
        # e^-4 / 4, fails the gate, and at cutoff 8 its coarse tail is the tail
        assert calls == [(240, [0, 1, 2, 3]), (192, [1, 2, 3]), (384, [2]), (768, [2]),
                         (240, [3]), (192, [3]), (240, [3])]
        monkeypatch.setattr(spectral, "_CUTOFF_DOUBLINGS", 0)
        body = _radial_integral(lambda r, live: tail_rows(r, [0]) * (r <= 2.0), 1, 2.0, 8, 1)
        assert body[0] < got[0] < got[2] < got[1]

    def test_zero_profile_is_zero_from_one_call(self):
        got, calls = self.run_counted(lambda r, live: np.zeros((len(live), r.size)),
                                      2, 3.0, 20)
        assert np.array_equal(got, [0.0, 0.0])
        assert calls == [(12 * (10 + 20 + 10), [0, 1])]
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
        monkeypatch.setattr(spectral, "_CUTOFF_DOUBLINGS", 2)
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
        real = spectral._pack_sums

        def counting(f, live, pack):
            sizes.append(sum(panels * spectral._GAUSS_ORDER for _, _, panels in pack))
            return real(f, live, pack)

        monkeypatch.setattr(spectral, "_pack_sums", counting)
        for name in RADIAL_CONFIGS:
            run_experiment(load_config(ROOT / "configs" / f"{name}.json"))
        # 1 065 024 nodes when the body's first sums were at p and 2 p
        # panels, in as many calls
        assert (sum(sizes), len(sizes)) == (607_104, 160)

    def test_every_body_converges_at_its_first_check(self, monkeypatch):
        # the cut to p // 2 and 2 (p // 2) first body panels rests on this
        # margin: one propagator call per cutoff, and a first relative
        # change 10 times under _BODY_RTOL (6.2e-12 at most, radial_L2)
        calls, changes = [], []
        real_propagator, real_refine = bousslab.linear.propagator, spectral._refined_integral

        def counted(xi2, t, params):
            calls.append(xi2.size)
            return real_propagator(xi2, t, params)

        def recording(f, live, a, b, panels, first, rtol, atol):
            if a == 0.0:
                prev, cur = next(first), next(first)
                changes.append((np.abs(cur - prev), np.abs(cur)))
                first = chain([prev, cur], first)
            return real_refine(f, live, a, b, panels, first, rtol, atol)

        monkeypatch.setattr(bousslab.linear, "propagator", counted)
        monkeypatch.setattr(spectral, "_refined_integral", recording)
        for name in RADIAL_CONFIGS:
            run_experiment(load_config(ROOT / "configs" / f"{name}.json"))
        assert len(calls) == len(changes) == 160
        for change, value in changes:
            assert np.all(change <= 1e-10 * value)
