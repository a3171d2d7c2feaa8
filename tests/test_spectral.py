"""Grid, transform and norm behavior of the periodic box.

The transform convention under test: half-spectrum coefficients are
``(L/N)^n (2 pi)^(-n/2) rfftn(values)``, frequencies ``2 pi m / L``, and the
L^2 norm equals ``(2 pi / L)^(n/2)`` times the Euclidean norm of the
coefficients weighed by their half-lattice multiplicity.  Oracles here are direct DFT sums, closed-form Gaussian
integrals, and trigonometric identities.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bousslab import (PhysicalField, forward_transform, inverse_transform,
                      l1_norm, make_grid, neg_sobolev_norm, sobolev_norm)

from conftest import l2_norm, linf_norm, random_smooth_field


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
