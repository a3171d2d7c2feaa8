"""Rate fitting, gap weights, envelope certification, and product estimates.

Oracles: synthetic power laws with known exponents, closed-form branch values
of the gap weight, trigonometric norm identities for the product estimates,
and the t = 0 normalization of the kernel envelopes.
"""
from __future__ import annotations

import hashlib
import importlib
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

import bousslab.linear
from bousslab import spectral
from bousslab import (BOUND_KINDS, DecaySeries, ModelParams,
                      NonlinearitySpec, PhysicalField, certify_bound,
                      decay_series, default_certify_grids, fit_rate,
                      forward_transform, gap_weight, gaussian_radial_data,
                      initial_data_size, inverse_transform, l1_norm,
                      linear_norm_radial, make_grid, march,
                      product_estimate_check,
                      radial_decay_series, solve,
                      square_integrable_radial_data, xnorm_proxy)

from bousslab.experiments import _random_smooth_fields

from conftest import l2_norm, linf_norm, random_smooth_field

P = ModelParams(alpha=-1.0)


@pytest.mark.parametrize("fn, retired", [
    (march, {"blowup_factor"}), (solve, {"blowup_factor"}),
    (linear_norm_radial, {"rtol"}), (radial_decay_series, {"rtol"}),
    (initial_data_size, {"k_max"}), (xnorm_proxy, {"k_list"}),
    (default_certify_grids, {"n_xi", "n_t"}), (decay_series, {"source"}),
    (spectral._panel_sums, {"order"}), (spectral._pack_sums, {"order"}),
    (spectral._leggauss, {"order"}),
    (spectral._radial_integral, {"rtol", "max_doublings"})],
    ids=lambda v: v.__name__ if callable(v) else "-".join(sorted(v)))
def test_fixed_numerical_choices_are_not_keywords(fn, retired):
    # the blow-up factor, body rtol, Gauss order, cutoff doublings,
    # certification grids and the theory's derivative orders are module
    # constants, not call options
    assert retired.isdisjoint(inspect.signature(fn).parameters)


def fixed_choices_rows() -> list[tuple[str, str, str]]:
    """``(constant, value, module)`` per row of README's "Fixed numerical
    choices" table, backticks stripped."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Fixed numerical choices", 1)[1].split("\n## ", 1)[0]
    return [tuple(cell.strip().strip("`") for cell in line.split("|")[1:4])
            for line in section.splitlines() if line.startswith("| `")]


def test_readme_fixed_numerical_choices_match_the_code():
    # a constant that moves module or changes value must take its row along
    rows = fixed_choices_rows()
    assert {"_BODY_RTOL", "_CUTOFF_DOUBLINGS", "_GAUSS_ORDER"} <= {r[0] for r in rows}
    for name, value, module in rows:
        mod = importlib.import_module(f"bousslab.{module}")
        if name == "default_certify_grids()":
            assert value == "200 × 200"
            assert [g.shape for g in mod.default_certify_grids()] == [(200,), (200,)]
        else:
            got = np.atleast_1d(getattr(mod, name)).tolist()
            assert got == [float(v) for v in value.split(",")], name


def series_from(fn, t_lo=1e2, t_hi=1e4, n=40, **kw):
    t = np.geomspace(t_lo, t_hi, n)
    defaults = dict(k=0, norm_kind="sobolev2", source="linear")
    defaults.update(kw)
    return DecaySeries(times=t, values=fn(t), **defaults)


class TestDecaySeries:
    def test_label_format(self):
        s = series_from(lambda t: 1.0 / t, k=2, norm_kind="l1", source="nonlinear")
        assert s.label == "nonlinear:k2:l1"

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            DecaySeries(times=np.array([1.0, 1.0]), values=np.array([1.0, 1.0]),
                        k=0, norm_kind="sobolev2", source="linear")

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            DecaySeries(times=np.array([1.0, 2.0]), values=np.array([1.0, -1.0]),
                        k=0, norm_kind="sobolev2", source="linear")


class TestFitRate:
    def test_pure_power_law_recovered_exactly(self):
        fit = fit_rate(series_from(lambda t: 3.7 * (1.0 + t) ** -0.75), (1e2, 1e4))
        assert abs(fit.slope + 0.75) <= 1e-12
        assert fit.stderr <= 1e-12
        assert fit.intercept == pytest.approx(math.log(3.7), abs=1e-10)

    def test_constant_series_has_zero_slope(self):
        fit = fit_rate(series_from(lambda t: np.full_like(t, 2.5)), (1e2, 1e4))
        assert abs(fit.slope) <= 1e-13

    def test_log_corrected_law_fits_between_exponents(self):
        # (1+t)^(-1/2) log(2+t) over [1e2, 1e4]: the effective exponent sits
        # well above -1/2 because the log still grows through the window
        fit = fit_rate(series_from(lambda t: (1 + t) ** -0.5 * np.log(2 + t)),
                       (1e2, 1e4))
        assert -0.40 < fit.slope < -0.30

    def test_nonpositive_values_raise(self):
        s = series_from(lambda t: np.where(t > 1e3, 0.0, 1.0))
        with pytest.raises(ValueError, match="cannot take log"):
            fit_rate(s, (1e2, 1e4))

    def test_too_few_window_points_raise(self):
        s = series_from(lambda t: 1.0 / t, n=10)
        with pytest.raises(ValueError, match="at least 6"):
            fit_rate(s, (1e2, 2e2))

    def test_empty_window_rejected(self):
        s = series_from(lambda t: 1.0 / t)
        with pytest.raises(ValueError, match="window"):
            fit_rate(s, (1e3, 1e3))

    def test_window_is_inclusive_and_counted(self):
        s = series_from(lambda t: 1.0 / t, n=12)
        fit = fit_rate(s, (s.times[0], s.times[-1]))
        assert fit.n_points == 12


class TestGapWeight:
    def test_branch_values(self):
        assert gap_weight(17.3, 1) == 1.0
        assert gap_weight(0.0, 2) == pytest.approx(math.log(2.0), rel=1e-14)
        assert gap_weight(3.0, 3) == pytest.approx(0.5, rel=1e-14)
        assert gap_weight(3.0, 5) == pytest.approx(0.5, rel=1e-14)

    def test_vector_input(self):
        t = np.array([0.0, 1.0, 3.0])
        out = gap_weight(t, 2)
        assert out.shape == t.shape
        assert out[0] == pytest.approx(math.log(2.0))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            gap_weight(1.0, 0)
        with pytest.raises(ValueError):
            gap_weight(-1.0, 2)


@pytest.fixture(scope="module")
def small_run():
    g = make_grid(1, 30.0, 64)
    u0 = PhysicalField.from_function(g, lambda x: 0.01 * np.exp(-x**2 / 2))
    return solve(u0, PhysicalField.zero(g), T=2.0, dt=0.05,
                 spec=NonlinearitySpec(), params=P, out_every=5)


class TestSeriesExtraction:
    def test_one_series_per_derivative_order(self, small_run):
        out = decay_series(small_run, k_list=(0, 1))
        assert [s.k for s in out] == [0, 1]
        assert all(s.norm_kind == "sobolev2" for s in out)
        assert all(s.times.size == small_run.times.size for s in out)
        assert all(s.source == "nonlinear" for s in out)

    def test_empty_k_list_rejected(self, small_run):
        with pytest.raises(ValueError, match="k_list"):
            decay_series(small_run, k_list=())

    def test_radial_series_matches_pointwise_evaluation(self):
        data = gaussian_radial_data(n=1)
        times = np.geomspace(1.0, 100.0, 8)
        out = radial_decay_series(data, times, (0,), 1, P, which="linear")
        assert out[0].source == "linear"
        direct = [linear_norm_radial(data, float(t), [("linear", 0)], 1, P)[0]
                  for t in times]
        assert np.allclose(out[0].values, direct, rtol=1e-12)

    def test_gap_series_uses_profile_gap_label(self):
        data = gaussian_radial_data(n=1)
        times = np.geomspace(1.0, 30.0, 8)
        out = radial_decay_series(data, times, (0,), 1, P, which="gap")
        assert out[0].source == "profile_gap"

    def test_empty_kernel_tuple_rejected(self):
        data = gaussian_radial_data(n=1)
        with pytest.raises(ValueError, match="at least one kernel"):
            radial_decay_series(data, np.geomspace(1.0, 10.0, 8), (0,), 1, P,
                                which=())

    def test_short_sweep_rejected(self):
        data = gaussian_radial_data(n=1)
        with pytest.raises(ValueError, match=">= 8"):
            radial_decay_series(data, np.geomspace(1.0, 10.0, 5), (0,), 1, P)


class TestRadialAllComponents:
    """One sweep over every ``(which, k)``: same bits, one kernel per node set."""

    TIMES = np.geomspace(3.0, 1e4, 8)
    KS = (0, 1, 2)
    WHICH = ("linear", "gap")

    @staticmethod
    def data(kind: str):
        if kind == "gaussian":
            return gaussian_radial_data(n=1)
        # at t ~ 3-30 its components stop refining at different panel counts
        return square_integrable_radial_data(n=1, eps=0.1)

    @pytest.mark.parametrize("kind", ("gaussian", "square_integrable"))
    def test_bitwise_equal_to_one_component_calls(self, kind):
        data = self.data(kind)
        out = radial_decay_series(data, self.TIMES, self.KS, 1, P, which=self.WHICH)
        assert [(s.source, s.k) for s in out] == [
            (source, k) for source in ("linear", "profile_gap") for k in self.KS]
        for s, (which, k) in zip(out, [(w, k) for w in self.WHICH for k in self.KS]):
            direct = [linear_norm_radial(data, float(t), [(which, k)], 1, P)[0]
                      for t in self.TIMES]
            assert np.array_equal(s.values, direct)

    def test_one_kernel_evaluation_per_node_set(self, monkeypatch):
        calls = []
        real = bousslab.linear.propagator

        def counting(xi2, t, params, **kw):
            nodes = hashlib.sha1(np.ascontiguousarray(xi2).tobytes()).hexdigest()
            calls.append((float(t), nodes))
            return real(xi2, t, params, **kw)

        monkeypatch.setattr(bousslab.linear, "propagator", counting)
        data = self.data("square_integrable")
        needed = {}  # t -> the (t, node set) keys of each component
        for which in self.WHICH:
            for k in self.KS:
                for t in self.TIMES:
                    calls.clear()
                    linear_norm_radial(data, float(t), [(which, k)], 1, P)[0]
                    needed.setdefault(float(t), []).append(set(calls))
        union = {t: set().union(*sets) for t, sets in needed.items()}
        # not every component needs every node set: some stop refining early
        assert any(len(s) < len(union[t]) for t, sets in needed.items() for s in sets)
        calls.clear()
        radial_decay_series(data, self.TIMES, self.KS, 1, P, which=self.WHICH)
        # every (t, node set) some component needs, each evaluated once
        assert len(calls) == len(set(calls))
        assert set(calls) == set().union(*union.values())
        assert 3 * len(calls) <= sum(len(s) for sets in needed.values() for s in sets)


class TestDataSizeAndAmplitude:
    def test_xnorm_weights_grow_with_time(self, rng):
        g = make_grid(1, 30.0, 64)
        u0 = PhysicalField.from_function(g, lambda x: 0.01 * np.exp(-x**2 / 2))
        run = solve(u0, PhysicalField.zero(g), T=2.0, dt=0.05,
                    spec=NonlinearitySpec(f_kind="none", g_kind="none"),
                    params=P, out_every=5)
        vals = xnorm_proxy(run, n=1)
        assert vals.shape == run.times.shape
        assert np.all(vals > 0.0)

    def test_initial_data_size_zero_data(self):
        g = make_grid(1, 30.0, 64)
        z = PhysicalField.zero(g)
        assert initial_data_size(z, z) == 0.0

    def test_initial_data_size_displacement_only(self):
        g = make_grid(1, 60.0, 256)
        u0 = PhysicalField.from_function(g, lambda x: np.exp(-x**2 / 2))
        z = PhysicalField.zero(g)
        total = initial_data_size(u0, z)
        # L1 + (H^0 + H^1 + H^2 radial parts) of a unit Gaussian
        l1 = math.sqrt(2.0 * math.pi)
        h0 = math.pi**0.25
        h1 = math.pi**0.25 / math.sqrt(2.0)
        h2 = math.pi**0.25 * math.sqrt(0.75)
        assert total == pytest.approx(l1 + h0 + h1 + h2, rel=1e-6)

    def test_initial_data_size_rejects_mean_carrying_velocity(self):
        g = make_grid(1, 30.0, 64)
        u1 = PhysicalField.from_function(g, lambda x: np.exp(-x**2 / 2))
        with pytest.raises(ValueError, match="zero mean"):
            initial_data_size(PhysicalField.zero(g), u1)


def log_grids(n):
    """``default_certify_grids``' log-spaced layout with ``n`` points each."""
    return np.logspace(-3.0, 2.0, n), np.concatenate([[0.0], np.logspace(-2.0, 3.0, n - 1)])


class TestCertifyBound:
    def test_time_zero_ratio_is_one_for_displacement_envelope(self):
        # at t = 0 the displacement-kernel envelope equals its weight exactly
        xi = np.logspace(-3, 2, 50)
        cert = certify_bound("cosine_envelope", xi, np.array([0.0]),
                             (0.0,), P)
        assert cert.passed
        assert cert.fitted_c == 0.0
        assert cert.sup_ratio == pytest.approx(1.0, rel=1e-12)

    def test_zero_rate_always_passes_with_unit_floor(self):
        xi, t = log_grids(60)
        for which in ("sine_envelope", "cosine_envelope"):
            cert = certify_bound(which, xi, t, (0.0,), P)
            assert cert.passed
            assert cert.sup_ratio >= 1.0 - 1e-12

    def test_default_grid_certification(self):
        xi, t = default_certify_grids()
        cands = (1.0, 0.5, 0.25, 0.1)
        for which in BOUND_KINDS:
            cert = certify_bound(which, xi, t, cands, P)
            assert cert.passed, which
            assert cert.fitted_c >= 0.1
            assert cert.sup_ratio <= 1e3

    def test_sup_ratio_monotone_in_rate(self):
        xi, t = log_grids(60)
        sups = []
        for c in (0.0, 0.2, 0.5, 1.0):
            cert = certify_bound("sine_envelope", xi, t, (c,), P,
                                 cap=1e300)
            sups.append(cert.sup_ratio)
        assert all(a <= b * (1 + 1e-12) for a, b in zip(sups, sups[1:]))

    def test_all_candidates_failing_is_a_result_not_an_error(self):
        xi, t = log_grids(40)
        cert = certify_bound("sine_envelope", xi, t, (50.0,), P, cap=10.0)
        assert not cert.passed
        assert math.isnan(cert.fitted_c)

    def test_unknown_bound_kind_rejected(self):
        xi, t = log_grids(10)
        with pytest.raises(ValueError, match="bound kind"):
            certify_bound("nonsense", xi, t, (0.1,), P)

    def test_profile_bounds_restricted_to_low_frequency(self):
        xi = np.array([1.0, 2.0])  # all above r0
        with pytest.raises(ValueError, match="r0"):
            certify_bound("profile_remainder_sine", xi, np.array([0.0, 1.0]),
                          (0.1,), P, r0=0.5)


def pairwise_products(v: PhysicalField, w: PhysicalField, m: int) -> dict:
    """Reference: the product estimates of one pair through the spectral
    norms, ``instance -> (lhs, rhs)``, one transform per derivative.
    """
    g = v.grid

    def deriv(f: PhysicalField) -> PhysicalField:
        if m == 0:
            return f
        coeffs = forward_transform(g, f.values) * np.sqrt(g.xi2_half)
        return PhysicalField(g, inverse_transform(g, coeffs))

    vv = PhysicalField(g, v.values**2)
    diff_sq = PhysicalField(g, v.values**2 - w.values**2)
    vw_diff = PhysicalField(g, v.values - w.values)
    rhs_sq_l1 = (float(g.cell_volume * np.sum(v.values**2)) if m == 0
                 else l2_norm(v) * l2_norm(deriv(v)))
    return {
        "sq_l1": (l1_norm(deriv(vv)), rhs_sq_l1),
        "sq_l2": (l2_norm(deriv(vv)), linf_norm(v) * l2_norm(deriv(v))),
        "diff_l1": (l1_norm(deriv(diff_sq)),
                    l2_norm(deriv(v)) * l2_norm(vw_diff)
                    + (l2_norm(v) + l2_norm(w)) * l2_norm(deriv(vw_diff))),
        "diff_l2": (l2_norm(deriv(diff_sq)),
                    l2_norm(deriv(v)) * linf_norm(vw_diff)
                    + (linf_norm(v) + linf_norm(w)) * l2_norm(deriv(vw_diff))),
    }


class TestProductEstimates:
    def test_cauchy_schwarz_equality_case_is_exact(self, rng):
        g = make_grid(1, 30.0, 256)
        v = random_smooth_field(g, rng)
        w = random_smooth_field(g, rng)
        checks = {c.instance: c for c in product_estimate_check(g, v.values, w.values, m=0)}
        assert checks["sq_l1"].constant == 1.0

    def test_trig_identity_case(self):
        # v = cos x: lhs = ||sin 2x||_L2, rhs = 2 ||cos||_inf ||sin x||_L2
        g = make_grid(1, 2.0 * math.pi, 128)
        v = PhysicalField.from_function(g, np.cos)
        w = PhysicalField.zero(g)
        checks = {c.instance: c for c in product_estimate_check(g, v.values, w.values, m=1)}
        sq = checks["sq_l2"]
        assert sq.lhs == pytest.approx(math.sqrt(math.pi), rel=1e-10)
        assert sq.rhs == pytest.approx(math.sqrt(math.pi), rel=1e-6)
        assert sq.constant <= 1.0 + 1e-6

    def test_difference_form_vanishes_for_equal_fields(self, rng):
        g = make_grid(1, 30.0, 128)
        v = random_smooth_field(g, rng).values
        checks = {c.instance: c for c in product_estimate_check(g, v, v, m=1)}
        assert checks["diff_l1"].lhs == 0.0
        assert checks["diff_l2"].lhs == 0.0

    def test_constants_bounded_across_random_fields(self, rng):
        g = make_grid(1, 30.0, 128)
        fields = _random_smooth_fields(g, rng, (30, 2))
        for m in (0, 1):
            for c in product_estimate_check(g, fields[:, 0], fields[:, 1], m):
                arr = c.constant[c.rhs > 0.0]
                arr = arr[arr > 0.0]
                assert arr.max() / arr.min() <= 10.0, (c.instance, m)

    def test_grid_mismatch_and_bad_order_rejected(self, rng):
        g = make_grid(1, 30.0, 64)
        v = random_smooth_field(g, rng).values
        other = random_smooth_field(make_grid(1, 30.0, 128), rng).values
        with pytest.raises(ValueError, match="grid"):
            product_estimate_check(g, v, other, 0)
        with pytest.raises(ValueError, match="grid"):
            product_estimate_check(g, other, other, 0)
        with pytest.raises(ValueError, match="order"):
            product_estimate_check(g, v, v, 2)

    def test_stacked_draw_is_one_draw_per_field(self):
        # the lemma's 100 pairs (v, w) come from one draw in the order of
        # 200 single draws, v first
        g = make_grid(1, 30.0, 256)
        stacked = _random_smooth_fields(g, np.random.default_rng(7), (100, 2))
        rng = np.random.default_rng(7)
        for pair in stacked:
            for field in pair:
                assert np.array_equal(field, _random_smooth_fields(g, rng))

    @pytest.mark.parametrize("m", [0, 1])
    def test_stacked_checks_are_bitwise_single_pair_checks(self, m):
        # the AC10 draws of lemma_certify: one stacked pass gives each pair
        # the numbers of a call on that pair alone, and of the spectral
        # norms' rectangle rules
        g = make_grid(1, 30.0, 256)
        fields = _random_smooth_fields(g, np.random.default_rng(7), (100, 2))
        stacked = product_estimate_check(g, fields[:, 0], fields[:, 1], m)
        assert [c.instance for c in stacked] == ["sq_l1", "sq_l2", "diff_l1", "diff_l2"]
        for c in stacked:
            assert c.lhs.shape == c.rhs.shape == c.constant.shape == (100,)
        for i, (v, w) in enumerate(fields):
            single = product_estimate_check(g, v, w, m)
            reference = pairwise_products(PhysicalField(g, v), PhysicalField(g, w), m)
            for c, one in zip(stacked, single, strict=True):
                assert one.lhs.shape == ()
                assert c.lhs[i] == one.lhs and c.rhs[i] == one.rhs
                assert c.constant[i] == one.constant
                assert (c.lhs[i], c.rhs[i]) == reference[c.instance]
        if m == 0:
            assert np.all(stacked[0].constant == 1.0)

    def test_non_positive_rhs_gives_nan_constant(self):
        g = make_grid(1, 2.0 * math.pi, 32)
        zero = np.zeros((2,) + g.shape)
        for c in product_estimate_check(g, zero, zero, 1):
            assert np.all(c.rhs == 0.0) and np.all(np.isnan(c.constant))


class TestDerivativeGainInvariant:
    def test_linear_radial_slopes_gain_half_per_order(self):
        data = gaussian_radial_data(n=1)
        times = np.geomspace(1e2, 1e4, 24)
        series = radial_decay_series(data, times, (0, 1, 2), 1, P, which="linear")
        slopes = [fit_rate(s, (1e2, 1e4)).slope for s in series]
        assert slopes[1] - slopes[0] == pytest.approx(-0.5, abs=0.05)
        assert slopes[2] - slopes[1] == pytest.approx(-0.5, abs=0.05)
