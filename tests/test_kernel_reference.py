"""Kernel symbols against an independent high-precision reference.

Oracle: the textbook two-exponential formulas for the sine/cosine families
and the phi-function divided differences, evaluated in mpmath at 60-80
digits (so their own cancellation near confluent roots costs nothing),
compared at double-precision inputs.  Covered: alpha in {-1, -1.5, -5},
|xi|^2 from 1e-12 up to 1e4 (where the roots are ~1e8 apart and a kernel
derivative written as a difference of two large terms cancels), the
confluent band |xi|^2 ~ (sqrt(17) - 1)/2 where the roots coincide at
alpha = -1 (masked out of the AC1/AC2 sampling), and t in {0, 1e-3, 1, 50}.
The four kernels are real and must come back as float64.  The ETD step weights ``int_0^h sine`` and
``int_0^h s sine(s) ds`` are checked against mpmath quadrature of the same
two-exponential sine at h in {1e-3, 0.025, 0.5}.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from bousslab import (ModelParams, characteristic_roots, phi_divided_difference,
                      propagator)
from bousslab.nonlinear import _etd_integrals

mpmath = pytest.importorskip("mpmath")

#: |xi|^2 where b^2 = 4c at alpha = -1 (b = c = s + s^2 = 4)
CONFLUENT = (math.sqrt(17.0) - 1.0) / 2.0
XI2 = ([1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 3.0, 10.0, 1e2, 1e3, 1e4]
       + [CONFLUENT * (1.0 + d) for d in
          (0.0, 1e-10, -1e-10, 1e-7, -1e-7, 1e-4, -1e-4, 1e-2, -1e-2)])
TIMES = (0.0, 1e-3, 1.0, 50.0)
ALPHAS = (-1.0, -1.5, -5.0)
RTOL = 1e-10


def relative_error(num, ref) -> float:
    # the floor only matters where exp(lambda_- t) underflows in double
    return abs(complex(num) - ref) / max(abs(ref), 1e-300)


def reference_kernels(s: float, t: float, alpha: float) -> dict[str, complex]:
    with mpmath.workdps(60):
        s, t, a = mpmath.mpf(s), mpmath.mpf(t), mpmath.mpf(alpha)
        b = s * s - a * s
        c = s + s * s
        root = mpmath.sqrt(mpmath.mpc(b * b - 4 * c))
        lp, lm = (-b + root) / 2, (-b - root) / 2
        ep, em = mpmath.exp(lp * t), mpmath.exp(lm * t)
        d = lp - lm
        return {"sine": complex((ep - em) / d),
                "cosine": complex((lp * em - lm * ep) / d),
                "sine_dt": complex((lp * ep - lm * em) / d),
                "cosine_dt": complex(lp * lm * (em - ep) / d)}


def reference_phi(k: int, z):
    if abs(z) < 1:
        return mpmath.nsum(lambda m: z ** int(m) / mpmath.factorial(int(m) + k),
                           [0, mpmath.inf])
    head = sum(z ** j / mpmath.factorial(j) for j in range(k))
    return (mpmath.exp(z) - head) / z ** k


def reference_divided_difference(k: int, a: complex, b: complex) -> complex:
    with mpmath.workdps(80):
        a, b = mpmath.mpc(a), mpmath.mpc(b)
        if a == b:  # confluent: phi_k' = phi_k - k phi_(k+1)
            return complex(reference_phi(k, a) - k * reference_phi(k + 1, a))
        return complex((reference_phi(k, a) - reference_phi(k, b)) / (a - b))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_propagator_matches_reference(alpha):
    p = ModelParams(alpha=alpha)
    for s in XI2:
        for t in TIMES:
            sym = propagator(s, t, p)
            for name, ref in reference_kernels(s, t, alpha).items():
                assert getattr(sym, name).dtype == np.float64, name
                err = relative_error(getattr(sym, name), ref)
                assert err <= RTOL, (name, s, t, err)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_batched_call_matches_scalar_calls(alpha):
    # the branch split works on masked subsets; a batch mixing both branches
    # must reproduce the per-point values exactly
    p = ModelParams(alpha=alpha)
    s, t = np.meshgrid(np.asarray(XI2), np.asarray(TIMES), indexing="ij")
    batch = propagator(s, t, p)
    for i, j in np.ndindex(s.shape):
        one = propagator(s[i, j], t[i, j], p)
        for name in ("sine", "cosine", "sine_dt", "cosine_dt"):
            assert getattr(batch, name)[i, j] == getattr(one, name)


@pytest.mark.parametrize("k", (0, 1, 2))
@pytest.mark.parametrize("alpha", ALPHAS)
def test_phi_divided_difference_matches_reference(alpha, k):
    # the ETD weights evaluate it at (lambda_+ h, lambda_- h)
    p = ModelParams(alpha=alpha)
    for s in XI2:
        roots = characteristic_roots(s, p)
        for h in TIMES:
            a = complex(roots.lambda_plus * h)
            b = complex(roots.lambda_minus * h)
            err = relative_error(phi_divided_difference(k, a, b),
                                 reference_divided_difference(k, a, b))
            assert err <= RTOL, (k, s, h, err)


def reference_etd_integrals(s: float, h: float, alpha: float) -> tuple[complex, complex]:
    """``int_0^h sine`` and ``int_0^h r sine(r) dr`` by mpmath quadrature."""
    with mpmath.workdps(60):
        s, h, a = mpmath.mpf(s), mpmath.mpf(h), mpmath.mpf(alpha)
        b = s * s - a * s
        c = s + s * s
        root = mpmath.sqrt(mpmath.mpc(b * b - 4 * c))
        lp, lm = (-b + root) / 2, (-b - root) / 2
        d = lp - lm

        def sine(r):
            if d == 0:
                return r * mpmath.exp(lm * r)
            return (mpmath.exp(lp * r) - mpmath.exp(lm * r)) / d

        i0 = mpmath.quad(sine, [0, h])
        i1 = mpmath.quad(lambda r: r * sine(r), [0, h])
        return complex(i0), complex(i1)


@pytest.mark.parametrize("h", (1e-3, 0.025, 0.5))
@pytest.mark.parametrize("alpha", ALPHAS)
def test_etd_integrals_match_quadrature(alpha, h):
    # the weights of the ETD step, evaluated on the whole sample set at once
    # as on a grid's half lattice
    p = ModelParams(alpha=alpha)
    i0, i1 = _etd_integrals(np.asarray(XI2), h, p)
    for s, num0, num1 in zip(XI2, i0, i1):
        ref0, ref1 = reference_etd_integrals(s, h, alpha)
        assert relative_error(num0, ref0) <= RTOL, ("I0", s, h)
        assert relative_error(num1, ref1) <= RTOL, ("I1", s, h)
