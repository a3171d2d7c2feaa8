"""The radial quadrature's rule table is the Gauss-Kronrod pair G12/K25.

Oracle: the rule re-derived in mpmath at 50 digits.  The Stieltjes
polynomial ``E_13 = x^13 + ...`` is orthogonal to ``P_12 x^k`` for every
``k <= 12`` (exact rational moments); its 13 roots are the Kronrod nodes,
and the 25 K25 weights solve the moment equations to degree 24 on the
Gauss and Kronrod nodes together.  The G12 part of the table is
``numpy.polynomial.legendre.leggauss(12)`` bitwise, so the tail sums keep
the nodes and weights they had before the Kronrod extension.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from bousslab.linear import _GAUSS_ORDER, _KRONROD_ORDER, _gauss_kronrod

mpmath = pytest.importorskip("mpmath")

DIGITS = 50


def moment(k: int) -> Fraction:
    """``int_-1^1 x^k dx``."""
    return Fraction(0) if k % 2 else Fraction(2, k + 1)


def legendre(n: int) -> list[Fraction]:
    """The coefficients of ``P_n``, lowest power first (Bonnet's recursion)."""
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    for k in range(1, n):
        nxt = [Fraction(2 * k + 1, k + 1) * c for c in [Fraction(0)] + cur]
        for i, c in enumerate(prev):
            nxt[i] -= Fraction(k, k + 1) * c
        prev, cur = cur, nxt
    return cur


def mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def roots(coefficients) -> list:
    """The real roots, ascending, of a polynomial given lowest power first."""
    found = mpmath.polyroots(coefficients[::-1], maxsteps=200, extraprec=4 * DIGITS)
    return sorted(mpmath.re(r) for r in found)


@lru_cache(maxsize=1)
def derived_rule() -> tuple[list, list, list, list]:
    """Gauss nodes, their G12 weights, Kronrod nodes and the 25 K25 weights
    (Gauss nodes first), at ``DIGITS`` digits."""
    with mpmath.workdps(DIGITS):
        n = _GAUSS_ORDER
        p = legendre(n)

        def against_p(k):  # int P_12 x^k
            return sum(c * moment(i + k) for i, c in enumerate(p))

        # E_13 is odd: x^13 + sum c_j x^j over odd j < 13; orthogonality to
        # P_12 x^k holds by parity for even k, which leaves six equations
        odd = range(1, n, 2)
        a = mpmath.matrix([[mpf(against_p(j + k)) for j in odd] for k in odd])
        rhs = mpmath.matrix([-mpf(against_p(n + 1 + k)) for k in odd])
        c = mpmath.lu_solve(a, rhs)
        stieltjes = [mpmath.mpf(0)] * (n + 2)
        stieltjes[n + 1] = mpmath.mpf(1)
        for j, cj in zip(odd, c):
            stieltjes[j] = cj
        gauss, kronrod = roots([mpf(x) for x in p]), roots(stieltjes)

        def moment_weights(nodes):
            v = mpmath.matrix([[x**k for x in nodes] for k in range(len(nodes))])
            return list(mpmath.lu_solve(v, mpmath.matrix([mpf(moment(k))
                                                          for k in range(len(nodes))])))

        return gauss, moment_weights(gauss), kronrod, moment_weights(gauss + kronrod)


def within_one_ulp(table, derived) -> bool:
    ref = np.array([float(v) for v in derived])
    return bool(np.all(np.abs(np.asarray(table) - ref) <= np.spacing(np.abs(ref))))


def quadrature_error(nodes, weights, k: int):
    """``|sum w x^k - int_-1^1 x^k dx|`` in ``DIGITS``-digit arithmetic."""
    with mpmath.workdps(DIGITS):
        q = mpmath.fsum(mpmath.mpf(w) * mpmath.mpf(x) ** k for x, w in zip(nodes, weights))
        return abs(q - mpf(moment(k)))


def test_the_table_is_the_derived_rule_rounded_to_float64():
    x, gauss_w, kronrod_w = _gauss_kronrod()
    gauss, derived_gauss_w, kronrod, derived_kronrod_w = derived_rule()
    assert (x.shape, gauss_w.shape, kronrod_w.shape) == (
        (_KRONROD_ORDER,), (_GAUSS_ORDER,), (_KRONROD_ORDER,))
    assert within_one_ulp(x, gauss + kronrod)
    assert within_one_ulp(kronrod_w, derived_kronrod_w)
    # leggauss(12)'s weights are not correctly rounded: 8.8e-15 relative (60 ulp)
    ref = np.array([float(v) for v in derived_gauss_w])
    assert np.max(np.abs(gauss_w - ref) / ref) <= 2e-14


def test_the_gauss_part_is_leggauss_bitwise():
    x, gauss_w, _ = _gauss_kronrod()
    lx, lw = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    assert np.array_equal(x[:_GAUSS_ORDER], lx)
    assert np.array_equal(gauss_w, lw)


def test_all_weights_are_positive():
    _, gauss_w, kronrod_w = _gauss_kronrod()
    assert np.all(gauss_w > 0.0) and np.all(kronrod_w > 0.0)


def test_k25_is_exact_to_degree_37_and_not_38():
    gauss, _, kronrod, derived_kronrod_w = derived_rule()
    derived = [quadrature_error(gauss + kronrod, derived_kronrod_w, k) for k in range(39)]
    assert max(derived[:38]) < mpmath.mpf(10) ** (10 - DIGITS)
    assert derived[38] > 1e-14
    # the float64 table: its rounding stays far below degree 38's error
    x, _, kronrod_w = _gauss_kronrod()
    table = [quadrature_error(x, kronrod_w, k) for k in range(39)]
    assert max(table[:38]) < 1e-15
    assert table[38] > 1e-14
