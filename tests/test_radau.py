"""The Radau IIA integrator against scipy's, on a problem that rejects steps.

:func:`bousslab.radau._radau_iia` follows ``scipy.integrate.solve_ivp(
method="Radau")`` step for step.  The spectral problems of
``tests/test_nonlinear.py`` almost never reject a step, so this test drives
a small block system through a narrow forcing pulse: the controller rejects
and shrinks steps on the way in and grows them on the way out, at several
tolerances.  A second, stiffly damped system makes the error re-estimate
that follows a rejection decide a step.  Both integrators get the same
right-hand side, the scipy one with the exact linear Jacobian as a sparse
matrix.
"""
from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.sparse import csc_matrix

from bousslab.radau import _radau_iia

M = 6
B = np.linspace(0.0, 50.0, M)
C = np.linspace(0.0, 400.0, M)
Y0 = np.concatenate([np.linspace(1.0, 0.2, M), np.zeros(M)])
WEIGHTS = np.linspace(1.0, 2.0, M)


def forcing(t, y: np.ndarray) -> np.ndarray:
    """A time pulse at t = 0.6 of width 0.01 plus a weak quadratic term;
    ``t`` is a float for one state and an array of times for stacked ones.
    """
    pulse = np.exp(-((np.asarray(t) - 0.6) / 0.01) ** 2)
    return pulse[..., None] * WEIGHTS + 0.1 * y[..., :M] ** 2


def assert_matches_scipy(forcing, b: np.ndarray, c: np.ndarray, y0: np.ndarray,
                         tol: float) -> None:
    """Same right-hand-side count and the same states to 1e-12 as scipy's
    Radau with the exact linear Jacobian, at nine times in [0, 2]."""
    m = b.size
    states = [0]

    def counted(t, y):
        states[0] += y.shape[0] if y.ndim == 2 else 1
        return forcing(t, y)

    def rhs(t, y):
        return np.concatenate([y[m:], -b * y[m:] - c * y[:m] + forcing(t, y)])

    k = np.arange(m)
    jac = csc_matrix((np.concatenate([np.ones(m), -b, -c]),
                      (np.concatenate([k, m + k, m + k]),
                       np.concatenate([m + k, m + k, k]))), shape=(2 * m, 2 * m))
    t_eval = np.linspace(0.0, 2.0, 9)
    sol = solve_ivp(rhs, (0.0, 2.0), y0, method="Radau", rtol=tol, atol=tol,
                    jac=jac, t_eval=t_eval)
    assert sol.success
    out = _radau_iia(counted, b, c, y0, 2.0, tol, t_eval)
    assert states[0] == sol.nfev
    assert np.array_equal(out[0], y0)
    assert np.max(np.abs(out - sol.y.T)) <= 1e-12 * np.max(np.abs(sol.y))


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
def test_matches_scipy_radau_through_rejected_steps(tol):
    assert_matches_scipy(forcing, B, C, Y0, tol)


def test_error_re_estimate_after_a_second_rejection_decides_the_step():
    # damping up to 5e5 makes the first step stiff: it is rejected once,
    # then the second try's first error estimate (4.6) would reject it
    # again, and the re-estimate from f(t, y + error) (0.37) accepts it;
    # without the re-estimate the run makes 172 instead of 127 right-hand
    # side evaluations and misses scipy's states by 1e-6
    m = 4
    b = np.linspace(0.0, 5e5, m)
    c = np.linspace(0.0, 10.0, m)
    y0 = np.concatenate([np.linspace(1.0, 0.2, m), np.zeros(m)])
    weights = 6000.0 * np.linspace(1.0, 2.0, m)

    def stiff_forcing(t, y: np.ndarray) -> np.ndarray:
        pulse = np.exp(-((np.asarray(t) - 0.6) / 0.001) ** 2)
        return pulse[..., None] * weights + 0.1 * y[..., :m] ** 2

    assert_matches_scipy(stiff_forcing, b, c, y0, 1e-6)
