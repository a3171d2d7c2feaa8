"""The Radau IIA integrator against scipy's, on a problem that rejects steps.

:func:`bousslab.radau._radau_iia` follows ``scipy.integrate.solve_ivp(
method="Radau")`` step for step.  The spectral problems of
``tests/test_nonlinear.py`` almost never reject a step, so this test drives
a small block system through a narrow forcing pulse: the controller rejects
and shrinks steps on the way in and grows them on the way out, at several
tolerances.  Both integrators get the same right-hand side, the scipy one
with the exact linear Jacobian as a sparse matrix.
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


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
def test_matches_scipy_radau_through_rejected_steps(tol):
    states = [0]

    def counted(t, y):
        states[0] += y.shape[0] if y.ndim == 2 else 1
        return forcing(t, y)

    def rhs(t, y):
        return np.concatenate([y[M:], -B * y[M:] - C * y[:M] + forcing(t, y)])

    k = np.arange(M)
    jac = csc_matrix((np.concatenate([np.ones(M), -B, -C]),
                      (np.concatenate([k, M + k, M + k]),
                       np.concatenate([M + k, M + k, k]))), shape=(2 * M, 2 * M))
    t_eval = np.linspace(0.0, 2.0, 9)
    sol = solve_ivp(rhs, (0.0, 2.0), Y0, method="Radau", rtol=tol, atol=tol,
                    jac=jac, t_eval=t_eval)
    assert sol.success
    out = _radau_iia(counted, B, C, Y0, 2.0, tol, t_eval)
    assert states[0] == sol.nfev
    assert np.array_equal(out[0], Y0)
    assert np.max(np.abs(out - sol.y.T)) <= 1e-12 * np.max(np.abs(sol.y))
