"""Radau IIA (order 5) for ``y' = J y + s(t, y)`` with a 2 x 2 block linear part.

The state is a real vector of length ``n = 2 m`` holding ``m`` pairs: the
``u`` components in ``y[:m]`` and their velocities ``v`` in ``y[m:]``.  The
linear part acts on each pair ``(u_k, v_k)`` as the block
``[[0, 1], [-c_k, -b_k]]`` and the forcing ``s`` enters the ``v`` rows
only, so ``y' = (v, -b v - c u + s(t, y))``.

The method is the three-stage Radau IIA collocation method with an
embedded third-order error estimate, a simplified Newton iteration on the
constant Jacobian ``J`` and a predictive step-size controller (Hairer &
Wanner, *Solving Ordinary Differential Equations II*, section IV.8).  It is
the algorithm of ``scipy.integrate.solve_ivp(method="Radau")`` given a
constant Jacobian, step for step: the same constants, initial step,
Newton stopping test, error estimate, step-size rules and collocation dense
output, so step counts and results agree with scipy's to rounding.  Two
things differ, both in how a step is computed, not in what it computes:

* each Newton system ``(sigma I - J) x = p``, for the real and for the
  complex eigenvalue ``sigma`` of the transformed Radau matrix, is solved
  per block in closed form, ``x_u = ((sigma + b) p_u + p_v) / det`` and
  ``x_v = (sigma p_v - c p_u) / det`` with ``det = sigma (sigma + b) + c``,
  instead of by a sparse LU factorisation;
* the three stage right-hand sides of a Newton iteration are one call of
  ``s`` on the stacked stage states.

``s(t, y)`` is called with ``y`` of shape ``(n,)`` and a float ``t``, or
with the stages ``y`` of shape ``(3, n)`` and their times ``t`` of shape
``(3,)``, and returns the forcing of shape ``(m,)`` or ``(3, m)``.

The entry point :func:`_radau_iia` is private: the public oracle is
:func:`bousslab.nonlinear.reference_solve`, whose run time this module's
time belongs to.
"""

from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(float).eps

S6 = 6 ** 0.5

# collocation nodes and the embedded error weights
C = np.array([(4 - S6) / 10, (4 + S6) / 10, 1])
E = np.array([-13 - 7 * S6, -13 + 7 * S6, -1]) / 3

# the Radau matrix is A = T diag(MU_REAL, MU_COMPLEX, conj) T^-1 (eigenvalues
# of A^-1), with T and TI = T^-1 written in the real basis of the pair
MU_REAL = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
MU_COMPLEX = (3 + 0.5 * (3 ** (1 / 3) - 3 ** (2 / 3))
              - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6)))
T = np.array([
    [0.09443876248897524, -0.14125529502095421, 0.03002919410514742],
    [0.25021312296533332, 0.20412935229379994, -0.38294211275726192],
    [1, 1, 0]])
TI = np.array([
    [4.17871859155190428, 0.32768282076106237, 0.52337644549944951],
    [-4.17871859155190428, -0.32768282076106237, 0.47662355450055044],
    [0.50287263494578682, -2.57192694985560522, 0.59603920482822492]])

# dense output: y(t_old + x h) = y_old + sum_k x^(k+1) (P^T Z)[k]
P = np.array([
    [13/3 + 7*S6/3, -23/3 - 22*S6/3, 10/3 + 5 * S6],
    [13/3 - 7*S6/3, -23/3 + 22*S6/3, 10/3 - 5 * S6],
    [1/3, -8/3, 10/3]])

NEWTON_MAXITER = 6  # most Newton iterations per attempted step
MIN_FACTOR = 0.2  # smallest step-size factor after a rejected step
MAX_FACTOR = 10  # largest step-size factor after an accepted step


class RadauError(RuntimeError):
    """The integrator gave up: its step size fell below the floor."""


def _rms(x: np.ndarray) -> float:
    """Root mean square of the entries of a contiguous array."""
    flat = x.reshape(-1)
    return math.sqrt(flat.dot(flat)) / flat.size ** 0.5


class _BlockSolve:
    """``x = (sigma I - J)^-1 p`` for one shift ``sigma``, block by block.

    The inverse of ``[[sigma, -1], [c, sigma + b]]`` is
    ``[[sigma + b, 1], [-c, sigma]] / det``; its four entries are kept per
    block, real for a real ``sigma`` and complex for a complex one.
    """

    def __init__(self, sigma: float | complex, b: np.ndarray, c: np.ndarray):
        # a step near the floor overflows sigma; the NaN coefficients then
        # stop the Newton iteration from converging, and the step halves
        with np.errstate(over="ignore", invalid="ignore"):
            det = sigma * (sigma + b) + c
            # x_u = from_u[0] p_u + from_v[0] p_v, x_v = from_u[1] p_u + from_v[1] p_v
            self.from_u = np.stack([(sigma + b) / det, -c / det])
            self.from_v = np.stack([1.0 / det, sigma / det])
        self.m = b.size

    def __call__(self, p: np.ndarray) -> np.ndarray:
        x = self.from_u * p[:self.m]
        x += self.from_v * p[self.m:]
        return x.reshape(-1)


def _collocation(fun, t: float, y: np.ndarray, h: float, Z0: np.ndarray,
                 scale: np.ndarray, tol: float, lu_real: _BlockSolve,
                 lu_complex: _BlockSolve):
    """Simplified Newton iteration for the stage increments ``Z`` of one step.

    Returns ``(converged, n_iter, Z, rate)``.  The iteration runs on
    ``W = TI Z``, in which the Newton matrix splits into a real and a
    complex system; it stops when the predicted distance to the solution is
    below ``tol`` and gives up when the contraction rate reaches 1 or the
    remaining iterations cannot reach ``tol``.
    """
    m_real = MU_REAL / h
    m_complex = MU_COMPLEX / h
    # f = TI F - M W with M the real form of diag(m_real, m_complex)
    shift = np.array([[m_real, 0.0, 0.0],
                      [0.0, m_complex.real, -m_complex.imag],
                      [0.0, m_complex.imag, m_complex.real]])
    W = TI.dot(Z0)
    Z = Z0
    ch = h * C
    dW_norm_old = None
    dW = np.empty_like(W)
    converged = False
    rate = None
    for k in range(NEWTON_MAXITER):
        F = fun(t + ch, y + Z)
        if not np.isfinite(F).all():
            break
        f = TI.dot(F)
        f -= shift.dot(W)
        dW[0] = lu_real(f[0])
        dW_complex = lu_complex(f[1] + 1j * f[2])
        dW[1] = dW_complex.real
        dW[2] = dW_complex.imag
        dW_norm = _rms(dW / scale)
        if dW_norm_old is not None:
            rate = dW_norm / dW_norm_old
        if (rate is not None and (rate >= 1 or
                rate ** (NEWTON_MAXITER - k) / (1 - rate) * dW_norm > tol)):
            break
        W += dW
        Z = T.dot(W)
        if (dW_norm == 0 or
                rate is not None and rate / (1 - rate) * dW_norm < tol):
            converged = True
            break
        dW_norm_old = dW_norm
    return converged, k + 1, Z, rate


def _predict_factor(h_abs: float, h_abs_old: float | None, error_norm: float,
                    error_norm_old: float | None) -> float:
    """Step-size factor of the predictive (Gustafsson) controller."""
    if error_norm_old is None or h_abs_old is None or error_norm == 0:
        multiplier = 1
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
    if error_norm == 0:
        return math.inf
    return min(1, multiplier) * error_norm ** -0.25


def _initial_step(fun, y0: np.ndarray, f0: np.ndarray, t_bound: float,
                  tol: float) -> float:
    """First step size from one trial Euler step (Hairer, Norsett & Wanner,
    *Solving ODEs I*, section II.4), for an error estimate of order 3.
    """
    scale = tol + np.abs(y0) * tol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    f1 = fun(h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 4)
    return min(100 * h0, h1, t_bound)


def _evaluate(dense, times: np.ndarray) -> np.ndarray:
    """The collocation polynomial of an accepted step at ``times``, one row each."""
    t_old, h, y_old, Q = dense
    x = (times - t_old) / h
    powers = np.cumprod(np.repeat(x[:, None], 3, axis=1), axis=1)
    return powers.dot(Q) + y_old


def _radau_iia(forcing, b: np.ndarray, c: np.ndarray, y0: np.ndarray,
              t_bound: float, tol: float, t_eval: np.ndarray) -> np.ndarray:
    """Integrate ``y' = (v, -b v - c u + forcing(t, y))`` from ``y0`` at 0 to ``t_bound``.

    ``b`` and ``c`` have length ``m = y0.size // 2``; ``tol`` is both the
    relative and the absolute tolerance.  Returns the dense-output states
    at ``t_eval`` (sorted, within ``[0, t_bound]``), shape
    ``(t_eval.size, y0.size)``.  Raises :class:`RadauError` when the step
    size falls below ten units in the last place of the current time;
    exceptions of ``forcing`` propagate.
    """
    y = np.asarray(y0, dtype=np.float64)
    if not np.isfinite(y).all():
        raise ValueError("the initial state must be finite")
    m = b.size
    neg_b = -b

    def fun(t, y: np.ndarray) -> np.ndarray:
        f = np.empty_like(y)
        f[..., :m] = y[..., m:]
        acc = np.multiply(neg_b, y[..., m:], out=f[..., m:])
        acc -= c * y[..., :m]
        acc += forcing(t, y)
        return f

    out = np.empty((t_eval.size, y.size))
    done = 0
    t = 0.0
    f = fun(t, y)
    h_abs = _initial_step(fun, y, f, t_bound, tol)
    h_abs_old = error_norm_old = None
    newton_tol = max(10 * EPS / tol, min(0.03, tol ** 0.5))
    lu_real = lu_complex = None
    dense = None  # (t_old, h, y_old, P^T Z) of the last accepted step

    while t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        step_abs, step_abs_old, norm_old = h_abs, h_abs_old, error_norm_old
        if step_abs < min_step:
            step_abs, step_abs_old, norm_old = min_step, None, None
        rejected = False
        while True:
            if step_abs < min_step:
                raise RadauError(f"step size {step_abs:.3g} fell below the floor "
                                 f"{min_step:.3g} at t={t:.6g}")
            t_new = min(t + step_abs, t_bound)
            h = t_new - t
            step_abs = abs(h)
            if dense is None:
                Z0 = np.zeros((3, y.size))
            else:
                Z0 = _evaluate(dense, t + h * C) - y
            scale = tol + np.abs(y) * tol
            if lu_real is None:
                lu_real = _BlockSolve(MU_REAL / h, b, c)
                lu_complex = _BlockSolve(MU_COMPLEX / h, b, c)
            converged, n_iter, Z, rate = _collocation(
                fun, t, y, h, Z0, scale, newton_tol, lu_real, lu_complex)
            if not converged:
                step_abs *= 0.5
                lu_real = lu_complex = None
                continue

            y_new = y + Z[-1]
            ZE = E.dot(Z) / h
            error = lu_real(f + ZE)
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
            error_norm = _rms(error / scale)
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + n_iter)
            if rejected and error_norm > 1:
                error = lu_real(fun(t, y + error) + ZE)
                error_norm = _rms(error / scale)
            if error_norm <= 1:
                break
            factor = _predict_factor(step_abs, step_abs_old, error_norm, norm_old)
            step_abs *= max(MIN_FACTOR, safety * factor)
            lu_real = lu_complex = None
            rejected = True

        factor = _predict_factor(step_abs, step_abs_old, error_norm, norm_old)
        factor = min(MAX_FACTOR, safety * factor)
        if factor < 1.2:
            factor = 1
        else:
            lu_real = lu_complex = None
        # the controller's memory is the step size proposed for this step,
        # before the floor and the end of the interval adjusted it
        h_abs_old = h_abs
        error_norm_old = error_norm
        h_abs = step_abs * factor
        dense = (t, h, y, P.T.dot(Z))
        t, y = t_new, y_new
        f = fun(t, y)

        # the output times in (t_old, t], and t = 0 with the first step
        upto = np.searchsorted(t_eval, t, side="right")
        if upto > done:
            out[done:upto] = _evaluate(dense, t_eval[done:upto])
            done = upto
    return out
