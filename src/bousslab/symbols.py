"""Fourier-multiplier symbols of the linear evolution.

Each spatial frequency ``xi`` evolves independently under the mode ODE

    v'' + b(|xi|^2) v' + c(|xi|^2) v = source,
    b = |xi|^4 - alpha |xi|^2   (damping; alpha <= -1 keeps b >= 0),
    c = |xi|^2 + |xi|^4         (restoring),

whose characteristic roots are
``lambda_pm = (-b +- sqrt(b^2 - 4c)) / 2``.  The solution with initial data
``(v, v')(0) = (v0, v1)`` is ``v(t) = cosine * v0 + sine * v1`` where

    sine   = (exp(lambda_+ t) - exp(lambda_- t)) / (lambda_+ - lambda_-),
    cosine = (lambda_+ exp(lambda_- t) - lambda_- exp(lambda_+ t)) / (lambda_+ - lambda_-),

the damped analogues of ``sin(|xi| t)/|xi|`` and ``cos(|xi| t)`` (the "sine
and cosine families" of second-order Cauchy problems).  Everything is
evaluated in complex arithmetic through a single code path; near-confluent
roots go through a stable ``expm1``-style divided difference rather than a
separate formula, so the two regimes agree to rounding in the switch band.

Low frequencies behave like a damped wave,
``lambda_pm = +-i|xi| + (alpha/2)|xi|^2 + O(|xi|^3)``, which motivates the
explicit profile symbols ``exp(alpha |xi|^2 t / 2) sin(|xi| t)/|xi|`` and
``exp(alpha |xi|^2 t / 2) cos(|xi| t)`` used in the profile-gap experiments.

The per-mode energy bookkeeping

    energy      E  = (1+s) |v'|^2 + {(1+s)(s+s^2) + s(s^2 - alpha s)} |v|^2
                     + 2 s Re(v' conj(v)),       s = |xi|^2
    dissipation F  = {2(1+s)(s^2 - alpha s) - 2s} |v'|^2 + 2s(s+s^2) |v|^2
    reduced     E0 = |v'|^2 + s(1+s) |v|^2

satisfies ``dE/dt + F = 0`` along solutions and ``E ~ (1+s) E0``, giving the
exponential mode decay rate ``decay_envelope(s) = s / (1+s)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: relative root separation below which the root pair is flagged confluent
DEGENERATE_RTOL = 1e-6

#: |(lambda_+ - lambda_-) * t| below which the divided difference of the
#: exponential is evaluated by series/expm1 instead of direct subtraction
_SERIES_SWITCH = 0.5


@dataclass(frozen=True)
class ModelParams:
    """Model constants: damping strength ``alpha`` and source weight ``beta``.

    The linear normalisation fixes the remaining coefficient to 1, which
    requires ``alpha <= -1`` (strong damping regime); ``beta > 0``.
    """

    alpha: float = -1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not (self.alpha <= -1.0):
            raise ValueError(f"alpha must satisfy alpha <= -1, got {self.alpha}")
        if not (self.beta > 0.0):
            raise ValueError(f"beta must be positive, got {self.beta}")


def damping_coefficient(xi2, params: ModelParams):
    """b(|xi|^2) = |xi|^4 - alpha |xi|^2 (>= 0 for alpha <= -1)."""
    xi2 = np.asarray(xi2, dtype=np.float64)
    return xi2 * xi2 - params.alpha * xi2


def restoring_coefficient(xi2):
    """c(|xi|^2) = |xi|^2 + |xi|^4."""
    xi2 = np.asarray(xi2, dtype=np.float64)
    return xi2 + xi2 * xi2


@dataclass(frozen=True)
class RootPair:
    """Characteristic roots of the mode ODE at one or many |xi|^2."""

    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    discriminant: np.ndarray
    degenerate: np.ndarray


def characteristic_roots(xi2, params: ModelParams) -> RootPair:
    """Roots of ``lam^2 + b lam + c = 0``; ``lambda_plus`` has Im >= 0.

    Both roots have nonpositive real part (dissipativity) and satisfy the
    Vieta identities ``lambda_+ + lambda_- = -b``, ``lambda_+ lambda_- = c``.
    """
    xi2 = np.asarray(xi2, dtype=np.float64)
    if np.any(xi2 < 0.0):
        raise ValueError("|xi|^2 must be nonnegative")
    b = damping_coefficient(xi2, params)
    c = restoring_coefficient(xi2)
    disc = b * b - 4.0 * c
    sq = np.sqrt(disc.astype(np.complex128))
    # principal sqrt of a negative real is +i sqrt(|disc|): Im(lambda_plus) >= 0
    lam_p = 0.5 * (-b + sq)
    lam_m = 0.5 * (-b - sq)
    # real-root case: -b + sq cancels for the small root; recover it from the
    # root product so both roots satisfy the residual contract
    real_pair = (disc > 0.0) & (b > 0.0)
    if np.any(real_pair):
        lam_p = np.where(real_pair, c / np.where(real_pair, lam_m, 1.0), lam_p)
    degenerate = np.abs(lam_p - lam_m) < DEGENERATE_RTOL * np.maximum(1.0, np.abs(lam_p))
    return RootPair(lambda_plus=lam_p, lambda_minus=lam_m,
                    discriminant=disc, degenerate=degenerate)


# ---------------------------------------------------------------------------
# stable elementary pieces: expm1 and the phi functions for complex arguments
# ---------------------------------------------------------------------------


def _expm1c(z: np.ndarray) -> np.ndarray:
    """``exp(z) - 1`` for complex ``z`` without cancellation near 0.

    exp(x+iy) - 1 = expm1(x) + exp(x) * ((cos y - 1) + i sin y), and
    cos y - 1 = -2 sin(y/2)^2 is evaluated without subtraction.
    """
    z = np.asarray(z, dtype=np.complex128)
    x, y = z.real, z.imag
    ex = np.exp(x)
    return np.expm1(x) + ex * (-2.0 * np.sin(0.5 * y) ** 2 + 1j * np.sin(y))


_FACTORIALS = np.array([math.factorial(i) for i in range(24)], dtype=np.float64)


def phi(k: int, z) -> np.ndarray:
    """Exponential remainder function ``phi_k``.

    ``phi_0 = exp``, ``phi_{k+1}(z) = (phi_k(z) - 1/k!) / z``, equivalently
    ``phi_k(z) = sum_{m>=0} z^m / (m+k)!``.  Series for |z| < 1/2, upward
    recurrence from ``expm1`` otherwise; both branches agree to rounding at
    the switch.  Each branch is evaluated only on its own elements.
    """
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty(z.shape, dtype=np.complex128)
    small = np.abs(z) < _SERIES_SWITCH
    if np.any(small):
        zs = z[small]
        series = np.zeros_like(zs)
        for m in range(17, -1, -1):
            series = series * zs + 1.0 / _FACTORIALS[m + k]
        out[small] = series
    big = ~small
    if np.any(big):
        zb = z[big]
        if k == 0:
            out[big] = np.exp(zb)
        else:
            val = _expm1c(zb) / zb
            for j in range(1, k):
                val = (val - 1.0 / _FACTORIALS[j]) / zb
            out[big] = val
    return out


def phi_divided_difference(k: int, a, b) -> np.ndarray:
    """First divided difference ``(phi_k(a) - phi_k(b)) / (a - b)``, stable.

    Three regimes: a joint power series when both arguments are small, a
    centred-derivative expansion when they are nearly equal, and the direct
    quotient otherwise.  Used for the closed-form integrator weights, with
    the same confluence guard as the propagator symbols.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    a, b = np.broadcast_arrays(a, b)
    out = np.empty(a.shape, dtype=np.complex128)

    mag = np.maximum(np.abs(a), np.abs(b))
    both_small = mag < _SERIES_SWITCH
    near = (~both_small) & (np.abs(a - b) <= 1e-3 * np.maximum(1.0, mag))
    direct = ~(both_small | near)

    if np.any(both_small):
        aa, bb = a[both_small], b[both_small]
        # sum_j p_j(a, b) / (j + k + 1)!, p_j = sum_{i<=j} a^i b^(j-i)
        acc = np.zeros_like(aa)
        p = np.ones_like(aa)
        acc = acc + p / _FACTORIALS[k + 1]
        bpow = np.ones_like(bb)
        for j in range(1, 18):
            bpow = bpow * bb
            p = aa * p + bpow
            acc = acc + p / _FACTORIALS[j + k + 1]
        out[both_small] = acc

    if np.any(near) and k == 0:
        # (e^a - e^b) / (a - b) = e^m sinh(h) / h, h = (a - b) / 2, for any
        # separation; the band is relative, so |a - b| reaches 1e-3 |a|, where
        # the truncated expansion below would lose e^m d^4 / 1920
        m = 0.5 * (a[near] + b[near])
        h = 0.5 * (a[near] - b[near])
        tiny = np.abs(h) < 1e-4
        hs = np.where(tiny, 1.0, h)
        out[near] = np.exp(m) * np.where(tiny, 1.0 + h * h / 6.0, np.sinh(hs) / hs)
    elif np.any(near):
        m = 0.5 * (a[near] + b[near])
        d = a[near] - b[near]
        pk = [phi(k + j, m) for j in range(4)]
        first = pk[0] - k * pk[1]
        third = (pk[0] - 3 * k * pk[1] + 3 * k * (k + 1) * pk[2]
                 - k * (k + 1) * (k + 2) * pk[3])
        out[near] = first + (d * d / 24.0) * third

    if np.any(direct):
        aa, bb = a[direct], b[direct]
        out[direct] = (phi(k, aa) - phi(k, bb)) / (aa - bb)
    return out


@dataclass(frozen=True)
class PropagatorSymbols:
    """Per-frequency solution kernels and their time derivatives.

    ``sine`` maps initial velocity to displacement, ``cosine`` maps initial
    displacement to displacement; ``*_dt`` are their t-derivatives, so the
    per-mode state evolves by the 2x2 matrix [[cosine, sine],
    [cosine_dt, sine_dt]].  Values are complex dtype but real up to rounding
    (the root pair is either real or conjugate), with exact initial values
    sine=0, cosine=1, sine_dt=1, cosine_dt=0 at t=0.
    """

    sine: np.ndarray
    cosine: np.ndarray
    sine_dt: np.ndarray
    cosine_dt: np.ndarray


def _exp_divided_difference(lam_p: np.ndarray, lam_m: np.ndarray, t: np.ndarray,
                            force: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(exp(lam_p t) - exp(lam_m t)) / (lam_p - lam_m)`` and ``exp(lam_m t)``.

    When ``|(lam_p - lam_m) t| <= 1/2`` the difference is written as
    ``t exp(lam_m t) phi_1((lam_p - lam_m) t)``, which is exact at confluent
    roots and at t = 0; otherwise the direct quotient is safe.  Each branch
    is evaluated only on its own elements, and ``exp(lam_m t)``, which both
    branches and the derived kernels use, once.  ``force``
    ("series"/"direct") pins a branch, for branch-agreement checks only.
    """
    delta = lam_p - lam_m
    z = delta * t
    em = np.exp(lam_m * t)
    if force == "series":
        small = np.ones(np.shape(z), dtype=bool)
    elif force == "direct":
        small = np.zeros(np.shape(z), dtype=bool)
    else:
        small = np.abs(z) <= _SERIES_SWITCH
    out = np.empty(np.shape(z), dtype=np.complex128)
    if np.any(small):
        out[small] = t[small] * em[small] * phi(1, z[small])
    direct = ~small
    if np.any(direct):
        out[direct] = (np.exp(lam_p[direct] * t[direct]) - em[direct]) / delta[direct]
    return out, em


def propagator(xi2, t, params: ModelParams, _force_branch: str | None = None) -> PropagatorSymbols:
    """Solution kernels of the mode ODE at (possibly arrays of) ``|xi|^2, t >= 0``.

    Derived quantities reuse the one stable divided difference ``sine`` and
    ``exp(lam_- t)``:
    ``sine_dt = lam_+ sine + exp(lam_- t)``,
    ``cosine = exp(lam_- t) - lam_- sine``,
    ``cosine_dt = -c sine``  (c = restoring coefficient).
    """
    xi2 = np.asarray(xi2, dtype=np.float64)
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0.0):
        raise ValueError("time must be nonnegative")
    roots = characteristic_roots(xi2, params)
    lam_p, lam_m, t_b = np.broadcast_arrays(roots.lambda_plus, roots.lambda_minus, t_arr)
    c = restoring_coefficient(np.broadcast_arrays(xi2, t_arr)[0])

    sine, em = _exp_divided_difference(lam_p, lam_m, t_b, force=_force_branch)
    sine_dt = lam_p * sine + em
    cosine = em - lam_m * sine
    cosine_dt = -c * sine
    return PropagatorSymbols(sine=sine, cosine=cosine,
                             sine_dt=sine_dt, cosine_dt=cosine_dt)


def profile_symbols(xi2, t, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Low-frequency asymptotic kernels (damped sinc and damped cosine).

    ``profile_sine = exp(alpha |xi|^2 t / 2) sin(|xi| t) / |xi|`` (value t at
    xi = 0) and ``profile_cosine = exp(alpha |xi|^2 t / 2) cos(|xi| t)``.
    These are the leading behaviour of ``sine``/``cosine`` for |xi| -> 0.
    """
    xi2 = np.asarray(xi2, dtype=np.float64)
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(xi2 < 0.0):
        raise ValueError("|xi|^2 must be nonnegative")
    if np.any(t_arr < 0.0):
        raise ValueError("time must be nonnegative")
    r = np.sqrt(xi2)
    damp = np.exp(0.5 * params.alpha * xi2 * t_arr)
    # sin(r t)/r = t * sinc(r t / pi), exact at r = 0
    g0 = damp * t_arr * np.sinc(r * t_arr / math.pi)
    h0 = damp * np.cos(r * t_arr)
    return g0, h0


def decay_envelope(xi2) -> np.ndarray:
    """Exponential mode decay rate shape ``|xi|^2 / (1 + |xi|^2)``."""
    xi2 = np.asarray(xi2, dtype=np.float64)
    return xi2 / (1.0 + xi2)


@dataclass(frozen=True)
class ModeEnergy:
    """Per-mode energy, its dissipation functional, and the reduced energy."""

    energy: np.ndarray
    dissipation: np.ndarray
    reduced: np.ndarray


def mode_energy(xi2, v_hat, vdot_hat, params: ModelParams) -> ModeEnergy:
    """Energy bookkeeping for one mode; ``d(energy)/dt + dissipation = 0``.

    ``energy`` is equivalent to ``(1 + |xi|^2) * reduced`` with constants
    independent of xi, which is what turns the identity into the exponential
    envelope ``exp(-c * decay_envelope(xi2) * t)``.
    """
    s = np.asarray(xi2, dtype=np.float64)
    v = np.asarray(v_hat, dtype=np.complex128)
    w = np.asarray(vdot_hat, dtype=np.complex128)
    b = damping_coefficient(s, params)
    c = restoring_coefficient(s)
    av2 = np.abs(v) ** 2
    aw2 = np.abs(w) ** 2
    cross = (w * np.conj(v)).real
    energy = (1.0 + s) * aw2 + ((1.0 + s) * c + s * b) * av2 + 2.0 * s * cross
    dissipation = (2.0 * (1.0 + s) * b - 2.0 * s) * aw2 + 2.0 * s * c * av2
    reduced = aw2 + s * (1.0 + s) * av2
    return ModeEnergy(energy=energy, dissipation=dissipation, reduced=reduced)
