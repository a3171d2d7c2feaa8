"""Nonlinear evolution: exponential integrator, fixed-point map, RK oracle.

The equation treated here drives the linear flow with a Laplacian of a
pointwise source built from the state,

    u_tt + (linear part) = Laplacian( f(u) + sign * beta * g(u_t) ),

so per Fourier mode the update is a forced version of the mode ODE and the
variation-of-constants formula applies with the propagator kernels:

    v(t+dt) = cosine(dt) v + sine(dt) v' + int_0^dt sine(dt - s) S(t+s) ds,
    v'(t+dt) = cosine_dt(dt) v + sine_dt(dt) v' + int_0^dt sine_dt(dt - s) S(t+s) ds.

Three independent realisations are provided and cross-checked:

* :func:`march` -- the second-order multistep exponential integrator ETD2
  of Cox & Matthews (the source is extrapolated linearly in s from the last
  two step points, so each step evaluates it once), started by one
  two-stage ETD2RK step; its weights are closed forms in the characteristic
  roots.  It is a generator that yields the state at each output time, so
  a consumer that reduces the states as they come holds one state, never
  the run; :func:`solve` collects them;
* :func:`picard_iterate` -- the global-in-time fixed-point map evaluated
  with trapezoid quadrature on a fixed mesh, whose iterates contract for
  small data; the kernels come from one evaluation over the distinct lags
  ``t_i - tau_j`` of the mesh (``M`` of them on a uniform ``M``-point mesh
  with an exact step), plus one over all mesh times for the linear part;
  the Duhamel sum is taken column by column from that table, and the
  sources at the mesh times come from one batched evaluation;
* :func:`reference_solve` -- a method-of-lines oracle that never touches the
  closed-form kernels: the spectral mode system integrated by the implicit
  Radau IIA method of :mod:`bousslab.radau`, whose state vector holds the
  real and imaginary parts of the half spectra.  Its Newton systems use
  the exact Jacobian of the linear part, one 2 x 2 block per mode
  component, solved in closed form; its three stage sources per Newton
  iteration are one batched evaluation.

All three carry the state as the stacked half spectra ``(u_hat, ut_hat)``
(``rfftn`` layout, see :mod:`bousslab.spectral`), give those spectra at
the output times (:func:`solve`, :func:`picard_iterate` and
:func:`reference_solve` as a :class:`Trajectory`, :func:`march` one state
at a time), and evaluate the source through
one evaluator, :class:`_Source`: both fields are truncated by the 2/3
rule and inverse-transformed in one batched call, the pointwise powers are
formed in physical space, and one forward transform times one real weight
gives the spectral source.  The two transform scales ride on the real
factors: the truncation carries ``1/fft_scale`` and the weight
``-|xi|^2 fft_scale``, so no pass rescales a field.  Both transforms are
pruned to the modes the truncation keeps: the leading-axis passes skip the
half-spectrum columns above ``N//3`` (in 3-D also the outer pass over the
masked middle-axis rows), which hold zeros on input, and every masked mode
is zeroed on output, so the kept modes are bitwise those of the
whole-array transforms.

The ETD stepper folds the source's weight into its own coefficients and
takes the unweighted forward spectrum (:meth:`_Source.unweighted`), so
after its start a step is one accumulation,

    y+ = from_u u + from_ut u_t + from_now S_n + from_prev S_{n-1},

over the state and the unweighted sources of this step and the last.

The pointwise powers of a growing state overflow, which the evaluator
reports as :class:`BlowUpError`.  It does not silence numpy's overflow
warnings itself (an ``np.errstate`` costs several microseconds per
evaluation); each solver enters one ``np.errstate(over="ignore",
invalid="ignore")`` around the loop that owns its evaluator.  Numpy's error
state is a context variable that a generator does not restore when it
yields, so :func:`march` enters it around the steps between two outputs,
never across a ``yield``.

The evaluator and the ETD stepper own their work arrays, built once per
(grid, spec) and reused on every call, so a step or a right-hand side
allocates only its result.  The evaluator returns a fresh array unless it
is given ``out=``.  The stepper also keeps the previous step's source in
one of two buffers whose references it swaps after each step.  Because of
the shared work arrays an evaluator or a stepper must not be used from two
threads at once; each run builds its own.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .linear import linear_solution
from .radau import RadauError, _radau_iia
from .spectral import Grid, PhysicalField, forward_transform, sobolev_norm
from .symbols import (ModelParams, characteristic_roots, damping_coefficient,
                      phi_divided_difference, propagator, restoring_coefficient)


class BlowUpError(RuntimeError):
    """State left the guarded amplitude range during time stepping."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class ReferenceIntegrationError(RuntimeError):
    """The Radau IIA oracle of :func:`reference_solve` did not finish."""


_KINDS = ("quadratic", "cubic", "none")


@dataclass(frozen=True)
class NonlinearitySpec:
    """Shape of the source term ``f(u) + sign * beta * g(u_t)``.

    ``f_kind`` / ``g_kind`` pick the pointwise functions (v -> v^2, v -> v^3,
    or absent); ``f`` acts on the displacement and ``g`` on the velocity.
    The sign in front of the ``beta`` branch is configurable because
    differently normalised presentations of the model disagree on it.
    """

    f_kind: str = "quadratic"
    g_kind: str = "quadratic"
    beta: float = 1.0
    g_sign: float = 1.0

    def __post_init__(self) -> None:
        if self.f_kind not in _KINDS or self.g_kind not in _KINDS:
            raise ValueError(f"nonlinearity kinds must be one of {_KINDS}")
        if self.g_sign not in (1.0, -1.0):
            raise ValueError("g_sign must be +1 or -1")
        if not (self.beta > 0.0):
            raise ValueError("beta must be positive")

    @property
    def is_zero(self) -> bool:
        return self.f_kind == "none" and self.g_kind == "none"


def _pointwise(kind: str, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``v^2`` or ``v^3`` (as ``(v v) v``) written into ``out``."""
    if kind not in ("quadratic", "cubic"):
        raise ValueError(kind)
    np.multiply(v, v, out=out)
    if kind == "cubic":
        np.multiply(out, v, out=out)
    return out


class _Source:
    """Spectral source ``-|xi|^2 F[f(u) + sign beta g(u_t)]`` with 2/3 dealiasing.

    Called with stacked half spectra ``y = (u_hat, ut_hat)``, shape
    ``(2, *grid.half_shape)``, and the time ``t``; returns the half spectrum
    of the source, in ``out`` when it is given and in a fresh array
    otherwise.  An evaluator built with ``stack=(k,)`` takes ``k`` states at
    once, ``y`` of shape ``(k, 2, *grid.half_shape)`` with their ``k`` times,
    and returns the ``k`` sources in one pass: one batched inverse and one
    batched forward transform over all of them.  Per state the arithmetic is
    that of a single-state call, so each source is bitwise the same, and a
    non-finite value raises :class:`BlowUpError` at the time of the first
    state that holds one.

    A call is :meth:`unweighted` times :attr:`weight`.  Both transform
    scales are folded into the two real factors, so no pass rescales a
    field: the truncation holds ``1/fft_scale`` on the kept modes (the
    inverse transform of the truncated state is then the physical pair),
    and the weight holds ``-|xi|^2 fft_scale`` (zero on the masked modes).
    The ETD stepper folds the weight into its own coefficients and calls
    :meth:`unweighted` alone.

    The evaluator is a workspace built once per (grid, spec): it owns the
    truncated pair, the physical pair and the pointwise product, and makes
    the per-axis ``numpy.fft`` calls of
    :func:`~bousslab.spectral.inverse_transform` and
    :func:`~bousslab.spectral.forward_transform` into them, with the
    pointwise powers formed in place; the forward transform writes straight
    into the caller's buffer.  Because of the shared workspaces one instance
    must not be called from two threads at once.

    The transforms are pruned to the kept modes (Markel's FFT pruning of
    the 2/3 rule).  After the truncation the last-axis columns ``m > N//3``
    hold zeros, and they are zeroed again on output, so the leading-axis
    transforms run on the first ``N//3 + 1`` columns only; in 3-D the outer
    axis also runs on the kept rows of the middle axis alone.  The
    last-axis ``irfft``/``rfft`` still cover every column.  Per transformed
    line the arithmetic is that of the whole-array transform, so the kept
    modes are bitwise those of ``irfftn``/``rfftn``.  Every masked mode of
    the output, transformed or not, is then overwritten with exact zeros,
    so nothing computed from the untransformed ones (not even
    ``0 x inf = NaN``) reaches the result.  The truncation still multiplies
    the whole state, so a non-finite value in any mode reaches the physical
    fields and raises :class:`BlowUpError`.
    """

    def __init__(self, grid: Grid, spec: NonlinearitySpec,
                 stack: tuple[int, ...] = ()):
        self.grid = grid
        self.spec = spec
        self.stack = stack
        # the (u, ut) axis of a stacked input goes first, so that the
        # physical pair unpacks into the two fields of every state
        k = len(stack)
        self.pair_first = (k,) + tuple(range(k)) + tuple(range(k + 1, k + 1 + grid.n))
        mask = grid.dealias_mask_half
        # real factors stored as complex: numpy multiplies complex by real by
        # casting the real factor to complex on every call, so the products
        # are bitwise the same and the cast is made once
        self.truncate = np.where(mask, 1.0 / grid.fft_scale, 0.0).astype(np.complex128)
        self.weight = np.where(mask, -grid.xi2_half * grid.fft_scale,
                               0.0).astype(np.complex128)
        self.g_coeff = spec.g_sign * spec.beta
        self.pair = np.empty((2,) + stack + grid.half_shape, dtype=np.complex128)
        self.fields = np.empty((2,) + stack + grid.shape)
        self.product = np.empty(stack + grid.shape)
        self.finite = np.empty(stack + grid.shape, dtype=bool)
        # leading-axis transforms on the kept columns, and in 3-D the outer
        # axis on the two blocks of kept middle-axis rows (modes 0..N//3 and
        # -N//3..-1)
        N, keep = grid.N, grid.dealias_cut + 1
        cols = (Ellipsis, slice(0, keep))
        self.leading = [(-2, cols)] if grid.n >= 2 else []
        if grid.n == 3:
            self.leading[:0] = [(-3, (Ellipsis, rows, slice(0, keep)))
                                for rows in (slice(0, keep), slice(N - keep + 1, N))]
        # the blocks whose union is the masked modes: the last-axis columns
        # above N//3, and in the kept columns the rows of each leading axis
        # with |m| > N//3 (these blocks hold every untransformed mode)
        self.masked = [(Ellipsis, slice(keep, None))]
        for axis in range(grid.n - 1):
            block = [slice(None)] * grid.n
            block[axis], block[-1] = slice(keep, N - keep + 1), slice(0, keep)
            self.masked.append((Ellipsis, *block))

    def unweighted(self, y: np.ndarray, t: float | np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        """``rfftn`` of the pointwise source ``f(u) + sign beta g(u_t)`` of the
        truncated state, with every masked mode exactly zero.

        The forward transform is written straight into ``out`` (a fresh
        array when it is not given); the source is this times :attr:`weight`.
        """
        spec = self.spec
        if out is None:
            out = np.empty(self.stack + self.grid.half_shape, dtype=np.complex128)
        if spec.is_zero:
            out.fill(0.0)
            return out
        grid, pair, fields, w = self.grid, self.pair, self.fields, self.product
        if self.stack:
            y = y.transpose(self.pair_first)
        np.multiply(self.truncate, y, out=pair)
        # irfftn order: the leading axes outermost first, then the last axis
        for ax, blk in self.leading:
            np.fft.ifft(pair[blk], axis=ax, out=pair[blk])
        u, ut = np.fft.irfft(pair, n=grid.N, axis=-1, out=fields)
        # overflow in the pointwise powers is an expected failure mode: it is
        # detected right below and reported as BlowUpError (the caller keeps
        # numpy quiet, see the module docstring)
        if spec.f_kind != "none":
            _pointwise(spec.f_kind, u, w)
        if spec.g_kind != "none":
            # u is no longer needed, so its row holds the g term
            gterm = w if spec.f_kind == "none" else u
            _pointwise(spec.g_kind, ut, gterm)
            if self.g_coeff != 1.0:  # x * 1.0 is x, bitwise
                np.multiply(self.g_coeff, gterm, out=gterm)
            if gterm is not w:
                np.add(w, gterm, out=w)
        if not np.isfinite(w, out=self.finite).all():
            if self.stack:
                finite = self.finite.reshape(math.prod(self.stack), -1).all(axis=1)
                t = float(np.ravel(t)[np.argmin(finite)])
            raise BlowUpError("state blow-up: non-finite values in the nonlinearity", t)
        # rfftn order: the last axis, then the leading axes innermost first
        np.fft.rfft(w, axis=-1, out=out)
        for ax, blk in reversed(self.leading):
            np.fft.fft(out[blk], axis=ax, out=out[blk])
        for blk in self.masked:
            out[blk] = 0.0
        return out

    def __call__(self, y: np.ndarray, t: float | np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        out = self.unweighted(y, t, out)
        return np.multiply(self.weight, out, out=out)


@dataclass(frozen=True)
class Trajectory:
    """Stacked half spectra ``(u_hat, ut_hat)`` recorded along a run.

    ``spectra[i]`` is the state at ``times[i]``, shape
    ``(times.size, 2, *grid.half_shape)``; ``times[0] == 0`` and the times
    strictly increase.
    """

    times: np.ndarray
    grid: Grid
    spectra: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=np.float64)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("empty trajectory")
        if self.spectra.shape != (t.size, 2) + self.grid.half_shape:
            raise ValueError(f"spectra shape {self.spectra.shape} != "
                             f"{(t.size, 2) + self.grid.half_shape}")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
            raise ValueError("times must start at 0 and strictly increase")
        object.__setattr__(self, "times", t)


def _initial_state(u0: PhysicalField, u1: PhysicalField) -> np.ndarray:
    """Stacked half spectra ``(u0_hat, u1_hat)`` from one batched transform."""
    if u0.grid != u1.grid:
        raise ValueError("u0 and u1 live on different grids")
    return forward_transform(u0.grid, np.stack([u0.values, u1.values]))


def _etd_integrals(xi2, dt: float, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """``I0 = int_0^dt sine(s) ds`` and ``I1 = int_0^dt s sine(s) ds`` at ``|xi|^2``.

    Closed forms in the scaled roots ``a = lambda_+ dt``, ``b = lambda_- dt``:
    ``I0 = dt^2 dd_phi1(a, b)``, ``I1 = dt^3 (dd_phi1 - dd_phi2)(a, b)``.  The
    values are real; the arrays are complex, like the roots they come from.
    """
    roots = characteristic_roots(xi2, params)
    a = roots.lambda_plus * dt
    b = roots.lambda_minus * dt
    dd1 = phi_divided_difference(1, a, b)
    dd2 = phi_divided_difference(2, a, b)
    return dt**2 * dd1, dt**3 * (dd1 - dd2)


class _EtdStepper:
    """Multistep exponential integrator: cached per-``dt`` symbols, weights
    and work arrays, one source evaluation per step.

    The needed kernel integrals are ``I0``, ``I1`` of :func:`_etd_integrals`
    (closed forms in the phi divided differences) and
    ``int_0^dt sine_dt(s) ds = sine(dt)``.  With the source frozen at the
    left endpoint the predictor reads

        u*  = cosine u + sine v + I0 N_n           (and the _dt row for v),

    and a source that is linear in s with slope ``D / dt`` adds

        u+  = u* + D (I0 - I1/dt),  v+ = v* + D I0/dt,

    the weights ``w_predict = (I0, sine)`` and
    ``w_correct = (I0 - I1/dt, I0/dt)`` of ``N_n`` and ``D``.

    Every step after the first is the multistep ETD2 of Cox & Matthews
    (J. Comput. Phys. 176, 2002, eq. 6): the source is extrapolated through
    the last two step points, ``D = N_n - N_{n-1}``, so a step evaluates the
    source once, at the state it is given.  That step is one fixed per-mode
    combination of the state and the last two sources; with the source
    ``N = weight S`` of :class:`_Source` it reads

        y+ = from_u u + from_ut v + from_now S_n + from_prev S_{n-1},

    where ``from_now = (w_predict + w_correct) weight`` and
    ``from_prev = -w_correct weight`` fold the source's weight (its
    ``-|xi|^2``, the 2/3 rule and the forward transform scale) into the
    step, so the step takes the unweighted spectra ``S`` of
    :meth:`_Source.unweighted`.  A step touches the state, its result, one
    work pair and the two source rows: the source writes ``S_n`` into the
    free row and the result accumulates the four products, each formed in
    the work pair.  The first step has no ``S_{n-1}`` and is the two-stage
    ETD2RK step, ``D = N(u*, t + dt) - N_n``, with ``w_predict = from_now +
    from_prev`` and ``w_correct = -from_prev`` formed for that step alone.
    Both are second order.  The four weights are real and evaluated once on
    the half lattice, each stacked as the ``(u, u_t)`` rows that multiply
    the stacked state and stored as complex (a zero imaginary part) so that
    no step casts them.

    The two source rows swap their references after each step, so ``S_n``
    becomes the next step's ``S_{n-1}``.  So one stepper advances one run:
    each call must continue from the state the previous call returned, one
    ``dt`` later.
    """

    def __init__(self, grid: Grid, dt: float, spec: NonlinearitySpec,
                 params: ModelParams):
        self.dt = float(dt)
        self.spec = spec
        self.source = _Source(grid, spec)
        sym = propagator(grid.xi2_half, self.dt, params)
        i0, i1 = _etd_integrals(grid.xi2_half, self.dt, params)
        w_predict = np.stack([i0.real, sym.sine])
        w_correct = np.stack([(i0 - i1 / self.dt).real, (i0 / self.dt).real])
        weight = self.source.weight.real
        c128 = np.complex128
        self.from_u = np.stack([sym.cosine, sym.cosine_dt], dtype=c128)
        self.from_ut = np.stack([sym.sine, sym.sine_dt], dtype=c128)
        self.from_now = ((w_predict + w_correct) * weight).astype(c128)
        self.from_prev = (-w_correct * weight).astype(c128)
        self.work = np.empty((2,) + grid.half_shape, dtype=c128)
        self.now = np.empty(grid.half_shape, dtype=c128)
        self.prev = np.empty_like(self.now)
        self.started = False

    def advance(self, y: np.ndarray, t: float) -> np.ndarray:
        """One step of the stacked half spectra ``y = (u_hat, ut_hat)`` from ``t``.

        Returns a fresh array; the intermediate stages live in the stepper.
        """
        # the source first, so that the result and the work pair stay in
        # cache from the first product of the accumulation to the last
        zero = self.spec.is_zero
        s_now = None if zero else self.source.unweighted(y, t, out=self.now)
        work = self.work
        out = np.multiply(self.from_u, y[0])
        out += np.multiply(self.from_ut, y[1], out=work)
        if zero:
            return out
        if not self.started:
            return self._first_step(out, s_now, t)
        out += np.multiply(self.from_now, s_now, out=work)
        out += np.multiply(self.from_prev, self.prev, out=work)
        # S_n becomes S_{n-1} of the next step; the other row is free
        self.now, self.prev = self.prev, self.now
        return out

    def _first_step(self, pred: np.ndarray, s_now: np.ndarray, t: float) -> np.ndarray:
        """The ETD2RK step from the linear part ``pred`` of the predictor."""
        pred += np.multiply(self.from_now + self.from_prev, s_now, out=self.work)
        diff = self.source.unweighted(pred, t + self.dt, out=self.prev)
        diff -= s_now
        self.started = True
        self.now, self.prev = self.prev, self.now
        return np.add(pred, np.multiply(-self.from_prev, diff, out=self.work))


#: OpenBLAS spreads a dot product of more than 10 000 elements over its
#: threads, which a busy host can stall for milliseconds (on a 2-core host
#: with a second busy process, a 2-D 128^2 run with one dot product per row
#: took 28 s instead of 2 s); shorter chunks stay on the calling thread
_DOT_CHUNK = 8192


def _squares(z: np.ndarray) -> float:
    """``sum |z|^2`` over a complex array, by single-threaded BLAS ``vdot``."""
    flat = z.reshape(-1)
    if flat.size <= _DOT_CHUNK:
        return np.vdot(flat, flat).real
    total = 0.0
    for start in range(0, flat.size, _DOT_CHUNK):
        chunk = flat[start:start + _DOT_CHUNK]
        total += np.vdot(chunk, chunk).real
    return total


def _over_guard(y: np.ndarray, guard: float, volume: float) -> bool:
    """Whether ``y`` holds a non-finite value or the L^2 norm of its ``u`` row
    exceeds ``guard``; ``volume`` is the spectral cell ``dxi**n``.

    One pass over ``y``: the sums of squares of its rows are finite unless
    an entry is not or the squares overflow; only then are the entries
    tested one by one, which allocates.  The amplitude is the Plancherel sum
    of :func:`~bousslab.spectral.sobolev_norm`, every mode counted twice
    less once the last-axis planes ``m = 0`` and ``m = N/2`` that hold
    their own conjugates, ``2 |u|^2 - |u_0|^2 - |u_{N/2}|^2``, and agrees
    with it to rounding.
    """
    squares = _squares(y[0])
    if not math.isfinite(squares + _squares(y[1])) and not np.isfinite(y).all():
        return True
    # last-axis columns 0 and N/2, the planes that hold their own conjugates
    power = 2.0 * squares - _squares(y[0, ..., ::y.shape[-1] - 1])
    # squares that overflowed leave inf - inf = NaN here, which is over too
    return not math.sqrt(volume * power) <= guard


def _step_count(T: float, dt: float) -> int:
    """Number of steps ``dt`` to ``T``; ValueError unless ``dt`` divides ``T``."""
    if not (T > 0.0) or not math.isfinite(T):
        raise ValueError(f"final time must be positive and finite, got {T}")
    if not (dt > 0.0) or not math.isfinite(dt):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    n_steps = round(T / dt)
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError(f"dt={dt} does not divide T={T}")
    return n_steps


def _output_steps(n_steps: int, out_every: int) -> Iterator[int]:
    """The steps after which :func:`march` yields: every ``out_every``-th, the last."""
    yield from range(out_every, n_steps + 1, out_every)
    if n_steps % out_every:
        yield n_steps


def _output_times(n_steps: int, dt: float, out_every: int) -> np.ndarray:
    """The times :func:`march` yields: 0, then those of :func:`_output_steps`."""
    steps = np.fromiter(_output_steps(n_steps, out_every), dtype=np.int64)
    return np.concatenate([[0.0], steps * dt])


def _output_count(n_steps: int, dt: float, out_every: int,
                  lo: float = -math.inf, hi: float = math.inf) -> int:
    """How many of the :func:`_output_times` lie in ``[lo, hi]`` (``lo <= hi``),
    counted without building them.

    The time of step ``s`` is the product ``float(s) * dt`` that the array
    holds, which does not decrease as ``s`` grows, so bisection over the
    multiples of ``out_every`` finds the first one at or above ``lo`` and
    the last one at or below ``hi`` exactly.
    """
    multiples = range(1, n_steps // out_every + 1)

    def time(k: int) -> float:
        return float(k * out_every) * dt

    count = (bisect.bisect_right(multiples, hi, key=time)
             - bisect.bisect_left(multiples, lo, key=time))
    count += lo <= 0.0 <= hi
    if n_steps % out_every:
        count += lo <= float(n_steps) * dt <= hi
    return count


#: :func:`march` raises BlowUpError once the state's L^2 amplitude exceeds
#: this many times its initial value
_BLOWUP_FACTOR = 1e6


def march(u0: PhysicalField, u1: PhysicalField, T: float, dt: float,
          spec: NonlinearitySpec, params: ModelParams,
          out_every: int = 1) -> Iterator[tuple[float, np.ndarray]]:
    """March ``(u0, u1)`` to time ``T`` with steps ``dt``, yielding a cadence.

    Yields ``(t, y)``, the time and the stacked half spectra
    ``(u_hat, ut_hat)``, at the initial state and after every
    ``out_every``-th step and the last: the times of :func:`_output_times`,
    in order.  Each yielded ``y`` is a fresh array that the march never
    writes to again, so a consumer may keep it without a copy; the next step
    reads it, so the consumer must not write to it while the march goes on.
    Aborts with :class:`BlowUpError` if the spectral L^2 amplitude of the
    state exceeds ``_BLOWUP_FACTOR`` times its initial value.

    The arguments are checked, and the stepper built, when ``march`` is
    called; the steps run as the states are consumed.  Numpy's overflow
    warnings are silenced (see the module docstring) around the steps
    between two outputs only, so a consumer sees its own error state at
    every yield, also when it abandons the march early.
    """
    n_steps = _step_count(T, dt)
    if out_every < 1 or int(out_every) != out_every:
        raise ValueError("output cadence must be a positive integer")
    g = u0.grid
    y = _initial_state(u0, u1)
    stepper = _EtdStepper(g, dt, spec, params)
    guard = _BLOWUP_FACTOR * max(*sobolev_norm(g, y), 1e-30)
    return _march(y, stepper, dt, _output_steps(n_steps, int(out_every)),
                  guard, g.dxi**g.n)


def _march(y: np.ndarray, stepper: _EtdStepper, dt: float, out_steps: Iterator[int],
           guard: float, volume: float) -> Iterator[tuple[float, np.ndarray]]:
    """The steps of :func:`march`, from its checked arguments."""
    yield 0.0, y
    step = 0
    for stop in out_steps:
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(step + 1, stop + 1):
                y = stepper.advance(y, (i - 1) * dt)
                t_now = i * dt
                if _over_guard(y, guard, volume):
                    raise BlowUpError(
                        f"state blow-up at t={t_now:.6g}: amplitude exceeded "
                        f"{_BLOWUP_FACTOR:g} x initial", t_now)
        step = stop
        yield t_now, y


def solve(u0: PhysicalField, u1: PhysicalField, T: float, dt: float,
          spec: NonlinearitySpec, params: ModelParams, out_every: int = 1) -> Trajectory:
    """The states of :func:`march`, recorded as a :class:`Trajectory`.

    Records the initial state and every ``out_every``-th step and the last;
    the arguments and the blow-up guard are those of :func:`march`.
    """
    states = march(u0, u1, T, dt, spec, params, out_every)
    times = _output_times(_step_count(T, dt), dt, int(out_every))
    spectra = np.empty((times.size, 2) + u0.grid.half_shape, dtype=np.complex128)
    for row, (_, y) in enumerate(states):
        spectra[row] = y
    return Trajectory(times=times, grid=u0.grid, spectra=spectra)


# ---------------------------------------------------------------------------
# global fixed-point map (Duhamel integral on a fixed mesh)
# ---------------------------------------------------------------------------


def _trapezoid_weights(tau: np.ndarray) -> np.ndarray:
    w = np.zeros_like(tau)
    if tau.size >= 2:
        d = np.diff(tau)
        w[:-1] += 0.5 * d
        w[1:] += 0.5 * d
    return w


def _mesh_lags(times: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The distinct lags ``t_i - tau_j`` (``i >= j``) of a mesh, in order of
    first appearance, and for each source time ``tau_j`` the indices of its
    lags ``times[j:] - tau_j`` into them.

    The lags are deduplicated exactly, as the floats the subtraction gives,
    by a dict rather than by ``np.unique``: its sort would add numpy's sort
    kernels to the resident memory of a run that sorts nothing else.
    """
    first: dict[float, int] = {}
    rows = [np.array([first.setdefault(lag, len(first))
                      for lag in (times[j:] - times[j]).tolist()])
            for j in range(times.size)]
    return np.array(list(first)), rows


def picard_iterate(base: Trajectory, u0: PhysicalField, u1: PhysicalField,
                   spec: NonlinearitySpec, params: ModelParams) -> Trajectory:
    """One application of the solution map ``Phi`` to a candidate trajectory.

    ``Phi(w)(t) = linear(t) + int_0^t kernel(t - s) source(w(s)) ds`` with the
    time integral evaluated by the trapezoid rule on ``base.times``.  For
    small data the map contracts in the sup-over-time L^2 distance, and its
    fixed point is the solution (up to the trapezoid error of the mesh).

    The kernels of the Duhamel sum come from one evaluation over the
    distinct lags ``t_i - tau_j`` (``i >= j``) of the mesh, and the linear
    part from one over all mesh times: two kernel calls per application on
    any mesh.  On a uniform ``M``-point mesh whose step is exact the lags
    are the ``M`` multiples of the step, so the kernel table holds ``M``
    times the half-lattice modes.  The sum is accumulated column by column:
    for each source time ``tau_j`` the table rows of its lags update every
    later mesh time at once, and each time still sums its terms in the
    order ``j = 0..i``.  A kernel on a time column equals its elementwise
    evaluation, so the result is bitwise that of one kernel call per lag.
    """
    g = base.grid
    if u0.grid != g or u1.grid != g:
        raise ValueError("initial data live on a different grid than the trajectory")
    times = base.times
    with np.errstate(over="ignore", invalid="ignore"):
        sources = _Source(g, spec, stack=times.shape)(base.spectra, times)
    # the weight of tau_j in the sum for t_i (> tau_j) is its whole-mesh
    # trapezoid weight; for t_i = tau_j it is the right-endpoint half step
    weights = _trapezoid_weights(times)
    endpoint = np.concatenate([[0.0], 0.5 * np.diff(times)])
    column = (-1,) + (1,) * g.n
    lags, rows = _mesh_lags(times)
    kernel = propagator(g.xi2_half, lags.reshape(column), params)

    y = linear_solution(g, _initial_state(u0, u1), times, params)
    for j, (s_j, r) in enumerate(zip(sources, rows)):
        w_j = np.full(times.size - j, weights[j])
        w_j[0] = endpoint[j]
        w_j = w_j.reshape(column)
        y[j:, 0] += w_j * kernel.sine[r] * s_j
        y[j:, 1] += w_j * kernel.sine_dt[r] * s_j
    return Trajectory(times=times.copy(), grid=g, spectra=y)


def linear_trajectory(u0: PhysicalField, u1: PhysicalField, times: Sequence[float],
                      params: ModelParams) -> Trajectory:
    """Exact linear evolution sampled on a mesh (the usual Picard seed)."""
    t_arr = np.array(times, dtype=np.float64)
    y = linear_solution(u0.grid, _initial_state(u0, u1), t_arr, params)
    return Trajectory(times=t_arr, grid=u0.grid, spectra=y)


# ---------------------------------------------------------------------------
# method-of-lines oracle (independent of the closed-form kernels)
# ---------------------------------------------------------------------------


def reference_solve(u0: PhysicalField, u1: PhysicalField, T: float,
                    spec: NonlinearitySpec, params: ModelParams,
                    tol: float = 1e-10,
                    t_eval: Sequence[float] | None = None) -> Trajectory:
    """Radau IIA integration of the spectral mode system.

    The right-hand side uses only the ODE coefficients (never the propagator
    kernels), so agreement with :func:`solve` checks the closed forms
    end to end.  The implicit method (Hairer & Wanner, *Solving ODEs II*,
    section IV.8; :func:`bousslab.radau._radau_iia`) solves its Newton
    systems with the exact, constant Jacobian of the linear part, so the
    stiff ``|xi|^4`` damping of the high modes costs no step-size
    reduction; the source term is left out of the Jacobian, which suits
    small data.  Each Newton iteration evaluates the source at its three
    stages in one batched :class:`_Source` call.  ``t_eval`` must start at
    0, strictly increase and end at or before ``T`` (default: 11 equispaced
    times).  Every integrator failure, a non-finite source included, raises
    :class:`ReferenceIntegrationError`.
    """
    if not (1e-12 <= tol <= 1e-4):
        raise ValueError(f"tolerance must lie in [1e-12, 1e-4], got {tol}")
    if not (T > 0.0):
        raise ValueError(f"final time must be positive, got {T}")
    if t_eval is None:
        t_eval = np.linspace(0.0, T, 11)
    t_eval = np.asarray(t_eval, dtype=np.float64)
    if (t_eval.ndim != 1 or t_eval.size == 0 or t_eval[0] != 0.0
            or not np.all(np.diff(t_eval) > 0.0) or not t_eval[-1] <= T):
        raise ValueError("t_eval must start at 0, strictly increase and end "
                         f"at or before T={T}")
    g = u0.grid
    shape = (2,) + g.half_shape
    # one evaluator for single states, one for the three Radau stages
    single, stages = _Source(g, spec), _Source(g, spec, stack=(3,))

    # the integrator's vector is the stacked half spectra viewed as
    # interleaved (real, imag) pairs: the u block, then the u_t block
    def forcing(t, y: np.ndarray) -> np.ndarray:
        lead = y.shape[:-1]
        z = y.view(np.complex128).reshape(lead + shape)
        s = (stages if lead else single)(z, t)
        return s.view(np.float64).reshape(lead + (-1,))

    # one coefficient per (real, imag) component of a mode
    b = np.repeat(damping_coefficient(g.xi2_half, params).ravel(), 2)
    c = np.repeat(restoring_coefficient(g.xi2_half).ravel(), 2)
    y0 = _initial_state(u0, u1).view(np.float64).ravel()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            ys = _radau_iia(forcing, b, c, y0, float(T), tol, t_eval)
    except BlowUpError as exc:
        raise ReferenceIntegrationError(
            f"reference integration failed: non-finite source at t={exc.time:.6g}"
        ) from exc
    except RadauError as exc:
        raise ReferenceIntegrationError(f"reference integration failed: {exc}") from exc
    spectra = ys.view(np.complex128).reshape((t_eval.size,) + shape)
    return Trajectory(times=t_eval.copy(), grid=g, spectra=spectra)
