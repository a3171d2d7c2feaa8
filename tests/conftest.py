"""Shared fixtures for the test suite."""
from __future__ import annotations

import math

import numpy as np
import pytest

from bousslab import PhysicalField, make_grid, mode_energy
from bousslab.experiments import _random_smooth_fields


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def grid_1d():
    return make_grid(1, 2.0 * np.pi, 64)


def random_smooth_field(grid, rng, scale: float = 1.0) -> PhysicalField:
    """A random real field with a smooth (Gaussian-damped) spectrum."""
    return PhysicalField(grid, scale * _random_smooth_fields(grid, rng))


def l2_norm(field: PhysicalField) -> float:
    """``(int u^2 dx)^(1/2)`` of a field's samples by the rectangle rule."""
    v = field.values
    return float(math.sqrt(field.grid.cell_volume * float(np.sum(v * v))))


def linf_norm(field: PhysicalField) -> float:
    """``max |u|`` over a field's samples."""
    return float(np.max(np.abs(field.values)))


def total_energy(grid, y: np.ndarray, params) -> np.ndarray:
    """Frequency-summed mode energy of stacked half spectra ``(..., 2, *half_shape)``,
    each half-lattice mode counted with its multiplicity; non-increasing
    along the linear flow.
    """
    u, ut = np.moveaxis(y, -grid.n - 1, 0)
    e = mode_energy(grid.xi2_half, u, ut, params).energy
    return grid.dxi**grid.n * np.sum(grid.half_multiplicity * e, axis=grid.axes)
