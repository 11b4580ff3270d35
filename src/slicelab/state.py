"""Solution state, physical parameters, and initial data.

The state triple is (u_S, u_T, theta_S): slice-plane velocity, transverse
velocity, and the potential-temperature slice component, all sharing one
grid, plus the model time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import (Grid, Geometry, SCALAR_BASIS, ScalarField, VectorField,
                   VX_BASIS, VZ_BASIS, differentiate, from_modes, scalar_field,
                   vector_field)

#: Square parity classes of u_T and theta_S (the torus ignores them).  The
#: f-coupling (du_x gains f u_T, du_T loses f u_x) forces u_T into the
#: x-velocity class sin(x)cos(z); the buoyancy coupling (du_z gains
#: (g/theta0) theta_S) forces theta_S into the z-velocity class
#: cos(x)sin(z).  With these the vorticity equation closes in sin.sin.
UT_BASIS = VX_BASIS
THETA_BASIS = VZ_BASIS
#: the bases of a state's (u_x, u_z, u_T, theta_S) arrays
STATE_BASES = (VX_BASIS, VZ_BASIS, UT_BASIS, THETA_BASIS)


@dataclass(frozen=True)
class Params:
    """Physical constants: Coriolis f, gravity g, reference temperature
    theta0, transverse temperature gradient s (alpha is the noise model's).

    Defaults are the unit parameters of the model's standard simplification.
    """

    f: float = 1.0
    g: float = 1.0
    theta0: float = 1.0
    s: float = 1.0

    def __post_init__(self):
        vals = (self.f, self.g, self.theta0, self.s)
        if not all(math.isfinite(v) for v in vals):
            raise ConfigError(f"non-finite parameter in {vals}")
        if self.theta0 <= 0:
            raise ConfigError(f"theta0 must be positive, got {self.theta0}")

    @property
    def buoyancy(self) -> float:
        return self.g / self.theta0


@dataclass(frozen=True)
class SimState:
    t: float
    u_s: VectorField
    u_t: ScalarField
    theta_s: ScalarField

    @property
    def grid(self) -> Grid:
        return self.u_s.grid


def make_state(grid: Grid, t, ux, uz, ut, theta) -> SimState:
    """Wrap raw value arrays in a state with the canonical square bases."""
    return SimState(float(t), vector_field(grid, ux, uz),
                    scalar_field(grid, ut, UT_BASIS),
                    scalar_field(grid, theta, THETA_BASIS))


def zero_state(grid: Grid, t: float = 0.0) -> SimState:
    return make_state(grid, t, *(np.zeros((grid.nz, grid.nx))
                                 for _ in range(4)))


def state_arrays(state: SimState):
    """The four value arrays (ux, uz, u_t, theta_s), in checkpoint order."""
    return (state.u_s.x.values, state.u_s.z.values,
            state.u_t.values, state.theta_s.values)


def state_is_finite(state: SimState) -> bool:
    return all(np.isfinite(a).all() for a in state_arrays(state))


def scale_state(state: SimState, factor: float) -> SimState:
    ux, uz, ut, th = state_arrays(state)
    return make_state(state.grid, state.t, factor * ux, factor * uz,
                      factor * ut, factor * th)


# ---------------------------------------------------------------------------
# manufactured initial data
# ---------------------------------------------------------------------------

def random_scalar_values(grid: Grid, rng: np.random.Generator, max_mode: int,
                         amplitude: float, basis=None) -> np.ndarray:
    """Random smooth field supported on modes with |m| <= max_mode,
    normalised to the requested max amplitude.  Mean-free on the torus."""
    if grid.geometry is Geometry.TORUS:
        # full-spectrum draw, independent of the transform layout, so the
        # values of a seed never change
        coef = np.zeros((grid.nz, grid.nx), dtype=complex)
        mx = np.rint(np.fft.fftfreq(grid.nx) * grid.nx).astype(int)
        mz = np.rint(np.fft.fftfreq(grid.nz) * grid.nz).astype(int)
        box = ((np.abs(mz)[:, None] <= max_mode)
               & (np.abs(mx)[None, :] <= max_mode))
        box[0, 0] = False  # mean-free
        coef[box] = rng.standard_normal(box.sum()) + 1j * rng.standard_normal(box.sum())
        vals = np.real(np.fft.ifft2(coef))
    else:
        basis = basis or SCALAR_BASIS
        mx, mz = grid.modes(basis)
        coef = np.zeros((grid.nz, grid.nx))
        box = (mz[:, None] <= max_mode) & (mx[None, :] <= max_mode)
        coef[box] = rng.standard_normal(box.sum())
        vals = from_modes(grid, coef, basis)
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals = vals * (amplitude / peak)
    return vals


def random_state(grid: Grid, seed: int, max_mode: int = 3,
                 amplitude: float = 0.5, t: float = 0.0) -> SimState:
    """Random band-limited state: u_S = grad-perp of a random streamfunction
    (divergence-free and wall-tangent by construction), random u_T, theta_S."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    psi_vals = random_scalar_values(grid, rng, max_mode, 1.0)
    psi = scalar_field(grid, psi_vals)
    ux = -differentiate(psi, "z").values
    uz = differentiate(psi, "x").values
    speed = np.max(np.hypot(ux, uz))
    if speed > 0:
        ux = ux * (amplitude / speed)
        uz = uz * (amplitude / speed)
    ut = random_scalar_values(grid, rng, max_mode, amplitude, basis=UT_BASIS)
    th = random_scalar_values(grid, rng, max_mode, amplitude,
                              basis=THETA_BASIS)
    return make_state(grid, t, ux, uz, ut, th)
