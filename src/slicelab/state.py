"""Solution state, physical parameters, and initial data.

The state triple is (u_S, u_T, theta_S): slice-plane velocity, transverse
velocity, and the potential-temperature slice component, all sharing one
grid, plus the model time.  A state is the coefficients of the four arrays
(u_x, u_z, u_T, theta_S) in `STATE_BASES`, a truncated Galerkin vector:
every step, norm and checkpoint reads them, and value arrays are made only
at the edge, by `make_state` (forward, once) and `SimState.values` (back,
once, when first read).  `SimState.gradients`, the first-derivative pass
that the W^{1,inf} norms, the diagnostics and a step's first stage share,
u_S's `vorticity` and the `w1inf` norms are likewise taken once, when
first read, and kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .grid import (Grid, Geometry, SCALAR_BASIS, ScalarField, VectorField,
                   VX_BASIS, VZ_BASIS, differentiate, from_modes,
                   gradient_values, scalar_field, to_modes, vector_field)
from .incompressible import curl_modes

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


@dataclass(frozen=True, eq=False)
class SimState:
    """A model time and the fields (u_x, u_z, u_T, theta_S) on one grid,
    held as their coefficients in `STATE_BASES`; their value arrays,
    their gradients and u_S's vorticity are transformed back once, when
    first read, and kept, as are the W^{1,inf} norms."""

    grid: Grid
    t: float
    coefs: tuple

    @cached_property
    def values(self) -> tuple:
        return tuple(from_modes(self.grid, c, b)
                     for c, b in zip(self.coefs, STATE_BASES))

    @cached_property
    def gradients(self) -> tuple:
        """The (d_x, d_z) value pairs of the four arrays."""
        return tuple(gradient_values(self.grid, c, b)
                     for c, b in zip(self.coefs, STATE_BASES))

    @cached_property
    def vorticity(self) -> np.ndarray:
        """The values of u_S's vorticity d_x u_z - d_z u_x, by `curl_modes`
        (one inverse transform)."""
        return from_modes(self.grid, *curl_modes(self.grid, *self.coefs[:2]))

    @cached_property
    def w1inf(self):
        """The (u_S, u_T, theta_S) W^{1,inf} norms (a list of triples for a
        stacked state), reduced from `values` and `gradients`."""
        from .norms import W1INF, state_component_norms
        return state_component_norms(self, W1INF)

    def held(self, name: str):
        """`values`, `gradients`, `vorticity` or `w1inf` if they have been
        read already, else None."""
        return vars(self).get(name)

    @property
    def u_s(self) -> VectorField:
        return vector_field(self.grid, *self.values[:2])

    @property
    def u_t(self) -> ScalarField:
        return scalar_field(self.grid, self.values[2], UT_BASIS)

    @property
    def theta_s(self) -> ScalarField:
        return scalar_field(self.grid, self.values[3], THETA_BASIS)


def make_state(grid: Grid, t, ux, uz, ut, theta) -> SimState:
    """The state of four value arrays, checked against the grid and
    transformed to `STATE_BASES` once; its `values` read back the
    coefficients' inverse transforms, equal to the arrays within
    roundoff."""
    return SimState(grid, float(t), tuple(
        to_modes(grid, scalar_field(grid, a).values, b)
        for a, b in zip((ux, uz, ut, theta), STATE_BASES)))


def zero_state(grid: Grid, t: float = 0.0) -> SimState:
    return make_state(grid, t, *(np.zeros((grid.nz, grid.nx))
                                 for _ in range(4)))


def state_arrays(state: SimState):
    """The four value arrays (ux, uz, u_t, theta_s)."""
    return state.values


def state_is_finite(state: SimState) -> bool:
    # a complex value is finite exactly when both its parts are: their float
    # view, where the last axis allows one, is checked twice as fast
    return all(np.isfinite(
        c.view(c.real.dtype) if c.dtype.kind == "c"
        and c.strides[-1] == c.itemsize else c).all() for c in state.coefs)


def scale_state(state: SimState, factor: float) -> SimState:
    return SimState(state.grid, state.t, tuple(factor * c
                                               for c in state.coefs))


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
