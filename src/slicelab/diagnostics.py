"""Conservation diagnostics: energy, potential vorticity, generalized
enstrophy, material-loop circulation, and the BKM-type continuation bound.

Potential vorticity is evaluated in the expanded form

    q = s*omega - (d_x u_T + f) d_z theta_S + d_z u_T d_x theta_S,

algebraically identical to curl(s u_S - (u_T + f x) grad theta_S) (the mixed
second-derivative terms cancel) but free of the non-periodic factor f*x, so
one expression serves both geometries.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import _rk4_arrays
from .errors import ConfigError, LoopDomainError
from .grid import (Geometry, Grid, NEUMANN_BASIS, ScalarField, VectorField,
                   VX_BASIS, VZ_BASIS, from_modes, integrate, scalar_field)
from .incompressible import divergence_modes
from .norms import NormSpec, ZKP_DEFAULT, combine, state_component_norms
from .runio import DiagnosticsRecord
from .state import Params, SimState, state_arrays


class EnergyAccountingWarning(UserWarning):
    """Torus energy with a non-mean-free theta_S: the z-weighted term is
    coordinate-dependent there."""


def energy(state: SimState, params: Params) -> float:
    """E = integral of (|u_S|^2 + u_T^2)/2 - (g/theta0) z theta_S."""
    g = state.grid
    ux, uz, ut, th = state_arrays(state)
    if g.geometry is Geometry.TORUS:
        mean = float(np.mean(th))
        scale = max(1.0, float(np.max(np.abs(th))))
        if abs(mean) > 1e-13 * scale:
            warnings.warn("torus energy with non-mean-free theta_S: the "
                          "z-weighted term depends on the coordinate origin",
                          EnergyAccountingWarning)
    dens = 0.5 * (ux * ux + uz * uz + ut * ut) \
        - params.buoyancy * g.z_weight * th
    return integrate(g, dens)


def potential_vorticity(state: SimState, params: Params) -> ScalarField:
    """q as above.  On the square the returned basis is cos.cos, the parity
    class of the s = 0 expression; values are exact for any s."""
    *_, (dx_ut, dz_ut), (dx_th, dz_th) = state.gradients
    q = (params.s * state.vorticity - (dx_ut + params.f) * dz_th
         + dz_ut * dx_th)
    return scalar_field(state.grid, q, NEUMANN_BASIS)


def generalized_enstrophy(state: SimState, params: Params, phi) -> float:
    """Quadrature of phi(q) for a pointwise-evaluable phi."""
    q = potential_vorticity(state, params)
    vals = np.asarray(phi(q.values), dtype=float)
    if vals.shape != q.values.shape:
        vals = np.vectorize(phi)(q.values).astype(float)
    return integrate(state.grid, vals)


def bkm_bound(state: SimState, params: Params, c2: float = 1.0) -> float:
    """C2 ||u_S||_L2 + C2 ||omega||_inf (1 + log+ (||u_S||_Zkp/||omega||_inf))."""
    if c2 <= 0:
        raise ConfigError(f"BKM constant must be positive, got {c2}")
    u_l2 = state_component_norms(state, NormSpec(0, 2))[0]
    om_inf = float(np.max(np.abs(state.vorticity)))
    if om_inf == 0.0:
        return c2 * u_l2
    ratio = state_component_norms(state, ZKP_DEFAULT)[0] / om_inf
    return c2 * u_l2 + c2 * om_inf * (1.0 + max(0.0, math.log(ratio)))


# ---------------------------------------------------------------------------
# material loops
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaterialLoop:
    """Closed polygon of material points, columns (x, z); the closing edge
    from the last point back to the first is implicit."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ConfigError(f"loop points must have shape (n, 2), "
                              f"got {pts.shape}")
        if pts.shape[0] < 16:
            raise ConfigError(f"a material loop needs at least 16 points, "
                              f"got {pts.shape[0]}")
        object.__setattr__(self, "points", pts)


def circle_loop(cx: float, cz: float, radius: float,
                n_points: int = 256) -> MaterialLoop:
    ang = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    return MaterialLoop(np.column_stack([cx + radius * np.cos(ang),
                                         cz + radius * np.sin(ang)]))


def _check_inside(grid: Grid, pts: np.ndarray, slack: float = 0.0):
    """On the square every point must lie in [0,Lx]x[0,Lz] (up to slack)."""
    if grid.geometry is not Geometry.SQUARE:
        return pts
    bad = ((pts[:, 0] < -slack) | (pts[:, 0] > grid.lx + slack)
           | (pts[:, 1] < -slack) | (pts[:, 1] > grid.lz + slack))
    if bad.any():
        i = int(np.argmax(bad))
        raise LoopDomainError("loop point left the domain", tuple(pts[i]))
    # tolerated overshoot is clamped back onto the wall
    out = np.clip(pts, [0.0, 0.0], [grid.lx, grid.lz])
    return out


def _pad_square(values: np.ndarray, parity_x: str | None,
                parity_z: str | None):
    """One ghost layer per side: odd parity reflects with sign flip (the
    field crosses zero on the wall), even parity mirrors, None repeats."""
    def edge(sl, parity):
        if parity == "sin":
            return -sl
        return sl  # "cos" mirror and generic edge-repeat coincide here

    top = edge(values[:1, :], parity_z)
    bot = edge(values[-1:, :], parity_z)
    v = np.concatenate([top, values, bot], axis=0)
    left = edge(v[:, :1], parity_x)
    right = edge(v[:, -1:], parity_x)
    return np.concatenate([left, v, right], axis=1)


def _interp(grid: Grid, values: np.ndarray, pts: np.ndarray,
            parity_x: str | None = None, parity_z: str | None = None):
    """Bilinear samples of values at pts: periodic on the torus; on the
    square from the ghost-padded array, whose node i sits at (i - 1/2) h,
    so a domain point always falls between two nodes."""
    fx = pts[:, 0] / (grid.lx / grid.nx)
    fz = pts[:, 1] / (grid.lz / grid.nz)
    if grid.geometry is Geometry.TORUS:
        ix, iz = np.floor(fx).astype(int), np.floor(fz).astype(int)
        ix0, ix1 = np.mod(ix, grid.nx), np.mod(ix + 1, grid.nx)
        iz0, iz1 = np.mod(iz, grid.nz), np.mod(iz + 1, grid.nz)
    else:
        values = _pad_square(values, parity_x, parity_z)
        fx, fz = fx + 0.5, fz + 0.5
        ix = ix0 = np.clip(np.floor(fx).astype(int), 0, grid.nx)
        iz = iz0 = np.clip(np.floor(fz).astype(int), 0, grid.nz)
        ix1, iz1 = ix + 1, iz + 1
    tx, tz = fx - ix, fz - iz
    return ((1 - tz) * ((1 - tx) * values[iz0, ix0] + tx * values[iz0, ix1])
            + tz * ((1 - tx) * values[iz1, ix0] + tx * values[iz1, ix1]))


def _interp_pair(grid: Grid, x_values, z_values, pts: np.ndarray,
                 bases=((None, None), (None, None))):
    """Samples of two component fields at pts, shape (n, 2); on the square
    `bases` are the components' ghost-layer parities."""
    return np.column_stack([_interp(grid, v, pts, *b) for v, b in
                            zip((x_values, z_values), bases)])


def circulation(state: SimState, params: Params, loop: MaterialLoop) -> float:
    """Trapezoidal line integral of v_S = s u_S - (u_T + f x) grad theta_S
    around the loop, with bilinear sampling of the integrand fields."""
    g = state.grid
    pts = loop.points
    _check_inside(g, pts)
    ux, uz, ut, _ = state.values
    dx_th, dz_th = state.gradients[3]
    coef = ut + params.f * g.x_mesh
    vx_vals = params.s * ux - coef * dx_th
    vz_vals = params.s * uz - coef * dz_th
    v = _interp_pair(g, vx_vals, vz_vals, pts)
    nxt = np.roll(np.arange(pts.shape[0]), -1)
    seg = pts[nxt] - pts
    mid = 0.5 * (v + v[nxt])
    return float(np.sum(mid[:, 0] * seg[:, 0] + mid[:, 1] * seg[:, 1]))


def _row_record(state: SimState, params: Params, loop: MaterialLoop | None,
                spec: NormSpec, w1inf, lam=None, w_t=None,
                cutoffs=(None, None, None)) -> DiagnosticsRecord:
    """One diagnostics row of the state, its (u_S, u_T, theta_S) W^{1,inf}
    norms `w1inf` taken already; circulation None without a loop; lam,
    w_t and the cutoffs are the caller's."""
    g = state.grid
    enstrophy_q2 = generalized_enstrophy(state, params, np.square)
    circ = None if loop is None else circulation(state, params, loop)
    max_div = float(np.max(np.abs(from_modes(g, *divergence_modes(
        g, *state.coefs[:2])))))
    # the arguments in CSV column order
    return DiagnosticsRecord(
        state.t, energy(state, params),
        *state_component_norms(state, NormSpec(0, 2)), *w1inf,
        combine(state_component_norms(state, spec), spec.p), max_div,
        enstrophy_q2, circ, lam, w_t, *cutoffs)


def advect_loop(loop: MaterialLoop, u: VectorField, dt: float) -> MaterialLoop:
    """Move every loop point one RK4 step through the frozen velocity."""
    g = u.grid

    def vel(_t, y):
        (q,) = y
        if g.geometry is Geometry.SQUARE:
            q = np.clip(q, [0.0, 0.0], [g.lx, g.lz])
        return (_interp_pair(g, u.x.values, u.z.values, q,
                             (VX_BASIS, VZ_BASIS)),)

    (new,) = _rk4_arrays((loop.points,), vel, 0.0, dt)
    slack = 1e-9 * max(g.lx, g.lz)
    new = _check_inside(g, new, slack)
    return MaterialLoop(new)
