"""Leray projection, divergence, curl, and Biot-Savart velocity recovery.

The projector P removes the gradient part of a vector field: P v = v -
grad(phi) with laplacian(phi) = div v, the pressure gauge fixed by a zero
mean.  On the torus this is the per-mode orthogonal projection
v_hat - k (k.v_hat)/|k|^2.  On the free-slip square it is the same
per-mode algebra in the compatible parity bases: the divergence of a
structurally tangent field lives in the cosine-cosine basis, whose members
satisfy the homogeneous Neumann condition termwise, so the pressure
problem needs no boundary penalty.
"""

from __future__ import annotations

import operator
import warnings

import numpy as np

from .grid import (SIN, Geometry, Grid, ScalarField, VectorField, VX_BASIS,
                   VZ_BASIS, axis_derivative_modes, from_modes, scalar_field,
                   to_modes, vector_field)


class MeanVorticityWarning(UserWarning):
    """Raised when a torus Biot-Savart drops a nonzero mean vorticity."""


def _derivative_pair(g: Grid, a: ScalarField, a_axis: str, op,
                     b: ScalarField, b_axis: str) -> ScalarField:
    """op(d_(a_axis) a, d_(b_axis) b), spectrally; op is add or sub."""
    ca, ba = axis_derivative_modes(g, to_modes(g, a.values, a.basis),
                                   a.basis, a_axis)
    cb, bb = axis_derivative_modes(g, to_modes(g, b.values, b.basis),
                                   b.basis, b_axis)
    if ba != bb:
        # mixed-parity input; fall back to physical-space addition
        return scalar_field(
            g, op(from_modes(g, ca, ba), from_modes(g, cb, bb)),
            ba if g.geometry is Geometry.SQUARE else None)
    return scalar_field(g, from_modes(g, op(ca, cb), ba), ba)


def divergence(v: VectorField) -> ScalarField:
    """d_x v_x + d_z v_z, spectrally."""
    return _derivative_pair(v.grid, v.x, "x", operator.add, v.z, "z")


def curl(v: VectorField) -> ScalarField:
    """Scalar curl d_x v_z - d_z v_x (the vorticity operator)."""
    return _derivative_pair(v.grid, v.z, "x", operator.sub, v.x, "z")


def _torus_project_modes(grid: Grid, cx, cz):
    # first-derivative wavenumbers: div and grad both kill the Nyquist
    # direction, so the pressure solve must use the same composition
    # (div.grad), not the full Laplacian symbol
    kx = grid.kx_diff[None, :]
    kz = grid.kz_diff[:, None]
    k2 = kx ** 2 + kz ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(k2 > 0, 1.0 / k2, 0.0)  # untouched where div is blind
    dot = (kx * cx + kz * cz) * inv
    return cx - kx * dot, cz - kz * dot


def _square_project_modes(grid: Grid, a, b):
    """Project raw (sin,cos)/(cos,sin) velocity coefficients.

    Slot maps: sine slot m-1 holds mode m, cosine slot m holds mode m.
    """
    nx, nz = grid.nx, grid.nz
    kxs, kzs = grid.kx_sin, grid.kz_sin
    kxc, kzc = grid.kx_cos, grid.kz_cos

    d = np.zeros((nz, nx))
    d[:, 1:] += kxc[1:][None, :] * a[:, :-1]       # d_x vx -> cos-cos
    d[1:, :] += kzc[1:][:, None] * b[:-1, :]       # d_z vz -> cos-cos

    k2 = kxc[None, :] ** 2 + kzc[:, None] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(k2 > 0, -d / k2, 0.0)       # laplacian(phi) = div v

    gx = np.zeros_like(a)
    gx[:, :-1] = -kxs[:-1][None, :] * phi[:, 1:]   # d_x phi in vx basis
    gz = np.zeros_like(b)
    gz[:-1, :] = -kzs[:-1][:, None] * phi[1:, :]   # d_z phi in vz basis
    return a - gx, b - gz


def project_values(grid: Grid, x_values: np.ndarray, z_values: np.ndarray):
    """Array-level Leray projection (hot path; assumes canonical bases)."""
    if grid.geometry is Geometry.TORUS:
        px, pz = _torus_project_modes(grid, to_modes(grid, x_values, None),
                                      to_modes(grid, z_values, None))
        return from_modes(grid, px, None), from_modes(grid, pz, None)
    pa, pb = _square_project_modes(grid, to_modes(grid, x_values, VX_BASIS),
                                   to_modes(grid, z_values, VZ_BASIS))
    return from_modes(grid, pa, VX_BASIS), from_modes(grid, pb, VZ_BASIS)


def leray_project(v: VectorField) -> VectorField:
    g = v.grid
    px, pz = project_values(g, v.x.values, v.z.values)
    return vector_field(g, px, pz)


def velocity_from_vorticity(omega: ScalarField) -> VectorField:
    """Solve laplacian(psi) = omega, return grad-perp(psi) = (-d_z, d_x) psi.

    Torus: a nonzero mean vorticity has no stream function and is dropped
    with a MeanVorticityWarning.  Square: psi = 0 on the boundary (the
    sine-sine basis), any omega.
    """
    g = omega.grid
    if g.geometry is Geometry.TORUS:
        c = to_modes(g, omega.values, None)
        mean = c[0, 0].real / (g.nx * g.nz)
        if abs(mean) > 1e-13 * max(1.0, float(np.max(np.abs(omega.values)))):
            warnings.warn("dropping nonzero mean vorticity on the torus",
                          MeanVorticityWarning, stacklevel=2)
        k2 = g.kx[None, :] ** 2 + g.kz[:, None] ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            psi = np.where(k2 > 0, -c / k2, 0.0)
    else:
        if omega.basis != (SIN, SIN):
            raise ValueError(
                "square vorticity must live in the sine-sine basis")
        c = to_modes(g, omega.values, omega.basis)
        k2 = g.kx_sin[None, :] ** 2 + g.kz_sin[:, None] ** 2
        psi = -c / k2                               # all sine modes are >= 1
    ux, bux = axis_derivative_modes(g, -psi, omega.basis, "z")
    uz, buz = axis_derivative_modes(g, psi, omega.basis, "x")
    return vector_field(g, from_modes(g, ux, bux), from_modes(g, uz, buz))


def max_divergence(u: VectorField) -> float:
    return float(np.max(np.abs(divergence(u).values)))
