"""Leray projection, divergence, curl, and Biot-Savart velocity recovery.

The projector P removes the gradient part of a vector field: P v = v -
grad(phi) with div(grad(phi)) = div v, the pressure gauge fixed by a zero
mean.  One per-mode algebra serves both geometries: the divergence is
taken into the cosine-cosine basis, divided by the symbol -|k|^2 of
div.grad, and the gradient of the quotient is subtracted.  On the
free-slip square the divergence of a structurally tangent field lives in
the cosine-cosine basis, whose members satisfy the homogeneous Neumann
condition termwise, so the pressure problem needs no boundary penalty.  On
the torus the bases are ignored and this is the orthogonal projection
v_hat - k (k.v_hat)/|k|^2 with first-derivative wavenumbers: div and grad
both kill the Nyquist direction, so the symbol is that of div.grad, not
the full Laplacian, and the modes where it vanishes are left untouched.
The grid owns every wavenumber table; this module only composes them.
"""

from __future__ import annotations

import operator
import warnings

import numpy as np

from .grid import (SCALAR_BASIS, Geometry, Grid, ScalarField, VectorField,
                   VX_BASIS, VZ_BASIS, axis_derivative_modes, from_modes,
                   scalar_field, to_modes, vector_field)


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
            g, op(from_modes(g, ca, ba), from_modes(g, cb, bb)), ba)
    return scalar_field(g, from_modes(g, op(ca, cb), ba), ba)


def divergence(v: VectorField) -> ScalarField:
    """d_x v_x + d_z v_z, spectrally."""
    return _derivative_pair(v.grid, v.x, "x", operator.add, v.z, "z")


def curl(v: VectorField) -> ScalarField:
    """Scalar curl d_x v_z - d_z v_x (the vorticity operator)."""
    return _derivative_pair(v.grid, v.z, "x", operator.sub, v.x, "z")


def divergence_modes(grid: Grid, cx, cz):
    """(coefficients, basis) of d_x u_x + d_z u_z, from velocity
    coefficients in the (VX_BASIS, VZ_BASIS) bases."""
    dx, basis = axis_derivative_modes(grid, cx, VX_BASIS, "x")
    dz, _ = axis_derivative_modes(grid, cz, VZ_BASIS, "z")
    return dx + dz, basis


def curl_modes(grid: Grid, cx, cz):
    """(coefficients, basis) of d_x u_z - d_z u_x, from velocity
    coefficients in the (VX_BASIS, VZ_BASIS) bases."""
    dx, basis = axis_derivative_modes(grid, cz, VZ_BASIS, "x")
    dz, _ = axis_derivative_modes(grid, cx, VX_BASIS, "z")
    return dx - dz, basis


def _project_modes(grid: Grid, cx, cz):
    """Project velocity coefficients in the (VX_BASIS, VZ_BASIS) bases."""
    div, basis = divergence_modes(grid, cx, cz)
    # dividing (not multiplying by a reciprocal) keeps the square bitwise
    phi = div / grid.laplacian_symbol(basis, odd=True)
    gx, _ = axis_derivative_modes(grid, phi, basis, "x")
    gz, _ = axis_derivative_modes(grid, phi, basis, "z")
    return cx - gx, cz - gz


def project_values(grid: Grid, x_values: np.ndarray, z_values: np.ndarray):
    """Array-level Leray projection (hot path; assumes canonical bases)."""
    px, pz = _project_modes(grid, to_modes(grid, x_values, VX_BASIS),
                            to_modes(grid, z_values, VZ_BASIS))
    return from_modes(grid, px, VX_BASIS), from_modes(grid, pz, VZ_BASIS)


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
    if g.geometry is Geometry.SQUARE and omega.basis != SCALAR_BASIS:
        raise ValueError("square vorticity must live in the sine-sine basis")
    c = to_modes(g, omega.values, omega.basis)
    if g.geometry is Geometry.TORUS:
        mean = c[0, 0].real / (g.nx * g.nz)
        if abs(mean) > 1e-13 * max(1.0, float(np.max(np.abs(omega.values)))):
            warnings.warn("dropping nonzero mean vorticity on the torus",
                          MeanVorticityWarning, stacklevel=2)
    psi = c / g.laplacian_symbol(omega.basis)
    ux, bux = axis_derivative_modes(g, -psi, omega.basis, "z")
    uz, buz = axis_derivative_modes(g, psi, omega.basis, "x")
    return vector_field(g, from_modes(g, ux, bux), from_modes(g, uz, buz))


def max_divergence(u: VectorField) -> float:
    return float(np.max(np.abs(divergence(u).values)))
