"""Leray projection, divergence and curl.

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
`divergence` is a value shell over `divergence_modes`; a `VectorField` on
the square holds its components in (VX_BASIS, VZ_BASIS), the bases it
assumes.
"""

from __future__ import annotations

import numpy as np

from .grid import (Grid, ScalarField, VectorField, VX_BASIS, VZ_BASIS,
                   axis_derivative_modes, from_modes, to_modes)


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
    phi = div / grid.laplacian_symbol(basis)
    gx, _ = axis_derivative_modes(grid, phi, basis, "x")
    gz, _ = axis_derivative_modes(grid, phi, basis, "z")
    return cx - gx, cz - gz


def project_values(grid: Grid, x_values: np.ndarray, z_values: np.ndarray):
    """Array-level Leray projection (hot path; assumes canonical bases)."""
    px, pz = _project_modes(grid, to_modes(grid, x_values, VX_BASIS),
                            to_modes(grid, z_values, VZ_BASIS))
    return from_modes(grid, px, VX_BASIS), from_modes(grid, pz, VZ_BASIS)


def divergence(v: VectorField) -> ScalarField:
    """d_x v_x + d_z v_z, by `divergence_modes`."""
    # a velocity field's components are in (VX_BASIS, VZ_BASIS)
    g = v.grid
    c, basis = divergence_modes(g, to_modes(g, v.x.values, VX_BASIS),
                                to_modes(g, v.z.values, VZ_BASIS))
    return ScalarField(g, from_modes(g, c, basis), basis)


def max_divergence(u: VectorField) -> float:
    return float(np.max(np.abs(divergence(u).values)))
