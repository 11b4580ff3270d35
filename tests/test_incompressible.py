import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slicelab.errors import ConfigError
from slicelab.grid import (COS, VX_BASIS, VZ_BASIS, ScalarField, VectorField,
                           integrate, make_grid, vector_field)
from slicelab.incompressible import divergence, max_divergence
from slicelab.state import random_state

from helpers import (curl, l2, leray_project, oracle_velocity_from_vorticity,
                     streamfunction_velocity)

PI = np.pi
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def random_velocity(grid, seed):
    # grad-perp of a random stream function is exactly solenoidal, so build
    # test inputs with an added gradient part instead
    s = random_state(grid, seed)
    return s.u_s


def inner(grid, v, w):
    return integrate(grid, v.x.values * w.x.values + v.z.values * w.z.values)


# -- pinned examples --------------------------------------------------------

def test_divergence_example(tor64):
    v = vector_field(tor64, np.sin(tor64.x_mesh), np.sin(tor64.z_mesh))
    want = np.cos(tor64.x_mesh) + np.cos(tor64.z_mesh)
    assert np.max(np.abs(divergence(v).values - want)) <= 1e-11


def test_project_removes_gradient_part(tor64):
    v = vector_field(tor64, np.cos(tor64.x_mesh) + np.sin(tor64.z_mesh),
                     np.zeros((64, 64)))
    p = leray_project(v)
    assert np.max(np.abs(p.x.values - np.sin(tor64.z_mesh))) <= 1e-11
    assert np.max(np.abs(p.z.values)) <= 1e-11


def test_project_annihilates_pure_gradient(tor64):
    X, Z = tor64.x_mesh, tor64.z_mesh
    v = vector_field(tor64, np.cos(X) * np.sin(Z), np.sin(X) * np.cos(Z))
    p = leray_project(v)
    assert max(np.max(np.abs(p.x.values)), np.max(np.abs(p.z.values))) <= 1e-11


def test_project_fixes_solenoidal_field(any_grid):
    u = random_velocity(any_grid, 7)
    p = leray_project(u)
    assert np.max(np.abs(p.x.values - u.x.values)) <= 1e-11
    assert np.max(np.abs(p.z.values - u.z.values)) <= 1e-11


def test_square_vector_field_refuses_other_bases(sq64):
    zero = np.zeros((64, 64))
    with pytest.raises(ConfigError, match="must be in the bases"):
        VectorField(ScalarField(sq64, zero, (COS, COS)),
                    ScalarField(sq64, zero, VZ_BASIS))
    with pytest.raises(ConfigError, match="must be in the bases"):
        VectorField(ScalarField(sq64, zero, VZ_BASIS),
                    ScalarField(sq64, zero, VX_BASIS))


def test_curl_of_grad_perp(tor64):
    X, Z = tor64.x_mesh, tor64.z_mesh
    psi = ScalarField(tor64, np.sin(X) * np.sin(Z))
    w = curl(streamfunction_velocity(psi))
    assert np.max(np.abs(w.values + 2 * np.sin(X) * np.sin(Z))) <= 1e-11


def test_vorticity_round_trip(any_grid):
    u = random_velocity(any_grid, 19)
    bx, bz = oracle_velocity_from_vorticity(any_grid, curl(u).values)
    assert np.max(np.abs(bx - u.x.values)) <= 1e-11
    assert np.max(np.abs(bz - u.z.values)) <= 1e-11


# -- projector algebra ------------------------------------------------------

@given(seeds)
def test_projector_idempotent(seed):
    g = make_grid("torus", 32, 32, 2 * PI, 2 * PI)
    rng = np.random.default_rng(seed)
    v = vector_field(g, rng.standard_normal((32, 32)),
                     rng.standard_normal((32, 32)))
    p = leray_project(v)
    pp = leray_project(p)
    assert np.max(np.abs(pp.x.values - p.x.values)) <= 1e-12
    assert np.max(np.abs(pp.z.values - p.z.values)) <= 1e-12


@given(seeds)
def test_projector_kills_divergence(seed):
    g = make_grid("square", 32, 32, PI, PI)
    s = random_state(g, seed)
    grad_part = streamfunction_velocity(s.theta_s)  # reuse a random scalar
    # perturb a solenoidal field by a gradient: grad of a Neumann scalar
    v = vector_field(g, s.u_s.x.values + 0.3 * grad_part.x.values,
                     s.u_s.z.values + 0.3 * grad_part.z.values)
    p = leray_project(v)
    scale = max(1.0, float(np.max(np.abs(p.x.values))))
    assert max_divergence(p) <= 1e-10 * scale


@given(seeds)
def test_projector_contracts(seed):
    g = make_grid("torus", 32, 32, 2 * PI, 2 * PI)
    rng = np.random.default_rng(seed)
    v = vector_field(g, rng.standard_normal((32, 32)),
                     rng.standard_normal((32, 32)))
    p = leray_project(v)
    assert l2(p) <= l2(v) + 1e-12


@given(seeds)
def test_projector_orthogonal_complement(seed):
    g = make_grid("torus", 32, 32, 2 * PI, 2 * PI)
    rng = np.random.default_rng(seed)
    v = vector_field(g, rng.standard_normal((32, 32)),
                     rng.standard_normal((32, 32)))
    p = leray_project(v)
    resid = vector_field(g, v.x.values - p.x.values, v.z.values - p.z.values)
    scale = max(1.0, l2(v) ** 2)
    assert abs(inner(g, p, resid)) <= 1e-10 * scale


@given(seeds, seeds)
def test_projector_self_adjoint(seed_a, seed_b):
    g = make_grid("square", 32, 32, PI, PI)
    rng_a = np.random.default_rng(seed_a)
    rng_b = np.random.default_rng(seed_b)
    v = vector_field(g, rng_a.standard_normal((32, 32)),
                     rng_a.standard_normal((32, 32)))
    w = vector_field(g, rng_b.standard_normal((32, 32)),
                     rng_b.standard_normal((32, 32)))
    scale = max(1.0, l2(v) * l2(w))
    assert abs(inner(g, leray_project(v), w)
               - inner(g, v, leray_project(w))) <= 1e-10 * scale


# -- wall condition ---------------------------------------------------------

def test_square_projection_is_wall_tangent(sq64):
    # band-limited input keeps the wall sums dominated by the structural
    # zeros of the basis rather than by sin(m*pi) rounding
    s = random_state(sq64, seed=23, max_mode=5)
    grad_part = streamfunction_velocity(s.theta_s)
    v = vector_field(sq64, s.u_s.x.values + 0.5 * grad_part.x.values,
                     s.u_s.z.values + 0.5 * grad_part.z.values)
    p = leray_project(v)
    scale = max(1.0, float(np.max(np.abs(p.x.values))),
                float(np.max(np.abs(p.z.values))))
    # evaluate the normal component on each wall from the mode expansion;
    # the sine factor in the normal direction vanishes there termwise
    import scipy.fft as sfft
    from slicelab.grid import to_modes
    cx = to_modes(sq64, p.x.values, p.x.basis)
    cz = to_modes(sq64, p.z.values, p.z.basis)
    kx = np.arange(1, 65) * PI / sq64.lx
    kz = np.arange(1, 65) * PI / sq64.lz
    for wall_x in (0.0, sq64.lx):
        w = np.sin(kx * wall_x)
        w[-1] *= 0.5  # top sine slot carries half weight in the inverse
        trace = sfft.idct((2.0 / 64) * (cx * w[None, :]).sum(axis=1), type=2)
        assert np.max(np.abs(trace)) <= 1e-12 * scale
    for wall_z in (0.0, sq64.lz):
        w = np.sin(kz * wall_z)
        w[-1] *= 0.5
        trace = sfft.idct((2.0 / 64) * (cz * w[:, None]).sum(axis=0), type=2)
        assert np.max(np.abs(trace)) <= 1e-12 * scale
