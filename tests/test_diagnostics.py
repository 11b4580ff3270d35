import numpy as np
import pytest

from slicelab import dynamics as dyn
from slicelab.diagnostics import (EnergyAccountingWarning, MaterialLoop,
                                  advect_loop, bkm_bound, circle_loop,
                                  circulation, energy, generalized_enstrophy,
                                  potential_vorticity)
from slicelab.errors import ConfigError, LoopDomainError
from slicelab.grid import COS, make_grid, scalar_field
from slicelab.incompressible import curl, max_divergence
from slicelab.norms import ZKP_DEFAULT, l2, norm
from slicelab.state import Params, make_state, random_state, zero_state

PI = np.pi


def sq_state(grid, ux=None, uz=None, ut=None, th=None, t=0.0):
    Z = np.zeros((grid.nz, grid.nx))
    return make_state(grid, t,
                      Z if ux is None else ux, Z if uz is None else uz,
                      Z if ut is None else ut, Z if th is None else th)


# -- energy -----------------------------------------------------------------

def test_energy_zero_state(any_grid):
    assert energy(zero_state(any_grid), Params()) == 0.0


def test_energy_kinetic_single_mode(sq64):
    X, Z = sq64.x_mesh, sq64.z_mesh
    st = sq_state(sq64, ux=-np.sin(X) * np.cos(Z), uz=np.cos(X) * np.sin(Z))
    assert energy(st, Params()) == pytest.approx(PI**2 / 4, rel=1e-10)


def test_energy_constant_theta(sq64):
    # the resolved vertical coordinate drops the unresolved tail of the
    # ramp, a percent-level deficit at this resolution (measured 3.4e-3)
    c = 0.8
    st = sq_state(sq64, th=np.full((64, 64), c))
    assert energy(st, Params()) == pytest.approx(-c * PI**3 / 2, rel=1e-2)


def test_energy_torus_warns_on_mean_theta(tor64):
    st = sq_state(tor64, th=np.full((64, 64), 0.3))
    with pytest.warns(EnergyAccountingWarning):
        energy(st, Params())


def test_energy_torus_mean_free_no_warning(tor64, recwarn):
    st = sq_state(tor64, th=np.sin(tor64.x_mesh))
    energy(st, Params())
    assert not any(isinstance(w.message, EnergyAccountingWarning)
                   for w in recwarn.list)


# -- potential vorticity ----------------------------------------------------

def test_pv_zero_state(any_grid):
    q = potential_vorticity(zero_state(any_grid), Params(s=0.0))
    assert np.max(np.abs(q.values)) == 0.0


def test_pv_constant_theta_reduces_to_vorticity(tor64):
    s = random_state(tor64, seed=4)
    st = sq_state(tor64, ux=s.u_s.x.values, uz=s.u_s.z.values,
                  ut=s.u_t.values, th=np.full((64, 64), 2.0))
    p = Params(s=0.7, f=1.3)
    q = potential_vorticity(st, p)
    om = curl(st.u_s)
    assert np.max(np.abs(q.values - p.s * om.values)) <= 1e-10


@pytest.mark.parametrize("geom", ["torus", "square"])
def test_pv_pure_theta(geom):
    L = 2 * PI if geom == "torus" else PI
    g = make_grid(geom, 64, 64, L, L)
    st = random_state(g, seed=6)
    st = sq_state(g, th=st.theta_s.values)
    p = Params(s=0.0, f=1.3)
    q = potential_vorticity(st, p)
    from slicelab.grid import differentiate
    want = -p.f * differentiate(st.theta_s, "z").values
    assert np.max(np.abs(q.values - want)) <= 1e-11


def test_pv_square_basis(sq64):
    q = potential_vorticity(random_state(sq64, seed=3), Params(s=0.0))
    assert q.basis == (COS, COS)


# -- generalized enstrophy --------------------------------------------------

def test_enstrophy_constant_phi_gives_area(any_grid):
    area = any_grid.lx * any_grid.lz
    val = generalized_enstrophy(zero_state(any_grid), Params(),
                                lambda q: np.ones_like(q))
    assert val == pytest.approx(area, rel=1e-14)


def test_enstrophy_scalar_phi_fallback(tor64):
    # a phi written for scalars (no broadcasting) still works
    val = generalized_enstrophy(zero_state(tor64), Params(), lambda q: 1.0)
    assert val == pytest.approx(4 * PI**2, rel=1e-14)


def test_enstrophy_q2_zero_state(any_grid):
    assert generalized_enstrophy(zero_state(any_grid), Params(),
                                 lambda q: q * q) == 0.0


def test_enstrophy_q2_manufactured(sq64):
    X, Z = sq64.x_mesh, sq64.z_mesh
    st = sq_state(sq64, ux=-np.sin(X) * np.cos(Z), uz=np.cos(X) * np.sin(Z))
    p = Params(s=0.7)
    # with u_T = theta_S = 0 the vorticity is the whole story:
    # q = s * omega, omega = -2 sin x sin z, ||omega||^2 = pi^2
    want = p.s**2 * PI**2
    val = generalized_enstrophy(st, p, lambda q: q * q)
    assert val == pytest.approx(want, rel=1e-10)


# -- BKM bound --------------------------------------------------------------

def test_bkm_zero_state(tor64):
    assert bkm_bound(zero_state(tor64), Params(), 1.0) == 0.0


def test_bkm_curl_free_velocity(tor64):
    st = sq_state(tor64, ux=np.full((64, 64), 3.0), uz=np.full((64, 64), 4.0))
    # omega == 0: the log term is dropped entirely
    assert bkm_bound(st, Params(), 2.0) == pytest.approx(2.0 * l2(st.u_s),
                                                         rel=1e-12)


def test_bkm_recomposition(tor64):
    import math
    st = random_state(tor64, seed=9)
    c2 = 1.7
    om_inf = float(np.max(np.abs(curl(st.u_s).values)))
    ratio = norm(st.u_s, ZKP_DEFAULT) / om_inf
    want = c2 * l2(st.u_s) + c2 * om_inf * (1.0 + max(0.0, math.log(ratio)))
    assert bkm_bound(st, Params(), c2) == pytest.approx(want, rel=1e-10)


def test_bkm_rejects_bad_constant(tor64):
    with pytest.raises(ConfigError):
        bkm_bound(zero_state(tor64), Params(), 0.0)


# -- material loops ---------------------------------------------------------

def test_loop_needs_16_points():
    ang = np.linspace(0, 2 * PI, 8, endpoint=False)
    with pytest.raises(ConfigError):
        MaterialLoop(np.column_stack([np.cos(ang), np.sin(ang)]))
    with pytest.raises(ConfigError):
        MaterialLoop(np.zeros((16, 3)))


def test_circle_loop_shape():
    lp = circle_loop(1.0, 2.0, 0.5, n_points=64)
    assert lp.points.shape == (64, 2)
    r = np.hypot(lp.points[:, 0] - 1.0, lp.points[:, 1] - 2.0)
    assert np.max(np.abs(r - 0.5)) <= 1e-12


def test_circulation_zero_state(any_grid):
    lp = circle_loop(any_grid.lx / 2, any_grid.lz / 2, any_grid.lx / 4)
    assert circulation(zero_state(any_grid), Params(), lp) == 0.0


def test_circulation_rejects_outside_loop(sq64):
    lp = circle_loop(0.1, PI / 2, 0.5)  # pokes through the left wall
    with pytest.raises(LoopDomainError) as ei:
        circulation(zero_state(sq64), Params(), lp)
    assert len(ei.value.point) == 2


def test_row_terms_take_the_theta_gradient_once(sq64, monkeypatch):
    # a row's enstrophy, circulation and max divergence share the state's
    # one first-derivative pass, which transforms theta_S once (the state
    # keeps the coefficients) for its d_x, d_z pair, and equal the separate
    # calls, taken on the same data as another state, bit for bit
    from slicelab import diagnostics, state
    p = Params(s=0.5)
    lp = circle_loop(PI / 2, PI / 2, 0.8)
    other = random_state(sq64, seed=9)
    want = (generalized_enstrophy(other, p, np.square),
            circulation(other, p, lp), max_divergence(other.u_s))
    st = random_state(sq64, seed=9)
    theta_calls = []
    real = state.to_modes
    monkeypatch.setattr(state, "to_modes", lambda g, v, b: (
        theta_calls.append(b) if v is st.theta_s.values else None)
        or real(g, v, b))
    derivs = diagnostics._first_derivatives(st)

    def terms(loop):
        rec = diagnostics._row_record(st, p, loop, ZKP_DEFAULT, *derivs)
        return rec.enstrophy_q2, rec.circulation, rec.max_div

    assert repr(terms(lp)) == repr(want)
    assert theta_calls == [st.theta_s.basis]
    assert repr(terms(None)) == repr((want[0], None, want[2]))


def test_advect_loop_zero_velocity_is_identity(sq64):
    lp = circle_loop(PI / 2, PI / 2, 0.8)
    moved = advect_loop(lp, zero_state(sq64).u_s, 0.1)
    assert np.max(np.abs(moved.points - lp.points)) == 0.0


def test_circulation_constant_for_stationary_flow(sq64):
    # u_S = 0 stays u_S = 0; the loop never moves and the integral repeats
    st = zero_state(sq64)
    p = Params(s=0.0)
    lp = circle_loop(PI / 2, PI / 2, 0.8)
    c0 = circulation(st, p, lp)
    for _ in range(3):
        lp = advect_loop(lp, st.u_s, 0.01)
        st = dyn.step_rk4(st, p, 0.01)
        assert circulation(st, p, lp) == c0


def test_advected_circulation_drift(sq64):
    # smooth flow, 256-point loop, T = 0.5 at desk resolution; the drift is
    # interpolation-limited (measured 8.5e-4 for this seed)
    p = Params(s=0.0)
    st = random_state(sq64, seed=42, max_mode=3, amplitude=0.5)
    lp = circle_loop(PI / 2, PI / 2, 0.8)
    c0 = circulation(st, p, lp)
    dt = 1e-3
    for _ in range(500):
        lp = advect_loop(lp, st.u_s, dt)
        st = dyn.step_rk4(st, p, dt)
    assert abs(circulation(st, p, lp) - c0) / abs(c0) <= 1e-3


# -- conservation over a run ------------------------------------------------

def run_conservation(s_value):
    g = make_grid("square", 64, 64, PI, PI)
    p = Params(s=s_value)
    st = random_state(g, seed=42, max_mode=3, amplitude=0.5)
    e0 = energy(st, p)
    c0 = generalized_enstrophy(st, p, lambda q: q * q)
    for _ in range(250):
        st = dyn.step_rk4(st, p, 1e-3)
    de = abs(energy(st, p) - e0) / max(1.0, abs(e0))
    dc = abs(generalized_enstrophy(st, p, lambda q: q * q) - c0) \
        / max(1.0, abs(c0))
    return de, dc


def test_conservation_square_desk_scale():
    de, dc = run_conservation(0.0)
    assert de <= 1e-6
    assert dc <= 1e-4


@pytest.mark.xfail(reason="the x-even z-source breaks the parity closure "
                   "the wall-respecting bases rely on; discrete energy and "
                   "enstrophy conservation on the square holds for s = 0 "
                   "only", strict=True)
def test_conservation_square_nonzero_s():
    de, dc = run_conservation(1.0)
    assert de <= 1e-6 and dc <= 1e-4
