import math
import sys

import numpy as np
import pytest

from slicelab import dynamics as dyn
from slicelab.errors import ConfigError, DivergedError
from slicelab.experiments import _batch_state
from slicelab.grid import (ScalarField, from_modes, make_grid, to_modes,
                           vector_field)
from slicelab.incompressible import (_project_modes, max_divergence,
                                     project_values)
from slicelab.norms import W1INF, state_component_norms, w1inf_bound
from slicelab.state import (STATE_BASES, THETA_BASIS, UT_BASIS, Params,
                            SimState, make_state, random_state, scale_state,
                            zero_state)
from slicelab.stochastic import (LinearMultiplicative, PointwiseNemytskii,
                                 step_em, step_transformed)

from helpers import (curl, l2, rhs_arrays_oracle, rhs_norm_oracle,
                     rhs_vorticity, state_max_abs_diff, step_em_oracle,
                     step_rk4_oracle, step_rk4_vorticity,
                     step_transformed_oracle, zero_scalar)

PI = np.pi

# forcing-free parameter sets exercise individual couplings in isolation
P_S0 = Params(s=0.0)


def tendency_max(td):
    return max(np.max(np.abs(a)) for a in td)


# -- pinned right-hand-side examples ----------------------------------------

def test_zero_state_zero_tendency(any_grid):
    td = dyn.rhs_deterministic(zero_state(any_grid), P_S0)
    assert tendency_max(td) == 0.0


def test_uniform_ut_drives_ux(tor64):
    X = tor64.x_mesh
    c, f = 0.7, 1.3
    st = make_state(tor64, 0.0, 0 * X, 0 * X, c + 0 * X, 0 * X)
    dux, duz, dut, dth = dyn.rhs_deterministic(st, Params(f=f, s=0.0))
    assert np.max(np.abs(dux - f * c)) <= 1e-14
    assert np.max(np.abs(duz)) <= 1e-14
    assert np.max(np.abs(dut)) <= 1e-14
    assert np.max(np.abs(dth)) <= 1e-14


def test_buoyancy_drives_uz(tor64):
    X = tor64.x_mesh
    p = Params(f=2.0, g=3.0, theta0=1.5, s=0.0)
    st = make_state(tor64, 0.0, 0 * X, 0 * X, 0 * X, np.sin(X))
    dux, duz, _, _ = dyn.rhs_deterministic(st, p)
    assert np.max(np.abs(duz - p.buoyancy * np.sin(X))) <= 1e-13
    assert np.max(np.abs(dux)) <= 1e-13


def test_rhs_rejects_nonfinite_state(tor64):
    bad = make_state(tor64, 0.0, *(np.full((64, 64), np.nan) if i == 0
                                   else np.zeros((64, 64)) for i in range(4)))
    with pytest.raises(DivergedError):
        dyn.rhs_deterministic(bad, P_S0)


# -- vorticity formulation --------------------------------------------------

def test_vorticity_rhs_buoyancy(tor64):
    X = tor64.x_mesh
    p = Params(f=2.0, g=3.0, theta0=1.5, s=0.0)
    dom, dut, dth = rhs_vorticity(zero_scalar(tor64), zero_scalar(tor64),
                                      ScalarField(tor64, np.sin(X)), p)
    assert np.max(np.abs(dom.values - p.buoyancy * np.cos(X))) <= 1e-13
    assert np.max(np.abs(dut.values)) <= 1e-13


@pytest.mark.parametrize("geom", ["torus", "square"])
def test_cross_formulation_rhs(geom):
    L = 2 * PI if geom == "torus" else PI
    g = make_grid(geom, 64, 64, L, L)
    p = Params(f=1.1, g=1.7, theta0=1.3, s=0.0)
    st = random_state(g, seed=7, max_mode=4, amplitude=0.8)
    om = curl(st.u_s)
    dom, dut, dth = rhs_vorticity(om, st.u_t, st.theta_s, p)
    td = dyn.rhs_deterministic(st, p)
    dom_ref = curl(vector_field(g, td[0], td[1]))
    scale = max(l2(om), 1.0)
    err = l2(ScalarField(g, dom.values - dom_ref.values, dom.basis))
    assert err <= 1e-9 * scale
    assert np.max(np.abs(dut.values - td[2])) <= 1e-9
    assert np.max(np.abs(dth.values - td[3])) <= 1e-9


# -- time stepping ----------------------------------------------------------

def euler(st, p, dt, radius=math.inf):
    """The explicit Euler step: Euler-Maruyama at a zero increment."""
    return step_em(st, p, dt, 0.0, LinearMultiplicative(0.0), radius)


def test_step_advances_time(tor64):
    st = random_state(tor64, seed=1)
    assert dyn.step_rk4(st, P_S0, 0.01).t == pytest.approx(0.01)
    assert euler(st, P_S0, 0.01).t == pytest.approx(0.01)


@pytest.mark.parametrize("dt", [0.0, -0.1, float("nan")])
def test_step_rejects_bad_dt(tor64, dt):
    st = zero_state(tor64)
    with pytest.raises(ConfigError):
        dyn.step_rk4(st, P_S0, dt)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e100, 1e150, 1e200])
def test_diverged_step_reports_its_input_state(scale):
    # the blow-up first shows inside an RK4 stage; the error still carries
    # the step's finite input, never a stage state
    g = make_grid("torus", 32, 32, 2 * PI, 2 * PI)
    st = scale_state(random_state(g, seed=3), scale)
    with pytest.raises(DivergedError) as exc:
        dyn.step_rk4(st, Params(), 1e-3)
    assert exc.value.last_state is st


# -- work per tendency and per step -----------------------------------------

@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, *names) counts the calls of slicelab functions
    through every slicelab module that imported them; returns the live
    {name: calls} dict."""
    counts = {}

    def counter(name, orig):
        def counted(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)
        return counted

    def install(module, *names):
        for name in names:
            orig = getattr(sys.modules[f"slicelab.{module}"], name)
            counts[name] = 0
            wrapped = counter(name, orig)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("slicelab") and \
                        vars(mod).get(name) is orig:
                    monkeypatch.setattr(mod, name, wrapped)
        return counts
    return install


@pytest.fixture
def sq32_state():
    return random_state(make_grid("square", 32, 32, PI, PI), seed=3)


def _transforms(count_calls):
    calls = count_calls("grid", "to_modes", "from_modes")
    return lambda: calls["to_modes"] + calls["from_modes"]


def _step_transforms(count_calls, state, step):
    # the transforms of one step of the state
    state.grid.z_weight_modes
    transforms = _transforms(count_calls)
    step(state)
    return transforms()


# the counts at s = 0 and, on the square, at s != 0, where every stage
# re-expands u_T in theta_S's basis (one forward transform, and an inverse
# one where the stage holds no u_T values); the grid builds its z-weight
# table for the s source once, before the counts start.  A plain stage in
# rotational form takes u_S's values and vorticity and u_T's and
# theta_S's first derivatives back (7) and 4 products forward: 11.  A
# LARGE radius is above the state's `w1inf_bound`, so every stage is
# certified and costs the plain count; a SMALL one is below its exact
# norms, and a stage then also reads u_T's and theta_S's values and u_S's
# derivatives for its norms: 17.  In a step at s != 0 the s source puts
# u_S out of the 2/3 band from the third stage on, which then takes the
# advective form (14 plain, 16 with its norms, each + 2 for the s terms).

LARGE, SMALL = 1e6, 1e-3
RADII = {"inf": math.inf, "certified": LARGE, "uncertified": SMALL}


def _count_cases(counts):
    # {(s, radius name): transforms} as parameters whose ids name the case,
    # not its count, so that a change of count keeps the test's id
    return [pytest.param(s, RADII[r], n, id=f"s{s:g}-{r}")
            for (s, r), n in counts.items()]


def test_the_pinned_radii_straddle_the_norms(sq32_state):
    # LARGE certifies the pinned state; SMALL is below its exact norms
    assert max(w1inf_bound(sq32_state.grid, sq32_state.coefs)) < LARGE
    assert min(sq32_state.w1inf) > SMALL
    assert dyn._in_band(sq32_state.grid, *sq32_state.coefs[:2])


@pytest.mark.parametrize("s,radius,expected", _count_cases({
    (0.0, "inf"): 11, (0.0, "certified"): 11, (0.0, "uncertified"): 17,
    (1.0, "inf"): 13, (1.0, "certified"): 13, (1.0, "uncertified"): 18}))
def test_transforms_per_tendency(count_calls, sq32_state, s, radius,
                                 expected):
    # a later stage: coefficients in, the values it reads transformed back
    coefs = sq32_state.coefs
    sq32_state.grid.z_weight_modes
    transforms = _transforms(count_calls)
    dyn._rhs_arrays(sq32_state.grid, Params(s=s), *coefs, radius=radius)
    assert transforms() == expected


# per step of a state, made from values or by a step alike: its first
# stage costs what a later one does, and nothing transforms back at the
# step end; at s = 1, 13 + 13 + 16 + 16 (18 + 18 + 17 + 17 with norms)

@pytest.mark.parametrize("s,radius,expected", _count_cases({
    (0.0, "inf"): 44, (0.0, "certified"): 44, (0.0, "uncertified"): 68,
    (1.0, "inf"): 58, (1.0, "certified"): 58, (1.0, "uncertified"): 70}))
def test_transforms_per_rk4_step(count_calls, sq32_state, s, radius,
                                 expected):
    assert _step_transforms(count_calls, sq32_state, lambda st: dyn.step_rk4(
        st, Params(s=s), 1e-3, radius=radius)) == expected


def test_transforms_per_transformed_step(count_calls, sq32_state):
    assert _step_transforms(count_calls, sq32_state, lambda st: (
        step_transformed(st, Params(s=0.0), 1e-3, 0.7, 0.1, 0.2))) == 44


@pytest.mark.parametrize("s,radius,expected", _count_cases({
    (0.0, "inf"): 11, (0.0, "certified"): 11, (0.0, "uncertified"): 17,
    (1.0, "inf"): 13}))
def test_transforms_per_em_step(count_calls, sq32_state, s, radius,
                                expected):
    # linear noise scales the step's coefficients: no transform of its own
    assert _step_transforms(count_calls, sq32_state, lambda st: step_em(
        st, Params(s=s), 1e-3, 0.01, LinearMultiplicative(0.5),
        radius=radius)) == expected


@pytest.mark.filterwarnings(
    "ignore::slicelab.diagnostics.EnergyAccountingWarning")
@pytest.mark.parametrize("geometry", ["torus", "square"])
@pytest.mark.parametrize("stride,rows,monitored", [(2, 4, 2), (5, 2, 4)])
def test_transforms_per_observed_state(count_calls, monkeypatch, tmp_path,
                                       geometry, stride, rows, monitored):
    # a truncated sim-det run observes every state: its W^{1,inf} norms
    # read the state's 4 values and 8 first derivatives back (12, all a
    # state the monitor alone reads), and a row with a loop adds u_S's
    # vorticity and divergence (14; its Z^{3,2} column reads the state's
    # coefficients); the two strides pin both counts.
    # Each step's first stage takes the norms, values, gradients and
    # vorticity the state holds, and the radius certifies the later
    # stages.  At s = 0 a step after a row takes 4 + 3 * 11 = 37, and
    # after the monitor alone 38, since it transforms the vorticity back.
    # At s = 0.5 the first step takes 4 + 11 + 14 + 14 = 43, its last two
    # stages advective, and the later ones, whose states are out of the
    # band, 4 + 3 * 14 = 46; the square re-expands u_T once per stage
    # (+ 7), and the first step builds the z-weight table (+ 1).
    from slicelab import runner
    from slicelab.config import parse_config
    calls = count_calls("grid", "to_modes", "from_modes")

    def transforms():
        return calls["to_modes"] + calls["from_modes"]

    elsewhere = []

    def outside_observation(fn):
        def counted(*args, **kwargs):
            before = transforms()
            try:
                return fn(*args, **kwargs)
            finally:
                elsewhere.append(transforms() - before)
        return counted

    for name in ("step_rk4", "_initial_state"):
        monkeypatch.setattr(runner, name,
                            outside_observation(getattr(runner, name)))
    for s in (0.0, 0.5):
        cfg = parse_config(
            f"[grid]\ngeometry = {geometry}\nnx = 16\n[params]\ns = {s}\n"
            f"[time]\ndt = 1e-3\nt_final = 5e-3\n[monitor]\n"
            f"radius = 1e6\n[data]\nseed = 3\namplitude = 0.3\n"
            f"[output]\nout_dir = {tmp_path}\nstride = {stride}\n"
            f"loop_radius = 0.5\n", mode="sim-det")
        calls["to_modes"] = calls["from_modes"] = 0
        elsewhere.clear()
        assert runner.run(cfg).status == 0
        if s:
            cross = 7 * (geometry == "square")
            per_step = [44 + cross] + [46 + cross] * 4
        else:
            # the state step k starts from had a row
            per_step = [37 if k % stride == 0 else 38 for k in range(5)]
        assert elsewhere[1:] == per_step, s
        assert transforms() - sum(elsewhere) == 14 * rows + 12 * monitored


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_transforms_per_state_norm(count_calls, geometry):
    # a Z^{3,2} state norm taken alone reads the coefficients: no
    # transform; an L^2 norm reads the values, transformed back once, on
    # first read, for a state made from values or by a step alike
    from slicelab.norms import NormSpec, ZKP_DEFAULT, norm
    st = random_state(make_grid(geometry, 32, 16, PI, PI), seed=3)
    stepped = dyn.step_rk4(st, Params(), 1e-3)
    calls = count_calls("grid", "to_modes", "from_modes")
    for state in (st, stepped):
        for spec, expected in ((ZKP_DEFAULT, (0, 0)), (NormSpec(0, 2), (0, 4)),
                               (NormSpec(0, 2), (0, 0))):
            calls.update(to_modes=0, from_modes=0)
            norm(state, spec)
            assert (calls["to_modes"], calls["from_modes"]) == expected


def test_rk4_step_wraps_and_checks_one_state(count_calls, sq32_state):
    # the stages pass raw arrays; only the new state is wrapped and checked
    calls = count_calls("state", "SimState", "make_state", "state_is_finite")
    dyn.step_rk4(sq32_state, Params(), 1e-3)
    assert (calls["SimState"], calls["make_state"],
            calls["state_is_finite"]) == (1, 0, 1)


def test_harmonic_rotation_oracle(tor64):
    # with only uniform u_x and u_T the system reduces to du_x = f u_T,
    # du_T = -f u_x: rotation at frequency f
    p = Params(f=1.7, s=0.0)
    a0, b0 = 0.4, 0.9
    X = tor64.x_mesh
    cur = make_state(tor64, 0.0, a0 + 0 * X, 0 * X, b0 + 0 * X, 0 * X)
    dt = 0.01
    n = int(round(2 * PI / p.f / dt))
    for _ in range(n):
        cur = dyn.step_rk4(cur, p, dt)
    T = n * dt
    a_exact = a0 * np.cos(p.f * T) + b0 * np.sin(p.f * T)
    b_exact = -a0 * np.sin(p.f * T) + b0 * np.cos(p.f * T)
    assert np.max(np.abs(cur.u_s.x.values - a_exact)) <= 1e-8
    assert np.max(np.abs(cur.u_t.values - b_exact)) <= 1e-8


def run_to(st, p, dt, n, stepper=None):
    step = stepper or dyn.step_rk4
    for _ in range(n):
        st = step(st, p, dt)
    return st


def test_rk4_fixed_horizon_order():
    g = make_grid("torus", 32, 32, 2 * PI, 2 * PI)
    st = random_state(g, seed=3, max_mode=3, amplitude=0.5)
    p = Params()
    ref = run_to(st, p, 0.1 / 80, 80)
    e_coarse = state_max_abs_diff(run_to(st, p, 0.01, 10), ref)
    e_fine = state_max_abs_diff(run_to(st, p, 0.005, 20), ref)
    # fourth order: halving dt should cut the fixed-horizon error ~16x
    assert 11.0 <= e_coarse / e_fine <= 22.0


def test_euler_fixed_horizon_order():
    g = make_grid("torus", 32, 32, 2 * PI, 2 * PI)
    st = random_state(g, seed=3, max_mode=3, amplitude=0.5)
    p = Params()
    ref = run_to(st, p, 0.1 / 320, 320)
    e_coarse = state_max_abs_diff(run_to(st, p, 0.01, 10, euler), ref)
    e_fine = state_max_abs_diff(run_to(st, p, 0.005, 20, euler), ref)
    assert 1.6 <= e_coarse / e_fine <= 2.6


@pytest.mark.parametrize("geom", ["torus", "square"])
def test_velocity_stays_solenoidal(geom):
    L = 2 * PI if geom == "torus" else PI
    g = make_grid(geom, 64, 64, L, L)
    st = random_state(g, seed=12)
    p = Params(s=0.0 if geom == "square" else 1.0)
    for _ in range(5):
        st = dyn.step_rk4(st, p, 5e-3)
        assert max_divergence(st.u_s) <= 1e-10 * max(1.0, l2(st.u_s))


@pytest.mark.parametrize("geom", ["torus", "square"])
def test_cross_formulation_trajectories(geom):
    # the two formulations discretize the same flow with different
    # operator chains; their trajectories track to discretization accuracy
    L = 2 * PI if geom == "torus" else PI
    g = make_grid(geom, 64, 64, L, L)
    p = Params(s=0.0)
    st = random_state(g, seed=42, max_mode=3, amplitude=0.5)
    om, ut, th = curl(st.u_s), st.u_t, st.theta_s
    for _ in range(100):
        st = dyn.step_rk4(st, p, 1e-3)
        om, ut, th = step_rk4_vorticity(om, ut, th, p, 1e-3)
    om_ref = curl(st.u_s)
    err = l2(ScalarField(g, om.values - om_ref.values, om.basis))
    assert err <= 1e-6 * l2(om_ref)


def test_truncated_trajectory_matches_plain(tor64):
    st_a = random_state(tor64, seed=8, max_mode=3, amplitude=0.4)
    st_b = st_a
    p = Params()
    for _ in range(10):
        st_a = dyn.step_rk4(st_a, p, 5e-3)
        st_b = dyn.step_rk4(st_b, p, 5e-3, radius=1e6)
        assert state_max_abs_diff(st_a, st_b) == 0.0


# -- cutoff and truncated dynamics ------------------------------------------

def test_cutoff_pinned_values():
    assert dyn.cutoff(0.5, 1.0) == 1.0
    assert dyn.cutoff(1.0, 1.0) == 1.0   # plateau edge included
    assert dyn.cutoff(1.5, 1.0) == 0.5   # symmetry point is exact
    assert dyn.cutoff(2.0, 1.0) == 0.0
    assert dyn.cutoff(3.0, 1.0) == 0.0
    assert dyn.cutoff(0.0, 2.5) == 1.0


def test_cutoff_monotone_and_smoothly_bounded():
    ys = np.linspace(0.0, 3.0, 601)
    vals = [dyn.cutoff(y, 1.0) for y in ys]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_cutoff_rejects_bad_radius():
    with pytest.raises(ConfigError):
        dyn.cutoff(1.0, 0.0)
    with pytest.raises(ConfigError):
        dyn.cutoff(1.0, -2.0)


@pytest.mark.parametrize("where", [0, 1, 2])
def test_cutoffs_from_norms_keep_a_nan_in_any_place(where):
    norms = [1.0, 1.0, 1.0]
    norms[where] = float("nan")
    cuts = dyn.cutoffs_from_norms(tuple(norms), 2.0)
    # u_S enters all three pairs, u_T only the second, theta_S the third
    nan_at = {0: (0, 1, 2), 1: (1,), 2: (2,)}[where]
    assert [np.isnan(c) for c in cuts] == [i in nan_at for i in range(3)]
    assert all(c == 1.0 for i, c in enumerate(cuts) if i not in nan_at)


def test_cutoffs_from_norms_pair_finite_norms_with_max():
    rng = np.random.default_rng(3)
    for n_us, n_ut, n_th in rng.uniform(0.0, 5.0, size=(50, 3)).tolist():
        cuts = dyn.cutoffs_from_norms((n_us, n_ut, n_th), 1.3)
        assert cuts == (dyn.cutoff(n_us, 1.3), dyn.cutoff(max(n_us, n_ut), 1.3),
                        dyn.cutoff(max(n_us, n_th), 1.3))


def test_cutoff_factors_zero_state(tor64):
    assert dyn.cutoff_factors(zero_state(tor64), 1.0) == (1.0, 1.0, 1.0)


def test_truncated_matches_plain_on_plateau(tor64):
    st = random_state(tor64, seed=5, max_mode=3, amplitude=0.3)
    p = Params(f=1.2, g=0.9, theta0=1.1, s=1.0)
    plain = dyn.rhs_deterministic(st, p)
    trunc = dyn.rhs_truncated(st, p, radius=1e6)
    for a, b in zip(plain, trunc):
        assert (a == b).all()  # bitwise: the plateau factor is exactly 1.0


def test_truncated_far_zone_drops_advection(tor64):
    st = random_state(tor64, seed=5, max_mode=3, amplitude=0.3)
    p = Params(f=1.2, g=0.9, theta0=1.1, s=1.0)
    far = dyn.rhs_truncated(st, p, radius=1e-8)
    # the linear couplings alone, in the stage's coefficient-space order
    cx, cz, ct, cth = st.coefs
    ref_x, ref_z = _project_modes(tor64, p.f * ct, p.buoyancy * cth)
    assert np.max(np.abs(far[0] - from_modes(tor64, ref_x, None))) == 0.0
    assert np.max(np.abs(far[2] - from_modes(
        tor64, -p.f * cx - (p.buoyancy * p.s) * tor64.z_weight_modes,
        UT_BASIS))) == 0.0
    assert np.max(np.abs(far[3] - from_modes(tor64, -p.s * ct,
                                              THETA_BASIS))) == 0.0


def test_truncated_mid_blend(tor64):
    base = random_state(tor64, seed=6, max_mode=3, amplitude=0.5)
    ux, uz, ut, th = base.values
    # push the scalars well below u_S so all three channel norms equal the
    # u_S norm and every blend factor is the same half
    st = make_state(tor64, 0.0, ux, uz, 1e-3 * ut, 1e-3 * th)
    p = Params(f=1.2, g=0.9, theta0=1.1, s=1.0)
    n_us = state_component_norms(st, W1INF)[0]
    mid = dyn.rhs_truncated(st, p, radius=n_us / 1.5)
    plain = dyn.rhs_deterministic(st, p)
    far = dyn.rhs_truncated(st, p, radius=1e-10)
    scale = max(1.0, tendency_max(plain))
    for m, a, b in zip(mid, plain, far):
        assert np.max(np.abs(m - 0.5 * (a + b))) <= 1e-12 * scale


def _cutoff_class(c):
    return "0" if c == 0.0 else "1" if c == 1.0 else "between"


def _scaled_state(g):
    # u_T and theta_S scaled to 1.5 and 3 times the u_S norm, so that radii
    # of 10, 1.6, 1.01, 0.8 and 0.4 times it put each of the three cut-offs
    # at 1, strictly between 0 and 1, and at 0
    base = random_state(g, seed=4, max_mode=4, amplitude=0.5)
    n_us, n_ut, n_th = state_component_norms(base, W1INF)
    ux, uz, ut, th = base.values
    return make_state(g, 0.0, ux, uz, (1.5 * n_us / n_ut) * ut,
                      (3.0 * n_us / n_th) * th)


RADIUS_FACTORS = (10.0, 1.6, 1.01, 0.8, 0.4)


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_truncated_tendency_and_step_equal_the_norm_oracle(geometry):
    # a step's first stage takes its cut-off norms from the state's values
    # and the derivatives its advection takes of the state's coefficients;
    # they are state_component_norms(..., W1INF)'s bit for bit, so the
    # stage and a one-stage (Euler) step equal the stage with its cut-offs
    # through state_component_norms.  (A later RK4 stage is no state; the
    # value-space oracle test covers RK4.)
    g = make_grid(geometry, 32, 32, 2 * PI, PI)
    st = _scaled_state(g)
    p = Params(f=1.2, g=0.9, theta0=1.1, s=1.0)
    norms = state_component_norms(st, W1INF)
    seen = set()
    for factor in RADIUS_FACTORS:
        r = factor * norms[0]
        seen.update((i, _cutoff_class(c)) for i, c in
                    enumerate(dyn.cutoffs_from_norms(norms, r)))
        want = rhs_norm_oracle(g, p, st, r)
        got = dyn._rhs_arrays(g, p, *st.coefs, radius=r,
                              values=st.values)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
        got = euler(st, p, 1e-2, radius=r)
        want = dyn._finish_step(st, dyn._axpy(st.coefs, want, 1e-2), 1e-2)
        assert [a.tobytes() for a in got.values] == [
            b.tobytes() for b in want.values]
    assert seen == {(i, c) for i in range(3) for c in ("0", "between", "1")}


def _nemytskii(g):
    # per mode c, band-limited shapes in each channel's square basis,
    # periodic on the torus
    trig = {"sin": np.sin, "cos": np.cos}
    x, z = 2 * PI * g.x_mesh / g.lx, 2 * PI * g.z_mesh / g.lz
    shapes = tuple(
        tuple(ScalarField(g, trig[bx](c * x) * trig[bz]((3 - c) * z),
                           (bx, bz))
              for bx, bz in STATE_BASES)
        for c in (1, 2))
    return PointwiseNemytskii(
        gains=(lambda s: 0.3, lambda s: 1.0 + s.theta_s.values,
               lambda s: s.u_t.values), shapes=shapes)


def _oracle_cases(g, n_us):
    # (name, stepper, its value-space oracle) for one step of size dt from
    # a state at step k
    alpha = 0.7
    lin, nem = LinearMultiplicative(0.5), _nemytskii(g)

    def w(k):
        return 0.1 * math.sin(k)

    cases = [("rk4", lambda st, p, dt, k: dyn.step_rk4(st, p, dt),
              lambda st, p, dt, k: step_rk4_oracle(st, p, dt))]
    for f in RADIUS_FACTORS:
        r = f * n_us
        cases.append((f"rk4-r{f}",
                      lambda st, p, dt, k, r=r: dyn.step_rk4(st, p, dt, r),
                      lambda st, p, dt, k, r=r: step_rk4_oracle(st, p, dt,
                                                                r)))
    cases += [
        ("transformed", lambda st, p, dt, k: step_transformed(
            st, p, dt, alpha, w(k), w(k + 1)),
         lambda st, p, dt, k: step_transformed_oracle(
             st, p, dt, alpha, w(k), w(k + 1))),
        ("em-linear", lambda st, p, dt, k: step_em(
            st, p, dt, 0.03 * math.cos(k), lin, 1.01 * n_us),
         lambda st, p, dt, k: step_em_oracle(
             st, p, dt, 0.03 * math.cos(k), lin, 1.01 * n_us)),
        ("em-nemytskii", lambda st, p, dt, k: step_em(
            st, p, dt, [0.02 * math.cos(k), -0.01], nem),
         lambda st, p, dt, k: step_em_oracle(
             st, p, dt, [0.02 * math.cos(k), -0.01], nem)),
    ]
    return cases


def _relative(a, b):
    return max(float(np.max(np.abs(x - y)) / np.max(np.abs(y)))
               for x, y in zip(a.values, b.values))


@pytest.mark.parametrize("s", [0.0, 0.5])
@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_steppers_agree_with_the_value_space_oracle(geometry, s):
    # the coefficient-space stages against the value-space ones they
    # replaced: within 1e-13 relative per step, 1e-12 after 25 steps
    g = make_grid(geometry, 32, 32, 2 * PI, PI)
    st0 = _scaled_state(g)
    p = Params(f=1.2, g=0.9, theta0=1.1, s=s)
    for name, step, oracle in _oracle_cases(
            g, state_component_norms(st0, W1INF)[0]):
        new = ref = st0
        for k in range(25):
            assert _relative(step(ref, p, 5e-3, k),
                             oracle(ref, p, 5e-3, k)) <= 1e-13, (name, k)
            new, ref = step(new, p, 5e-3, k), oracle(ref, p, 5e-3, k)
        assert _relative(new, ref) <= 1e-12, name


@pytest.mark.parametrize("s", [0.0, 0.5])
@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_the_rotational_tendency_agrees_with_the_value_space_oracle(
        geometry, s):
    # u_S in the 2/3 band: its projected Lamb vector is its projected
    # u.grad u up to roundoff, for one path and a batch of paths alike
    g = make_grid(geometry, 32, 32, 2 * PI, PI)
    p = Params(f=1.2, g=0.9, theta0=1.1, s=s)
    states = [random_state(g, seed=k, max_mode=4, amplitude=0.5)
              for k in range(3)]
    for st in (*states, _batch_state(states)):
        assert dyn._in_band(g, *st.coefs[:2])
        got = [from_modes(g, c, b) for c, b in zip(
            dyn._rhs_arrays(g, p, *st.coefs), STATE_BASES)]
        want = rhs_arrays_oracle(g, p, *st.values)
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_a_batched_step_agrees_with_the_value_space_oracle(geometry):
    # the rotational form on a batch, within 1e-13 relative per step
    g = make_grid(geometry, 32, 32, 2 * PI, PI)
    batch = _batch_state([random_state(g, seed=k, max_mode=4,
                                       amplitude=0.5) for k in range(3)])
    w = np.array([[0.0, 0.2, -0.1], [0.1, 0.1, -0.3]])
    for step, oracle in (
            (lambda st: dyn.step_rk4(st, P_S0, 5e-3),
             lambda st: step_rk4_oracle(st, P_S0, 5e-3)),
            (lambda st: step_transformed(st, P_S0, 5e-3, 0.7, *w),
             lambda st: step_transformed_oracle(st, P_S0, 5e-3, 0.7, *w))):
        ref = batch
        for _ in range(5):
            assert _relative(step(ref), oracle(ref)) <= 1e-13
            ref = oracle(ref)


def test_out_of_band_u_s_takes_the_advective_form():
    # the s source puts u_S out of the band within a step; such a stage
    # takes u.grad u, bit for bit the coefficient-space stage's products
    g = make_grid("square", 32, 32, 2 * PI, PI)
    p = Params(f=1.2, g=0.9, theta0=1.1, s=0.5)
    st = dyn.step_rk4(_scaled_state(g), p, 5e-3)
    assert not dyn._in_band(g, *st.coefs[:2])
    r = 1.01 * max(st.w1inf)
    got = dyn._rhs_arrays(g, p, *st.coefs, radius=r)
    assert [a.tobytes() for a in got] == [
        b.tobytes() for b in rhs_norm_oracle(g, p, st, r)]


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_a_certified_stage_is_the_uncertified_one(count_calls, geometry):
    # for radii just around the state's exact norms and around its bound,
    # a stage equals bit for bit the one with its cut-offs through
    # state_component_norms; where the bound certifies the plateau it
    # makes no reduction
    g = make_grid(geometry, 32, 32, 2 * PI, PI)
    p = Params(f=1.2, g=0.9, theta0=1.1, s=0.0)
    st = _scaled_state(g)
    exact = max(st.w1inf)
    bound = float(max(w1inf_bound(g, st.coefs)))
    calls = count_calls("norms", "_reduce")
    seen = set()
    for r0 in (exact, bound, bound * (1.0 + dyn.PLATEAU_MARGIN)):
        for factor in (1.0 - 1e-12, 1.0, 1.0 + 1e-12):
            r = r0 * factor
            calls["_reduce"] = 0
            got = dyn._rhs_arrays(g, p, *st.coefs, radius=r)
            certified = dyn._certified(g, st.coefs, r)
            assert calls["_reduce"] == (0 if certified else 3)
            seen.add(certified)
            assert [a.tobytes() for a in got] == [
                b.tobytes() for b in rhs_norm_oracle(g, p, st, r)]
    assert seen == {True, False}


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_a_state_whose_pass_was_read_steps_as_its_cold_copy(geometry):
    # a step's first stage takes the values and gradients the state holds;
    # the step is the one of a copy that holds neither, and a step keeps
    # none of its own
    g = make_grid(geometry, 32, 32, 2 * PI, PI)
    st = _scaled_state(g)
    p = Params(f=1.2, g=0.9, theta0=1.1, s=0.5)
    r = 1.01 * state_component_norms(st, W1INF)[0]
    assert st.held("gradients") is st.gradients
    # its norms and vorticity too: omega is the curl's transform, never
    # formed from the held derivatives
    norms, om = st.w1inf, st.vorticity
    assert st.held("w1inf") is norms and st.held("vorticity") is om
    cold = SimState(g, st.t, st.coefs)
    for step in (lambda s: dyn.step_rk4(s, p, 1e-2, r),
                 lambda s: step_transformed(s, p, 1e-2, 0.7, 0.1, 0.3),
                 lambda s: step_em(s, p, 1e-2, 0.05,
                                   LinearMultiplicative(0.5), r)):
        assert [a.tobytes() for a in step(st).coefs] == [
            a.tobytes() for a in step(cold).coefs]
        assert all(cold.held(name) is None for name in (
            "values", "gradients", "vorticity", "w1inf"))


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_state_gradients_are_its_derivative_values(count_calls, geometry):
    # the pass is derivative_values of each array's coefficients, byte for
    # byte, and two reads cost its 8 inverse transforms in all
    from slicelab.grid import derivative_values
    st = random_state(make_grid(geometry, 32, 32, PI, PI), seed=3)
    want = [[derivative_values(st.grid, c, b, ax, 1 - ax)[0].tobytes()
             for ax in (1, 0)] for c, b in zip(st.coefs, STATE_BASES)]
    calls = count_calls("grid", "to_modes", "from_modes")
    for _ in range(2):
        assert [[d.tobytes() for d in pair] for pair in st.gradients] == want
    assert (calls["to_modes"], calls["from_modes"]) == (0, 8)


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_transforms_per_truncated_step_after_a_norm_read(count_calls,
                                                         geometry):
    # a state whose W^{1,inf} norms were read holds them, its values and
    # its gradients: its truncated RK4 step's first stage transforms back
    # only u_S's vorticity (5 with the 4 products), and the later stages
    # cost 11 each when certified, 17 when not
    transforms = _transforms(count_calls)
    for radius, expected in ((LARGE, 38), (SMALL, 56)):
        st = random_state(make_grid(geometry, 32, 32, PI, PI), seed=3)
        st.w1inf
        before = transforms()
        dyn.step_rk4(st, Params(s=0.0), 1e-3, radius=radius)
        assert transforms() - before == expected


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_held_values_and_gradients_feed_the_first_stage(count_calls,
                                                        geometry):
    # a state whose norms were taken by state_component_norms holds its
    # values and gradients but not its w1inf: its truncated RK4 step's
    # first stage reduces its norms, if it must, from the held arrays and
    # transforms back only u_S's vorticity, so the step costs 6 fewer
    # transforms when certified and 12 fewer when not than that of its
    # cold copy, and gives the same bits
    transforms = _transforms(count_calls)
    for radius, warm, cold_cost in ((LARGE, 38, 44), (SMALL, 56, 68)):
        st = random_state(make_grid(geometry, 32, 32, PI, PI), seed=3)
        state_component_norms(st, W1INF)
        assert st.held("values") is not None
        assert st.held("gradients") is not None
        assert st.held("w1inf") is None
        steps = []
        for state, expected in ((st, warm),
                                (SimState(st.grid, st.t, st.coefs), cold_cost)):
            before = transforms()
            steps.append(dyn.step_rk4(state, Params(s=0.0), 1e-3, radius))
            assert transforms() - before == expected, radius
        assert [a.tobytes() for a in steps[0].coefs] == [
            a.tobytes() for a in steps[1].coefs]


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_an_observed_state_s_first_stage_takes_its_norms(count_calls,
                                                        geometry):
    # an uncertified first stage of a state whose norms were read takes
    # the state's triple and reduces none of its own; a stage at the same
    # coefficients that holds nothing reduces its three norms, and both
    # give the same bits
    st = random_state(make_grid(geometry, 32, 32, PI, PI), seed=3)
    radius = 0.9 * max(st.w1inf)
    assert not dyn._certified(st.grid, st.coefs, radius)
    calls = count_calls("norms", "_reduce")
    y, first = dyn._first_stage(st)
    got = dyn._rhs_arrays(st.grid, P_S0, *y, radius=radius, **first)
    assert calls["_reduce"] == 0
    want = dyn._rhs_arrays(st.grid, P_S0, *y, radius=radius)
    assert calls["_reduce"] == 3
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_state_vorticity_is_its_curl_values(count_calls, geometry):
    # the cached vorticity is curl_modes' coefficients transformed back,
    # byte for byte, once; a row's potential vorticity and the BKM bound
    # read it, and a step's first stage takes it
    from slicelab.diagnostics import bkm_bound, potential_vorticity
    from slicelab.incompressible import curl_modes
    st = random_state(make_grid(geometry, 32, 32, PI, PI), seed=3)
    want = from_modes(st.grid, *curl_modes(st.grid, *st.coefs[:2]))
    calls = count_calls("grid", "to_modes", "from_modes")
    potential_vorticity(st, P_S0)
    assert (calls["to_modes"], calls["from_modes"]) == (0, 9)
    bkm_bound(st, P_S0)
    assert st.held("vorticity").tobytes() == want.tobytes()
    assert (calls["to_modes"], calls["from_modes"]) == (0, 13)
    assert dyn._first_stage(st)[1]["vorticity"] is st.vorticity


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_a_step_projects_a_non_solenoidal_state(geometry):
    # the stages project their tendencies, and the step end projects the
    # sum, so a divergent u_S at the step start leaves none after it
    g = make_grid(geometry, 32, 32, 2 * PI, PI)
    st = random_state(g, seed=5, max_mode=3, amplitude=0.5)
    ux, uz, ut, th = st.values
    bumped = make_state(g, 0.0, ux + 0.3 * np.sin(g.x_mesh), uz, ut, th)
    assert max_divergence(bumped.u_s) > 0.1
    for new in (dyn.step_rk4(bumped, Params(), 1e-3),
                euler(bumped, Params(), 1e-3),
                step_transformed(bumped, Params(), 1e-3, 0.7, 0.0, 0.1),
                step_em(bumped, Params(), 1e-3, 0.1,
                        LinearMultiplicative(0.5))):
        assert max_divergence(new.u_s) <= 1e-12


# -- mollification ----------------------------------------------------------

def test_mollify_constant_unchanged(tor64):
    X = tor64.x_mesh
    st = make_state(tor64, 0.0, 0 * X, 0 * X, 0.3 + 0 * X, -0.2 + 0 * X)
    m = dyn.mollify(st, 5)
    assert np.max(np.abs(m.u_t.values - 0.3)) <= 1e-15
    assert np.max(np.abs(m.theta_s.values + 0.2)) <= 1e-15


def test_mollify_single_mode_factor(tor64):
    X = tor64.x_mesh
    st = make_state(tor64, 0.0, 0 * X, 0 * X, np.sin(X), 0 * X)
    m = dyn.mollify(st, 4)
    want = np.exp(-1.0 / 16.0) * np.sin(X)
    assert np.max(np.abs(m.u_t.values - want)) <= 1e-14


def test_mollify_distance_decreases_with_j(tor64):
    st = random_state(tor64, seed=11, max_mode=5, amplitude=1.0)
    dists = []
    for j in (8, 16, 32, 64):
        m = dyn.mollify(st, j)
        d = np.sqrt(sum(np.sum((a - b) ** 2) for a, b in
                        zip(m.values, st.values))
                    * tor64.cell_area)
        dists.append(d)
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_mollify_rejects_bad_j(tor64):
    with pytest.raises(ConfigError):
        dyn.mollify(zero_state(tor64), 0)


def test_mollify_keeps_square_bases(sq64):
    st = random_state(sq64, seed=2)
    m = dyn.mollify(st, 6)
    assert m.u_t.basis == st.u_t.basis
    assert m.theta_s.basis == st.theta_s.basis
    assert max_divergence(m.u_s) <= 1e-10


# -- a leading path axis ------------------------------------------------------

@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_batched_transformed_step_equals_serial_steps(geometry):
    g = make_grid(geometry, 16, 16, 2 * PI, PI)
    states = [random_state(g, seed=s, max_mode=3, amplitude=0.4)
              for s in range(4)]
    w0 = np.array([0.0, 0.3, -0.2, 0.05])
    w1 = np.array([0.1, 0.25, -0.4, 0.0])
    batch = _batch_state(states)
    out = step_transformed(batch, P_S0, 1e-2, 3.0, w0, w1)
    for i, s in enumerate(states):
        want = step_transformed(s, P_S0, 1e-2, 3.0, w0[i], w1[i])
        for got, ref in zip(out.values, want.values):
            assert got[i].tobytes() == ref.tobytes(), i


# amplitudes that put the paths' W^{1,inf} norms below, inside and past
# the cut-off's transition band [1e-3, 2e-3]
UNCERTIFIED_AMPLITUDES = {"torus": (3e-4, 6e-4, 8e-4),
                          "square": (6e-4, 1.2e-3, 1.6e-3)}


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_batched_truncated_step_at_an_uncertified_radius(geometry):
    # each path's cut-offs are its own scalar ones, applied as (B, 1, 1)
    # scales: the batch equals its paths' serial steps bit for bit
    g = make_grid(geometry, 16, 16, 2 * PI, 2 * PI)
    radius = 1e-3
    states = [random_state(g, seed=k, max_mode=3, amplitude=a)
              for k, a in enumerate(UNCERTIFIED_AMPLITUDES[geometry])]
    cuts = [dyn.cutoff_factors(s, radius) for s in states]
    assert cuts[0] == (1.0, 1.0, 1.0)
    assert any(0.0 < c < 1.0 for c in cuts[1] + cuts[2])
    batch = _batch_state(states)
    assert not dyn._certified(g, batch.coefs, radius)
    out = dyn.step_rk4(batch, P_S0, 1e-3, radius)
    for i, s in enumerate(states):
        want = dyn.step_rk4(s, P_S0, 1e-3, radius)
        for got, ref in zip(out.coefs, want.coefs):
            assert got[i].tobytes() == ref.tobytes(), i
    for got, want in zip(dyn.cutoff_factors(batch, radius), zip(*cuts)):
        assert got.shape == (3, 1, 1) and got.ravel().tolist() == list(want)


def _batch_coefs(g, arrays):
    return [to_modes(g, a, b) for a, b in zip(arrays, STATE_BASES)]


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_nan_in_one_slice_stays_in_its_slice(geometry):
    # a path that blows up inside a batch cannot move another path's bits
    g = make_grid(geometry, 16, 16, 2 * PI, PI)
    states = [random_state(g, seed=s, max_mode=3, amplitude=0.4)
              for s in range(3)]
    clean = [np.stack(a) for a in zip(*(st.values for st in states))]
    dirty = [a.copy() for a in clean]
    for a in dirty:
        a[1, 3, 5] = np.nan
    scales = dict(advect=np.array([1.5, 0.5, 2.0]).reshape(-1, 1, 1),
                  source_scale=np.array([0.5, 2.0, 1.0]).reshape(-1, 1, 1))
    with np.errstate(invalid="ignore"):
        got = dyn._rhs_arrays(g, P_S0, *_batch_coefs(g, dirty), **scales)
        got += project_values(g, dirty[0], dirty[1])
    want = dyn._rhs_arrays(g, P_S0, *_batch_coefs(g, clean), **scales)
    want += project_values(g, clean[0], clean[1])
    for a, b in zip(got, want):
        assert np.isnan(a[1]).any()
        for i in (0, 2):
            assert a[i].tobytes() == b[i].tobytes()
