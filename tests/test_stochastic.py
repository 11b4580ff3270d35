"""Wiener paths, noise models, EM and transformed steppers, monitors."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as hyp_st

import slicelab as sl
from slicelab import dynamics as dyn
from slicelab import stochastic as st
from slicelab.grid import VX_BASIS, VZ_BASIS, from_modes, to_modes
from slicelab.incompressible import _project_modes
from slicelab.state import STATE_BASES

from helpers import (l2, path_times, stacked_state, state_max_abs_diff,
                     stopping_monitor)

# identical-arithmetic contracts are asserted exactly (== 0.0); everything
# else gets a few ulp of slack
ROUNDTRIP_TOL = 1e-15
PROJ_TOL = 1e-12


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def test_path_starts_at_zero():
    p = st.sample_wiener(1e-3, 50, 3, seed=1)
    w = p.values
    assert w.shape == (3, 51)
    assert np.all(w[:, 0] == 0.0)
    times = path_times(p)
    assert times[0] == 0.0 and times[-1] == pytest.approx(0.05)


def test_path_same_seed_bitwise():
    a = st.sample_wiener(1e-3, 200, 2, seed=5)
    b = st.sample_wiener(1e-3, 200, 2, seed=5)
    assert np.array_equal(a.increments, b.increments)
    assert not np.array_equal(
        a.increments, st.sample_wiener(1e-3, 200, 2, seed=6).increments)


def test_increment_variance_close_to_dt():
    # 1e5 samples: relative sampling error of the variance ~ sqrt(2/n) ~ 0.45%
    p = st.sample_wiener(1e-3, 100000, 1, seed=7)
    v = float(np.var(p.increments))
    assert 0.95e-3 <= v <= 1.05e-3


def test_path_rejects_bad_arguments():
    with pytest.raises(sl.ConfigError):
        st.sample_wiener(0.0, 10, 1, seed=0)
    with pytest.raises(sl.ConfigError):
        st.sample_wiener(1e-3, 0, 1, seed=0)
    with pytest.raises(sl.ConfigError):
        st.sample_wiener(1e-3, 10, 0, seed=0)
    with pytest.raises(sl.ConfigError):
        st.WienerPath(1e-3, 10, 2, 0, np.zeros((2, 9)))


def test_refinement_is_consistent():
    p = st.sample_wiener(1e-3, 400, 2, seed=5)
    f = st.refine_path(p)
    assert f.dt == 0.5e-3 and f.n_steps == 800 and f.level == 1
    # each coarse increment splits into two halves that sum back exactly
    pair = f.increments[:, 0::2] + f.increments[:, 1::2]
    assert np.max(np.abs(pair - p.increments)) <= 1e-15
    # cumulative path agrees at the shared grid times
    assert np.max(np.abs(f.values[:, ::2] - p.values)) <= 1e-12


def test_refinement_is_deterministic():
    a = st.refine_path(st.refine_path(st.sample_wiener(1e-2, 30, 1, seed=4)))
    b = st.refine_path(st.refine_path(st.sample_wiener(1e-2, 30, 1, seed=4)))
    assert np.array_equal(a.increments, b.increments)
    assert a.level == 2


@given(seed=hyp_st.integers(min_value=0, max_value=2**31))
def test_refined_variance_scales(seed):
    p = st.sample_wiener(4e-3, 500, 1, seed=seed)
    f = st.refine_path(p)
    # refined increments are N(0, dt/2); 1000 samples give ~4.5% rel noise
    assert np.var(f.increments) == pytest.approx(2e-3, rel=0.35)


# ---------------------------------------------------------------------------
# noise models
# ---------------------------------------------------------------------------

def test_linear_noise_scales_state(tor64):
    s = sl.random_state(tor64, seed=3, max_mode=4, amplitude=0.5)
    d = st.noise_eval(st.LinearMultiplicative(alpha=0.7), s)
    assert len(d) == 1 and len(d[0]) == 4
    for got, c in zip(d[0], s.coefs):
        assert np.array_equal(got, 0.7 * c)


def test_nemytskii_projects_velocity_shape(tor64):
    # gain 1 with shape (sin z, 0): already solenoidal, so the Leray
    # projection returns it unchanged
    s = sl.random_state(tor64, seed=3, max_mode=4, amplitude=0.5)
    sz = np.sin(tor64.z_mesh)
    zero = np.zeros_like(sz)
    model = st.PointwiseNemytskii(
        gains=(lambda _s: 1.0, lambda _s: 1.0, lambda _s: 1.0),
        shapes=((sl.ScalarField(tor64, sz), sl.ScalarField(tor64, zero),
                 sl.ScalarField(tor64, zero), sl.ScalarField(tor64, zero)),))
    d = st.noise_eval(model, s)
    assert len(d) == 1 and model.modes == 1
    dux, duz = (from_modes(tor64, c, b)
                for c, b in zip(d[0][:2], STATE_BASES))
    assert np.max(np.abs(dux - sz)) <= PROJ_TOL
    assert np.max(np.abs(duz)) <= PROJ_TOL


def test_nemytskii_state_dependent_gain(tor64):
    s = sl.random_state(tor64, seed=3, max_mode=4, amplitude=0.5)
    sz = np.sin(tor64.z_mesh)
    zero = np.zeros_like(sz)
    model = st.PointwiseNemytskii(
        gains=(lambda _s: 0.0, lambda _s: 1.0,
               lambda stt: stt.u_t.values),
        shapes=((sl.ScalarField(tor64, zero), sl.ScalarField(tor64, zero),
                 sl.ScalarField(tor64, sz), sl.ScalarField(tor64, sz)),))
    # the u_T and theta_S channels: the products, transformed forward
    _, _, dut, dth = st.noise_eval(model, s)[0]
    assert np.array_equal(dut, to_modes(tor64, sz, None))
    assert np.array_equal(dth, to_modes(tor64, s.u_t.values * sz, None))


@pytest.mark.parametrize("bad_gain", [
    lambda stt: np.ones(3),
    lambda stt: np.ones((2,) + stt.u_t.values.shape),
    lambda stt: stt.u_t.values.T[:-1],
])
def test_nemytskii_rejects_gain_of_wrong_shape(tor64, bad_gain):
    s = sl.random_state(tor64, seed=3, max_mode=4, amplitude=0.5)
    sz = sl.ScalarField(tor64, np.sin(tor64.z_mesh))
    model = st.PointwiseNemytskii(
        gains=(lambda _s: 1.0, bad_gain, lambda _s: 1.0),
        shapes=((sz, sz, sz, sz),))
    with pytest.raises(sl.ConfigError):
        st.noise_eval(model, s)


def test_nemytskii_rejects_aliased_shape(tor64):
    # a Nyquist-band shape does not survive dealiasing
    bad = np.cos(24.0 * tor64.x_mesh)
    zero = np.zeros_like(bad)
    with pytest.raises(sl.ConfigError):
        st.PointwiseNemytskii(
            gains=(lambda _s: 1.0, lambda _s: 1.0, lambda _s: 1.0),
            shapes=((sl.ScalarField(tor64, bad), sl.ScalarField(tor64, zero),
                     sl.ScalarField(tor64, zero),
                     sl.ScalarField(tor64, zero)),))


def test_noise_eval_rejects_non_finite(tor64):
    s = sl.random_state(tor64, seed=3, max_mode=4, amplitude=0.5)
    broken = sl.make_state(tor64, 0.0, s.u_s.x.values,
                           np.full_like(s.u_s.z.values, np.nan),
                           s.u_t.values, s.theta_s.values)
    with pytest.raises(sl.DivergedError):
        st.noise_eval(st.LinearMultiplicative(alpha=1.0), broken)


# ---------------------------------------------------------------------------
# Euler-Maruyama
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("geom", ["torus", "square"])
def test_em_off_equals_euler_bitwise(geom):
    # a zero increment adds exactly zero to every drift value: the step is
    # the explicit Euler step of the drift, plain or truncated, of one path
    # or of a batch
    g = (sl.make_grid("torus", 64, 64, 2 * np.pi, 2 * np.pi)
         if geom == "torus" else sl.make_grid("square", 64, 64, np.pi, np.pi))
    s = sl.random_state(g, seed=3, max_mode=4, amplitude=0.5)
    batch = stacked_state([sl.random_state(g, seed=k, max_mode=4,
                                           amplitude=0.5) for k in range(3)])
    p = sl.Params()
    model = st.LinearMultiplicative(alpha=0.7)
    radius = 0.5 * max(s.w1inf)  # some cut-offs strictly between 0 and 1
    for state, dw in ((s, 0.0), (batch, np.zeros((1, 3)))):
        for r in (math.inf, radius):
            got = st.step_em(state, p, 1e-3, dw, model, r)
            y = state.coefs
            drift = dyn._rhs_arrays(g, p, *y, radius=r)
            want = dyn._finish_step(state, dyn._axpy(y, drift, 1e-3), 1e-3)
            assert [a.tobytes() for a in got.coefs] == [
                b.tobytes() for b in want.coefs], (np.ndim(dw), r)


@pytest.mark.parametrize("geom", ["torus", "square"])
def test_em_takes_a_scalar_or_one_increment_per_mode_and_path(geom):
    # a single path takes a scalar, (1,) or (modes,) increments and a batch
    # (modes, B); each gives the bytes of the drift step plus each mode's
    # diffusion times its increment, the increment as a Python float for a
    # single path and as a (B, 1, 1) scale for a batch
    side = 2 * np.pi if geom == "torus" else np.pi
    g = sl.make_grid(geom, 16, 16, side, side)
    states = [sl.random_state(g, seed=k, max_mode=3, amplitude=0.4)
              for k in range(3)]
    p = sl.Params(s=0.3)
    lin = st.LinearMultiplicative(alpha=0.7)
    nem = st.PointwiseNemytskii(
        gains=(lambda _s: 0.3, lambda _s: 1.1, lambda _s: -0.4),
        shapes=_two_mode_shapes(g))
    two = np.array([0.021, -0.013])
    cases = [(states[0], 0.0123, lin, [0.0123]),
             (states[0], np.array([0.0123]), lin, [0.0123]),
             (states[0], two, nem, [0.021, -0.013]),
             (stacked_state(states), np.array([two, -two, 0 * two]).T, nem,
              [np.array([w, -w, 0.0]).reshape(3, 1, 1) for w in two])]
    for state, dw, model, scales in cases:
        got = st.step_em(state, p, 1e-3, dw, model)
        y = state.coefs
        y1 = dyn._axpy(y, dyn._rhs_arrays(g, p, *y), 1e-3)
        for w_j, d in zip(scales, st.noise_eval(model, state)):
            y1 = dyn._axpy(y1, d, w_j)
        want = dyn._finish_step(state, y1, 1e-3)
        assert [a.tobytes() for a in got.coefs] == [
            b.tobytes() for b in want.coefs], np.shape(dw)


def _coefs(g, arrays):
    return [to_modes(g, a, b) for a, b in zip(arrays, STATE_BASES)]


def _values(g, coefs):
    # the step end: u_S projected on the coefficients, then back to values
    cx, cz, ct, cth = coefs
    return [from_modes(g, c, b) for c, b in zip(
        (*_project_modes(g, cx, cz), ct, cth), STATE_BASES)]


def test_em_linear_matches_manual_update(tor64):
    # in coefficient space: drift from the state's values, then the noise
    # alpha * c * dW on the step's coefficients c
    s = sl.random_state(tor64, seed=3, max_mode=4, amplitude=0.5)
    p = sl.Params()
    got = st.step_em(s, p, 1e-3, np.array([0.0123]),
                     st.LinearMultiplicative(alpha=0.7))
    y = s.values
    c = s.coefs
    drift = dyn._rhs_arrays(tor64, p, *c, values=y)
    y1 = tuple(a + 1e-3 * b for a, b in zip(c, drift))
    y2 = tuple(a + 0.0123 * (0.7 * b) for a, b in zip(y1, c))
    px, pz, ut, th = _values(tor64, y2)
    assert np.array_equal(got.u_s.x.values, px)
    assert np.array_equal(got.u_s.z.values, pz)
    assert np.array_equal(got.u_t.values, ut)
    assert np.array_equal(got.theta_s.values, th)
    assert got.t == pytest.approx(1e-3)


def _two_mode_shapes(g):
    # per mode c, band-limited shapes in each channel's square basis (u_T
    # shares u_x's, theta_S u_z's); the torus ignores the bases
    trig = {"sin": np.sin, "cos": np.cos}
    return tuple(
        tuple(sl.ScalarField(g, trig[bx](c * g.x_mesh)
                              * trig[bz]((3 - c) * g.z_mesh), (bx, bz))
              for bx, bz in (VX_BASIS, VZ_BASIS, VX_BASIS, VZ_BASIS))
        for c in (1, 2))


@pytest.mark.parametrize("geom", ["torus", "square"])
def test_em_nemytskii_two_modes_matches_manual_update(geom):
    g = (sl.make_grid("torus", 32, 32, 2 * np.pi, 2 * np.pi)
         if geom == "torus" else sl.make_grid("square", 32, 32, np.pi, np.pi))
    s = sl.random_state(g, seed=3, max_mode=4, amplitude=0.5)
    p = sl.Params()
    shapes = _two_mode_shapes(g)
    gains = (lambda stt: 0.3, lambda stt: 1.0 + stt.theta_s.values,
             lambda stt: stt.u_t.values)
    model = st.PointwiseNemytskii(gains=gains, shapes=shapes)
    dw = np.array([0.021, -0.013])
    got = st.step_em(s, p, 1e-3, dw, model)
    y = s.values
    c = s.coefs
    drift = dyn._rhs_arrays(g, p, *c, values=y)
    y1 = tuple(a + 1e-3 * b for a, b in zip(c, drift))
    # each mode's products go forward, u_S is projected on the coefficients,
    # and the mode is added to the step's coefficients
    for w_j, (sx, sz, su, sth) in zip(dw, shapes):
        sigma = (0.3 * sx.values, 0.3 * sz.values,
                 (1.0 + s.theta_s.values) * su.values,
                 s.u_t.values * sth.values)
        cx, cz, ct, cth = _coefs(g, sigma)
        y1 = tuple(a + w_j * b for a, b in zip(
            y1, (*_project_modes(g, cx, cz), ct, cth)))
    for a, b in zip(got.values, _values(g, y1)):
        assert np.array_equal(a, b)


def test_em_drift_disabled_multiplies_state(tor64):
    # with the drift zeroed, one EM step is u -> u (1 + alpha dW); the
    # u_S channel additionally passes through the projector, which leaves
    # a solenoidal field unchanged up to transform roundoff.  f = g = s = 0
    # drops the linear couplings and a tiny radius sets every advection
    # cutoff to exactly 0, so the drift is exactly zero
    s = sl.random_state(tor64, seed=3, max_mode=4, amplitude=0.5)
    dw = 0.37
    got = st.step_em(s, sl.Params(f=0.0, g=0.0, s=0.0), 1e-3, dw,
                     st.LinearMultiplicative(alpha=0.5), radius=1e-12)
    fac = 1.0 + 0.5 * dw
    for a, b in ((got.u_t.values, s.u_t.values),
                 (got.theta_s.values, s.theta_s.values)):
        assert np.max(np.abs(a - fac * b)) <= ROUNDTRIP_TOL * np.max(np.abs(b))
    for a, b in ((got.u_s.x.values, s.u_s.x.values),
                 (got.u_s.z.values, s.u_s.z.values)):
        assert np.max(np.abs(a - fac * b)) <= 1e-13 * np.max(np.abs(b))


def test_em_increment_count_mismatch(tor64):
    s = sl.random_state(tor64, seed=3, max_mode=4, amplitude=0.5)
    with pytest.raises(sl.ConfigError):
        st.step_em(s, sl.Params(), 1e-3, np.array([0.1, 0.2]),
                   st.LinearMultiplicative(alpha=0.5))


@pytest.mark.parametrize("geom", ["torus", "square"])
@pytest.mark.parametrize("noise", ["linear", "nemytskii"])
def test_batched_em_step_equals_serial_steps(geom, noise):
    # per-path increments of shape (modes, B): each path's slice is its
    # own serial step bit for bit
    side = 2 * np.pi if geom == "torus" else np.pi
    g = sl.make_grid(geom, 16, 16, side, side)
    states = [sl.random_state(g, seed=k, max_mode=3, amplitude=0.4)
              for k in range(3)]
    if noise == "linear":
        model = st.LinearMultiplicative(alpha=0.7)
        dw = np.array([[0.02, -0.013, 0.0]])
    else:
        model = st.PointwiseNemytskii(
            gains=(lambda _s: 0.3, lambda _s: 1.1, lambda _s: -0.4),
            shapes=_two_mode_shapes(g))
        dw = np.array([[0.02, -0.013, 0.0], [0.005, 0.011, -0.03]])
    p = sl.Params(s=0.0)
    out = st.step_em(stacked_state(states), p, 1e-3, dw, model)
    for i, s in enumerate(states):
        want = st.step_em(s, p, 1e-3, dw[:, i], model)
        for got, ref in zip(out.coefs, want.coefs):
            assert got[i].tobytes() == ref.tobytes(), i


@pytest.mark.parametrize("dw_shape", [(3,), (1, 2), (3, 1), (1, 3, 1)])
def test_em_refuses_a_batch_increment_array_of_the_wrong_shape(dw_shape):
    g = sl.make_grid("torus", 16, 16, 2 * np.pi, 2 * np.pi)
    batch = stacked_state([sl.random_state(g, seed=k, max_mode=3)
                           for k in range(3)])
    with pytest.raises(sl.ConfigError) as exc:
        st.step_em(batch, sl.Params(), 1e-3, np.zeros(dw_shape),
                   st.LinearMultiplicative(alpha=0.5))
    assert str(dw_shape) in str(exc.value)
    assert "(1, 3)" in str(exc.value)


def test_em_nan_increment_diverges(tor64):
    s = sl.random_state(tor64, seed=3, max_mode=4, amplitude=0.5)
    with pytest.raises(sl.DivergedError) as exc:
        st.step_em(s, sl.Params(), 1e-3, np.nan,
                   st.LinearMultiplicative(alpha=0.5))
    assert exc.value.last_state is s


# ---------------------------------------------------------------------------
# exponential transform
# ---------------------------------------------------------------------------

def test_transform_roundtrip(tor64):
    s = sl.random_state(tor64, seed=3, max_mode=4, amplitude=0.5)
    back = st.transform_backward(st.transform_forward(s, 0.5, 0.37), 0.5, 0.37)
    scale = np.max(np.abs(s.u_s.x.values))
    assert state_max_abs_diff(back, s) <= ROUNDTRIP_TOL * scale


def test_transform_alpha_zero_is_identity(tor64):
    s = sl.random_state(tor64, seed=3, max_mode=4, amplitude=0.5)
    assert state_max_abs_diff(st.transform_forward(s, 0.0, 5.0), s) == 0.0


def test_transform_halves_at_log_two(tor64):
    s = sl.random_state(tor64, seed=3, max_mode=4, amplitude=0.5)
    h = st.transform_forward(s, 1.0, math.log(2.0))
    assert np.allclose(h.u_t.values, 0.5 * s.u_t.values,
                       rtol=ROUNDTRIP_TOL, atol=0.0)


def test_transform_overflow_guard(tor64):
    s = sl.random_state(tor64, seed=3, max_mode=4, amplitude=0.5)
    with pytest.raises(sl.DivergedError):
        st.transform_forward(s, 2.0, 400.0)
    with pytest.raises(sl.DivergedError):
        st.transform_backward(s, -2.0, 400.0)


# ---------------------------------------------------------------------------
# transformed stepper
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("geom", ["torus", "square"])
def test_transformed_alpha_zero_matches_rk4_bitwise(geom):
    g = (sl.make_grid("torus", 64, 64, 2 * np.pi, 2 * np.pi)
         if geom == "torus" else sl.make_grid("square", 64, 64, np.pi, np.pi))
    s = sl.random_state(g, seed=3, max_mode=4, amplitude=0.5)
    p = sl.Params()
    a = st.step_transformed(s, p, 1e-3, 0.0, 0.12, 0.34)
    b = dyn.step_rk4(s, p, 1e-3)
    assert state_max_abs_diff(a, b) == 0.0


def test_transformed_pure_decay(tor64):
    # u_S = 0 kills advection, f = g = 0 kills the couplings, s = 0 the
    # source: the whole tendency vanishes and only the exact integrating
    # factor remains, applied to the step's coefficients
    base = sl.random_state(tor64, seed=3, max_mode=4, amplitude=0.5)
    zero = np.zeros_like(base.u_t.values)
    s = sl.make_state(tor64, 0.0, zero.copy(), zero.copy(),
                      base.u_t.values.copy(), base.theta_s.values.copy())
    p = sl.Params(f=0.0, g=0.0, s=0.0)
    alpha = 1.3
    out = st.step_transformed(s, p, 0.01, alpha, 0.0, 0.9)
    fac = math.exp(-0.5 * alpha * alpha * 0.01)
    for got, c in ((out.u_t, s.coefs[2]), (out.theta_s, s.coefs[3])):
        assert np.array_equal(got.values, from_modes(tor64, fac * c, None))


def test_transformed_overflow_guard(tor64):
    s = sl.random_state(tor64, seed=3, max_mode=4, amplitude=0.5)
    with pytest.raises(sl.DivergedError):
        st.step_transformed(s, sl.Params(), 1e-3, 3.0, 0.0, 300.0)


def test_transform_equivalence_shrinks_with_dt():
    # same Brownian path at four dyadic resolutions: the EM and the
    # back-transformed solutions approach each other as dt shrinks
    g = sl.make_grid("torus", 64, 64, 2 * np.pi, 2 * np.pi)
    p = sl.Params(s=0.0)
    alpha = 0.5
    state0 = sl.random_state(g, seed=3, max_mode=4, amplitude=0.25)
    model = st.LinearMultiplicative(alpha=alpha)
    paths = [st.sample_wiener(1e-2, 25, 1, seed=7)]
    for _ in range(3):
        paths.append(st.refine_path(paths[-1]))
    errs = []
    for pth in paths:
        w = pth.w_series()
        s_em = state0
        s_tr = st.transform_forward(state0, alpha, 0.0)
        for i in range(pth.n_steps):
            s_em = st.step_em(s_em, p, pth.dt, pth.increments[0, i], model)
            s_tr = st.step_transformed(s_tr, p, pth.dt, alpha, w[i], w[i + 1])
        back = st.transform_backward(s_tr, alpha, w[-1])
        diff = math.sqrt(sum(np.sum((a - b) ** 2) for a, b in
                             zip(s_em.values, back.values))
                         * g.cell_area)
        errs.append(diff)
    assert all(b < a for a, b in zip(errs, errs[1:])), errs


def test_transformed_norm_decays_under_strong_noise():
    # s = 0, alpha = 6: the half-alpha^2 damping dominates the couplings,
    # so the transformed squared L2 norm decays at least like exp(-t)
    g = sl.make_grid("torus", 64, 64, 2 * np.pi, 2 * np.pi)
    p = sl.Params(s=0.0)
    alpha = 6.0
    dt, n = 1e-3, 500
    path = st.sample_wiener(dt, n, 1, seed=17)
    w = path.w_series()
    s = st.transform_forward(
        sl.random_state(g, seed=3, max_mode=3, amplitude=0.01), alpha, 0.0)

    def sq(stt):
        return l2(stt.u_s) ** 2 + l2(stt.u_t) ** 2 + l2(stt.theta_s) ** 2

    e0 = sq(s)
    bound = -alpha * alpha / 4.0 + 8.0
    for i in range(n):
        s = st.step_transformed(s, p, dt, alpha, w[i], w[i + 1])
        if (i + 1) % 25 == 0:
            t = (i + 1) * dt
            assert (math.log(sq(s)) - math.log(e0)) / t <= bound


# ---------------------------------------------------------------------------
# the exponential-martingale functional
# ---------------------------------------------------------------------------

def test_lambda_sixteenth_root_is_mean_one():
    # E[Lambda(t)^{1/16}] = 1 exactly; 2e4 paths leave ~4 SE of headroom
    n_paths, n_steps, dt, alpha = 20000, 50, 0.02, 1.0
    rng = np.random.default_rng(np.random.SeedSequence([99, 0]))
    inc = rng.standard_normal((n_paths, n_steps)) * math.sqrt(dt)
    w_end = inc.sum(axis=1)
    vals = np.exp(alpha * w_end / 16.0 - alpha * alpha * (n_steps * dt) / 512.0)
    se = vals.std(ddof=1) / math.sqrt(n_paths)
    assert abs(vals.mean() - 1.0) <= 4.0 * se


# ---------------------------------------------------------------------------
# stopping monitors
# ---------------------------------------------------------------------------

def test_monitor_crossing_at_step_17():
    dt = 0.25
    times = dt * np.arange(40)
    vals = np.zeros(40)
    vals[17:] = 5.0
    rec = stopping_monitor(times, vals, st.NORM_THRESHOLD, 4.0)
    assert rec.triggered
    assert rec.trigger_time == 17 * dt
    assert rec.trigger_value == 5.0


def test_monitor_never_triggers():
    times = np.linspace(0.0, 1.0, 11)
    vals = np.linspace(0.0, 0.9, 11)
    rec = stopping_monitor(times, vals, st.GBM_THRESHOLD, 2.0)
    assert not rec.triggered
    assert rec.trigger_time is None
    assert rec.trigger_value == 0.9


def test_monitor_rejects_unknown_kind():
    with pytest.raises(sl.ConfigError):
        stopping_monitor([0.0], [1.0], "no_such_kind", 1.0)
    with pytest.raises(sl.ConfigError):
        st.OnlineMonitor("no_such_kind", 1.0)


@given(seed=hyp_st.integers(min_value=0, max_value=2**31))
def test_online_monitor_matches_batch_scan(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(1, 60)
    times = np.cumsum(rng.uniform(0.01, 0.1, size=n))
    vals = rng.normal(size=n)
    threshold = float(rng.uniform(-1.0, 2.0))
    batch = stopping_monitor(times, vals, st.AMPLITUDE_THRESHOLD, threshold)
    mon = st.OnlineMonitor(st.AMPLITUDE_THRESHOLD, threshold)
    fired = [mon.update(t, v) for t, v in zip(times, vals)]
    assert mon.record() == batch
    assert sum(fired) == (1 if batch.triggered else 0)


def test_monitor_idempotent():
    times = np.linspace(0.0, 2.0, 30)
    vals = np.sin(times) * 3.0
    a = stopping_monitor(times, vals, st.NORM_THRESHOLD, 2.5)
    b = stopping_monitor(times, vals, st.NORM_THRESHOLD, 2.5)
    assert a == b
