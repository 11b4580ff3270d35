import numpy as np
import pytest

from slicelab.errors import ConfigError
from slicelab.grid import COS, SIN, Geometry
from slicelab.incompressible import max_divergence
from slicelab.state import (Params, make_state, random_state, scale_state,
                            state_arrays, state_is_finite, zero_state)

from helpers import state_max_abs_diff, states_close, with_time


def test_params_defaults():
    p = Params()
    assert (p.f, p.g, p.theta0, p.s) == (1.0, 1.0, 1.0, 1.0)
    assert p.buoyancy == 1.0


def test_params_buoyancy_ratio():
    assert Params(g=9.8, theta0=280.0).buoyancy == pytest.approx(9.8 / 280.0)


@pytest.mark.parametrize("kwargs", [
    {"theta0": 0.0},
    {"theta0": -1.0},
    {"f": float("nan")},
    {"s": float("inf")},
])
def test_params_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        Params(**kwargs)


def test_zero_state_bases(sq64):
    s = zero_state(sq64)
    assert s.u_t.basis == (SIN, COS)
    assert s.theta_s.basis == (COS, SIN)
    assert s.u_s.x.basis == (SIN, COS)
    assert s.u_s.z.basis == (COS, SIN)


def test_zero_state_torus_has_no_bases(tor64):
    s = zero_state(tor64)
    assert s.u_t.basis is None and s.theta_s.basis is None


def test_random_state_is_deterministic(any_grid):
    a = random_state(any_grid, seed=42)
    b = random_state(any_grid, seed=42)
    assert state_max_abs_diff(a, b) == 0.0
    c = random_state(any_grid, seed=43)
    assert state_max_abs_diff(a, c) > 0.0


def test_random_state_velocity_is_solenoidal(any_grid):
    s = random_state(any_grid, seed=7)
    assert max_divergence(s.u_s) <= 1e-10


def test_random_state_amplitude(any_grid):
    s = random_state(any_grid, seed=5, amplitude=0.25)
    for arr in state_arrays(s):
        assert np.max(np.abs(arr)) <= 0.25 + 1e-12


def test_state_arrays_order(sq64):
    g = sq64
    ux = np.full((64, 64), 1.0)
    s = make_state(g, 0.0, ux, 2 * ux, 3 * ux, 4 * ux)
    vals = [a[0, 0] for a in state_arrays(s)]
    assert vals == [1.0, 2.0, 3.0, 4.0]


def test_scale_and_diff(tor64):
    s = random_state(tor64, seed=1)
    doubled = scale_state(s, 2.0)
    assert state_max_abs_diff(s, doubled) == pytest.approx(
        max(np.max(np.abs(a)) for a in state_arrays(s)))
    assert states_close(s, s, 0.0)
    assert not states_close(s, doubled, 1e-6)


def test_with_time(tor64):
    s = random_state(tor64, seed=2)
    s2 = with_time(s, 3.5)
    assert s2.t == 3.5
    assert state_max_abs_diff(s, s2) == 0.0


def test_state_is_finite(tor64):
    s = zero_state(tor64)
    assert state_is_finite(s)
    bad = make_state(tor64, 0.0, *(
        np.full((64, 64), np.nan) if i == 2 else np.zeros((64, 64))
        for i in range(4)))
    assert not state_is_finite(bad)


def test_random_state_band_limit(tor64):
    from slicelab.grid import to_modes
    s = random_state(tor64, seed=9, max_mode=3)
    c = to_modes(tor64, s.theta_s.values, None)
    mx, mz = tor64.modes(None)
    far = (np.abs(mx[None, :]) > 4) | (np.abs(mz[:, None]) > 4)
    assert np.max(np.abs(c[far])) <= 1e-10 * np.max(np.abs(c))
