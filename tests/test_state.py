import numpy as np
import pytest

import slicelab.state as state_module
from slicelab.errors import ConfigError
from slicelab.grid import COS, SIN, make_grid
from slicelab.incompressible import max_divergence
from slicelab.state import (Params, SimState, make_state, random_scalar_values,
                            random_state, scale_state, state_is_finite,
                            zero_state)

from helpers import (state_max_abs_diff, states_close,
                     torus_scalar_values_oracle, with_time)


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
    for arr in s.values:
        assert np.max(np.abs(arr)) <= 0.25 + 1e-12


def test_state_arrays_order(sq64):
    # the arrays read back in order, each the round trip of its own basis
    from slicelab.grid import from_modes, to_modes
    from slicelab.state import STATE_BASES
    g = sq64
    ux = np.full((64, 64), 1.0)
    s = make_state(g, 0.0, ux, 2 * ux, 3 * ux, 4 * ux)
    vals = [a[0, 0] for a in s.values]
    assert vals == [from_modes(g, to_modes(g, k * ux, b), b)[0, 0]
                    for k, b in zip((1, 2, 3, 4), STATE_BASES)]
    assert np.round(vals).tolist() == [1.0, 2.0, 3.0, 4.0]


def test_scale_and_diff(tor64):
    s = random_state(tor64, seed=1)
    doubled = scale_state(s, 2.0)
    assert state_max_abs_diff(s, doubled) == pytest.approx(
        max(np.max(np.abs(a)) for a in s.values))
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


def _laid_out(coefs, layout):
    # the same coefficients as they stand, as path 1 of a 3-path batch
    # stacked on axis 1 (not contiguous, last axis contiguous), or as a
    # view whose last axis is strided
    if layout == "batch slice":
        return tuple(np.stack([np.ones_like(c), c, np.ones_like(c)],
                              axis=1)[:, 1] for c in coefs)
    if layout == "strided":
        return tuple(np.repeat(c, 2, axis=-1)[..., ::2] for c in coefs)
    return coefs


@pytest.mark.parametrize("layout", ["as made", "batch slice", "strided"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("geometry, part", [
    ("torus", "real"), ("torus", "imag"), ("square", "real")])
def test_state_is_finite_reports_each_part_in_every_layout(
        request, geometry, part, bad, layout):
    # torus coefficients are complex, the square's are real
    g = request.getfixturevalue({"torus": "tor64", "square": "sq64"}[geometry])
    s = random_state(g, seed=4)
    assert np.iscomplexobj(s.coefs[0]) == (geometry == "torus")
    assert state_is_finite(SimState(g, 0.0, _laid_out(s.coefs, layout)))
    for i in range(4):
        coefs = [c.copy() for c in s.coefs]
        getattr(coefs[i], part)[5, 3] = bad
        laid = _laid_out(tuple(coefs), layout)
        assert not laid[i].flags.c_contiguous or layout == "as made"
        assert not state_is_finite(SimState(g, 0.0, laid)), i


def test_random_state_band_limit(tor64):
    from slicelab.grid import to_modes
    s = random_state(tor64, seed=9, max_mode=3)
    c = to_modes(tor64, s.theta_s.values, None)
    mx, mz = tor64.modes(None)
    far = (np.abs(mx[None, :]) > 4) | (np.abs(mz[:, None]) > 4)
    assert np.max(np.abs(c[far])) <= 1e-10 * np.max(np.abs(c))


@pytest.mark.parametrize("nz,nx", [(8, 8), (16, 32), (64, 64)])
def test_torus_draws_keep_their_bits(nz, nx, monkeypatch):
    # the draw's c2c, x axis first, has the bits of numpy.fft's ifft2, and
    # the grid's signed rows are fftfreq's integers, so a seed's torus
    # data are what they were when numpy.fft made them
    g = make_grid("torus", nx, nz, 2 * np.pi, 1.0)
    assert np.array_equal(g.modes(None)[1],
                          np.rint(np.fft.fftfreq(nz) * nz).astype(int))
    for seed in (0, 5, 42):
        for max_mode, amplitude in ((3, 1.0), (nx, 0.25)):
            got = random_scalar_values(g, np.random.default_rng(seed),
                                       max_mode, amplitude)
            want = torus_scalar_values_oracle(
                g, np.random.default_rng(seed), max_mode, amplitude)
            assert got.tobytes() == want.tobytes(), (seed, max_mode)
        st = random_state(g, seed)
        with monkeypatch.context() as m:
            m.setattr(state_module, "random_scalar_values",
                      torus_scalar_values_oracle)
            old = random_state(g, seed)
        for a, b in zip(st.coefs, old.coefs):
            assert a.tobytes() == b.tobytes(), seed


def _reads_back_its_coefficients(st, monkeypatch):
    # the state's values are from_modes of its coefficients byte for byte,
    # inverse-transformed once, on first read
    import slicelab.state
    from slicelab.grid import from_modes
    from slicelab.state import STATE_BASES
    g = st.grid
    calls = []
    monkeypatch.setattr(slicelab.state, "from_modes", lambda *a: (
        calls.append(1) or from_modes(*a)))
    assert st.held("values") is None
    want = [from_modes(g, c, b).tobytes()
            for c, b in zip(st.coefs, STATE_BASES)]
    for _ in range(2):
        assert [a.tobytes() for a in st.values] == want
        assert st.u_t.values.tobytes() == want[2]
    assert len(calls) == 4 and st.held("values") is st.values
    assert state_is_finite(st)


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_a_carried_state_derives_its_values_once(geometry, monkeypatch):
    # a stepped state is the coefficients the step ends with
    from slicelab.dynamics import step_rk4
    g = make_grid(geometry, 16, 8, 2 * np.pi, np.pi)
    st = step_rk4(random_state(g, seed=2), Params(s=0.0), 1e-3)
    _reads_back_its_coefficients(st, monkeypatch)


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_a_value_made_state_reads_back_its_coefficients(geometry,
                                                         monkeypatch):
    # make_state transforms its arrays forward once, and only that: the
    # values it gives back are the coefficients' inverse transforms
    from slicelab.grid import to_modes
    from slicelab.state import STATE_BASES
    g = make_grid(geometry, 16, 8, 2 * np.pi, np.pi)
    arrays = random_state(g, seed=2).values
    st = make_state(g, 0.0, *arrays)
    assert [c.tobytes() for c in st.coefs] == [
        to_modes(g, a, b).tobytes() for a, b in zip(arrays, STATE_BASES)]
    _reads_back_its_coefficients(st, monkeypatch)
