import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slicelab.errors import ConfigError
from slicelab.experiments import _batch_state
from slicelab.norms import (W1INF, ZKP_DEFAULT, NormSpec, combine, norm,
                            state_component_norms, w1inf_bound)
from slicelab.grid import Geometry, ScalarField, make_grid, vector_field
from slicelab.state import STATE_BASES, SimState, make_state, random_state

from helpers import l2

PI = np.pi


def test_l2_of_single_mode(tor64):
    f = ScalarField(tor64, np.sin(tor64.x_mesh))
    # integral of sin^2 over [0,2pi)^2 is 2 pi^2
    assert abs(l2(f) - math.sqrt(2 * PI**2)) <= 1e-10


def test_w1inf_of_single_mode(tor64):
    f = ScalarField(tor64, np.sin(tor64.x_mesh))
    # max over multi-indices: the field and its x-derivative both peak at 1
    assert abs(norm(f, W1INF) - 1.0) <= 1e-10


def test_vector_norm_uses_magnitude(tor64):
    v = vector_field(tor64, 3.0 * np.ones((64, 64)), 4.0 * np.ones((64, 64)))
    assert abs(norm(v, NormSpec(0, math.inf)) - 5.0) <= 1e-12


def test_invalid_specs():
    with pytest.raises(ConfigError):
        NormSpec(4, 2)
    with pytest.raises(ConfigError):
        NormSpec(1, 1)


def test_defaults():
    assert W1INF == NormSpec(1, math.inf)
    assert ZKP_DEFAULT == NormSpec(3, 2)


def test_combine():
    assert combine([3.0, 4.0], 2) == pytest.approx(5.0)
    assert combine([3.0, 4.0], math.inf) == 4.0
    assert combine([], math.inf) == 0.0


@pytest.mark.parametrize("k", [0, 1, 2])
def test_norm_monotone_in_k(any_grid, k):
    st8 = random_state(any_grid, seed=8)
    lo = norm(st8.theta_s, NormSpec(k, 2))
    hi = norm(st8.theta_s, NormSpec(k + 1, 2))
    assert hi >= lo - 1e-12


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_state_norm_combines_components(seed):
    from slicelab.grid import make_grid
    g = make_grid("torus", 32, 32, 2 * PI, 2 * PI)
    s = random_state(g, seed)
    parts = state_component_norms(s, ZKP_DEFAULT)
    assert norm(s, ZKP_DEFAULT) == pytest.approx(combine(parts, 2), rel=1e-12)


def test_norm_scales_linearly(sq64):
    from slicelab.state import scale_state
    s = random_state(sq64, seed=3)
    for spec in (W1INF, ZKP_DEFAULT, NormSpec(0, 2)):
        assert norm(scale_state(s, 2.5), spec) == pytest.approx(
            2.5 * norm(s, spec), rel=1e-10)


def test_norm_rejects_plain_array():
    with pytest.raises(ConfigError):
        norm(np.zeros((4, 4)), W1INF)


def test_l2_takes_no_transforms(tor64, monkeypatch):
    import slicelab.norms
    calls = []
    real = slicelab.norms.to_modes
    monkeypatch.setattr(slicelab.norms, "to_modes",
                        lambda *a: calls.append(a) or real(*a))
    s = random_state(tor64, seed=4)
    area = tor64.cell_area
    parts = [(np.sum(np.hypot(s.u_s.x.values, s.u_s.z.values) ** 2)
              * area) ** 0.5,
             (np.sum(s.u_t.values ** 2) * area) ** 0.5,
             (np.sum(s.theta_s.values ** 2) * area) ** 0.5]
    assert [l2(s.u_s), l2(s.u_t), l2(s.theta_s)] == parts
    assert l2(s) == combine(parts, 2)
    assert calls == []


# -- a leading path axis: one norm per slice, as if alone ---------------------

STACK_SPECS = [NormSpec(k, p) for k in range(4) for p in (2, 3, math.inf)]


@pytest.mark.parametrize("geometry", ["torus", "square"])
@pytest.mark.parametrize("nx,nz", [(16, 16), (32, 32), (64, 32)])
def test_stacked_norms_equal_per_slice_calls(geometry, nx, nz):
    # the Monte Carlo monitors take a (B, nz, nx) batch's norms in one call;
    # each path's value is the 2-D call's to the last bit
    from slicelab.grid import make_grid
    from slicelab.norms import _field_norm
    from slicelab.state import make_state
    g = make_grid(geometry, nx, nz, 2 * PI, PI)
    rng = np.random.default_rng([nx, nz, len(geometry)])
    n_paths = 4
    # white noise fills every slot, the Nyquist row and column included
    arrays = [rng.standard_normal((n_paths, nz, nx)) for _ in range(4)]
    batch = make_state(g, 0.0, *arrays)
    paths = [make_state(g, 0.0, *(a[i] for a in arrays))
             for i in range(n_paths)]
    for spec in STACK_SPECS:
        got = _field_norm([batch.u_s.x, batch.u_s.z], spec)
        want = [_field_norm([s.u_s.x, s.u_s.z], spec) for s in paths]
        assert repr(got) == repr(want), spec
        got = _field_norm([batch.theta_s], spec)
        want = [_field_norm([s.theta_s], spec) for s in paths]
        assert repr(got) == repr(want), spec
        got = state_component_norms(batch, spec)
        want = [state_component_norms(s, spec) for s in paths]
        assert repr(got) == repr(want), spec


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_nan_slice_changes_only_its_own_norms(geometry):
    # a NaN in any one array of one path makes that path's norm of that
    # field NaN, by quadrature or by Parseval, and leaves every other norm
    from slicelab.grid import make_grid
    from slicelab.state import make_state
    g = make_grid(geometry, 32, 32, 2 * PI, 2 * PI)
    rng = np.random.default_rng(7)
    arrays = [rng.standard_normal((4, 32, 32)) for _ in range(4)]
    specs = (W1INF, ZKP_DEFAULT, NormSpec(2, 3), NormSpec(1, 2),
             NormSpec(2, 2))
    want = [state_component_norms(make_state(g, 0.0, *arrays), spec)
            for spec in specs]
    for where, field in enumerate((0, 0, 1, 2)):
        dirty = [a.copy() for a in arrays]
        dirty[where][2, 5, 9] = np.nan
        dirty = make_state(g, 0.0, *dirty)
        for spec, clean in zip(specs, want):
            got = state_component_norms(dirty, spec)
            for path, f in np.ndindex(4, 3):
                if (path, f) == (2, field):
                    assert math.isnan(got[path][f]), (spec, where)
                else:
                    assert repr(got[path][f]) == repr(clean[path][f]), (
                        spec, where)


@pytest.mark.parametrize("geometry", ["torus", "square"])
@pytest.mark.parametrize("k", [0, 1])
def test_sup_norms_of_a_nan_field_are_nan(geometry, k):
    # one NaN in u_x: the max over grid points and over multi-indices keeps
    # it, where a fold with Python's max would drop it and read 0.0
    from slicelab.grid import VX_BASIS, make_grid, to_modes
    from slicelab.state import SimState
    g = make_grid(geometry, 64, 32, 2 * PI, PI)
    s = random_state(g, seed=5)
    ux = s.u_s.x.values.copy()
    ux[7, 11] = np.nan
    dirty = SimState(g, 0.0, (to_modes(g, ux, VX_BASIS), *s.coefs[1:]))
    spec = NormSpec(k, math.inf)
    assert math.isnan(norm(dirty.u_s, spec))
    assert math.isnan(state_component_norms(dirty, spec)[0])
    assert math.isnan(norm(dirty, spec))
    # the clean components keep their finite norms
    assert norm(dirty.u_t, spec) == norm(s.u_t, spec)


def _w1inf_inputs(g, state):
    # (field, component values, their (d_x, d_z) pairs) of u_S, u_T, theta_S
    from helpers import value_gradient
    out = []
    for field in (state.u_s, state.u_t, state.theta_s):
        comps = [field.x, field.z] if hasattr(field, "x") else [field]
        out.append((field, tuple(c.values for c in comps),
                    [value_gradient(g, c.values, c.basis) for c in comps]))
    return out


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_w1inf_from_derivatives_equals_the_field_norm(geometry):
    # the truncated tendency reduces derivatives its stage already holds;
    # the result is norm(..., W1INF)'s of the values they come from, 2-D
    # and stacked, and, from a batch state's gradient pass, each path's
    # state_component_norms(..., W1INF)
    from slicelab.grid import make_grid
    from slicelab.norms import _w1inf
    g = make_grid(geometry, 64, 32, 2 * PI, PI)
    paths = [random_state(g, seed=s, max_mode=5) for s in range(3)]
    batch = _batch_state(paths)
    for state in (*paths, batch):
        for field, values, grads in _w1inf_inputs(g, state):
            got = _w1inf(g, values, grads)
            assert type(got) is type(norm(field, W1INF))
            assert got == norm(field, W1INF)
    v, d = batch.values, batch.gradients
    assert [_w1inf(g, v[i:j], d[i:j])
            for i, j in ((0, 2), (2, 3), (3, 4))] == [
        list(col) for col in zip(*(state_component_norms(s, W1INF)
                                   for s in paths))]


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_w1inf_from_derivatives_keeps_a_nan_in_its_slice(geometry):
    # a NaN in any one input array of one slice (a value or either
    # derivative, of either component) makes that slice's norm NaN and
    # leaves the other slices' norms as they were
    from slicelab.grid import make_grid
    from slicelab.norms import _w1inf
    from slicelab.state import make_state
    g = make_grid(geometry, 32, 32, 2 * PI, PI)
    rng = np.random.default_rng(11)
    batch = make_state(g, 0.0, *(rng.standard_normal((3, 32, 32))
                                 for _ in range(4)))
    for _, values, grads in _w1inf_inputs(g, batch):
        clean = _w1inf(g, values, grads)
        arrays = [*values, *(d for pair in grads for d in pair)]
        for where in range(len(arrays)):
            dirty = [a.copy() for a in arrays]
            dirty[where][1, 4, 6] = np.nan
            n = len(values)
            got = _w1inf(g, tuple(dirty[:n]),
                         [tuple(dirty[n + 2 * c:n + 2 * c + 2])
                          for c in range(n)])
            assert math.isnan(got[1]), where
            assert [got[0], got[2]] == [clean[0], clean[2]], where


def test_sup_combine_is_nan_in_either_order():
    assert math.isnan(combine([1.0, math.nan], math.inf))
    assert math.isnan(combine([math.nan, 1.0], math.inf))
    assert math.isnan(combine([2.0, math.nan, 1.0], math.inf))
    assert combine([1.0, 3.0, 2.0], math.inf) == 3.0


# -- W^{k,2} by discrete Parseval against the quadrature oracle ---------------

def _fields(state):
    return [[state.u_s.x, state.u_s.z], [state.u_t], [state.theta_s]]


def _parseval_cases():
    from slicelab.grid import make_grid
    from slicelab.state import make_state
    for geometry, nx, nz in (("torus", 32, 32), ("torus", 64, 16),
                             ("square", 32, 32), ("square", 16, 64)):
        g = make_grid(geometry, nx, nz, 2 * PI, PI)
        rng = np.random.default_rng([nx, nz, len(geometry)])
        # band-limited data, and white noise holding every slot: the torus
        # Nyquist row and column, the square's top sine slots
        yield f"{geometry}-{nx}x{nz}-band", random_state(g, seed=nx + nz,
                                                         max_mode=5)
        yield f"{geometry}-{nx}x{nz}-white", make_state(
            g, 0.0, *(rng.standard_normal((nz, nx)) for _ in range(4)))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_parseval_matches_the_quadrature_oracle(k):
    from helpers import quadrature_field_norm
    from slicelab.norms import _field_norm
    spec = NormSpec(k, 2)
    for case, state in _parseval_cases():
        for comps in _fields(state):
            got = _field_norm(comps, spec)
            want = quadrature_field_norm(comps, spec)
            assert abs(got - want) <= 1e-13 * want, (case, len(comps))


@pytest.mark.filterwarnings(
    "ignore::slicelab.diagnostics.EnergyAccountingWarning")
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_row_norm_is_the_state_norm(k):
    # a row's norm column, by Parseval from the state's coefficients when
    # p = 2, is norm(state, spec) to the last bit
    from slicelab.diagnostics import _row_record
    from slicelab.state import Params
    for case, state in _parseval_cases():
        for spec in (NormSpec(k, 2), NormSpec(k, 3), NormSpec(k, math.inf)):
            rec = _row_record(state, Params(), None, spec)
            assert repr(rec.zkp) == repr(norm(state, spec)), (case, spec)


# -- the coefficient bound of the W^{1,inf} norms --------------------------

def _noise_state(g, seed):
    # white noise in every field: every slot holds energy, the square's top
    # sine slot and the torus' Nyquist column included
    rng = np.random.default_rng(seed)
    return make_state(g, 0.0, *rng.standard_normal((4, g.nz, g.nx)))


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_w1inf_bound_is_at_least_the_norms(geometry):
    # the certificate of the cut-off plateau: on random states, smooth or
    # not, one at a time or stacked, the bound is at least each exact norm
    g = make_grid(geometry, 32, 16, 2.0, 1.0)
    states = [_noise_state(g, k) for k in range(3)] + [
        random_state(g, seed=k, max_mode=5, amplitude=0.5) for k in range(3)]
    for state in states:
        bound = w1inf_bound(g, state.coefs)
        assert bound.shape == (3,)
        assert (bound >= np.array(state.w1inf) * (1.0 - 1e-12)).all()
    stacked = _batch_state(states)
    bound = w1inf_bound(g, stacked.coefs)
    assert bound.shape == (3, len(states))
    assert (bound.T >= np.array(stacked.w1inf) * (1.0 - 1e-12)).all()


def _peak_slots(g, basis):
    # (z, x) slots whose basis function, and its derivatives, peak on the
    # nodes: the square's cosine mode 0 and top sine slot (whose derivative
    # the transform drops); the torus' x columns 0, 1 and nx/2 and z rows 1
    # and nz/2 (its Nyquist row)
    if g.geometry is Geometry.SQUARE:
        return [tuple(0 if parity == "cos" else n - 1
                      for parity, n in ((basis[1], g.nz), (basis[0], g.nx)))]
    return [(0, 0), (0, 1), (0, g.nx // 2), (1, 0), (g.nz // 2, 0)]


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_w1inf_bound_is_the_norm_where_the_nodes_reach_the_sup(geometry):
    g = make_grid(geometry, 32, 16, 2.0, 1.0)
    zero = random_state(g, seed=1).coefs
    for i, basis in enumerate(STATE_BASES):
        for slot in _peak_slots(g, basis):
            coefs = [np.zeros_like(c) for c in zero]
            coefs[i][slot] = 1.7
            state = SimState(g, 0.0, tuple(coefs))
            part = max(i - 1, 0)  # u_x and u_z are the u_S part
            assert w1inf_bound(g, coefs)[part] == pytest.approx(
                state.w1inf[part], rel=1e-13, abs=0.0), (basis, slot)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("p", [2.0, 3.0, math.inf])
def test_a_pair_magnitude_is_hypot_s_within_roundoff(p):
    # the squares' sum stands in for hypot; where it overflows (|v| near
    # 1e200) or is not finite, the slice takes hypot's term exactly
    from slicelab.norms import _magnitude_term
    rng = np.random.default_rng(5)
    pair = rng.standard_normal((2, 3, 16, 8))
    pair[:, 1] *= 1e200
    pair[0, 2, 3, 4] = np.nan

    def hypot_term(d):
        mag = np.hypot(*d)
        return (mag.max(axis=(-2, -1)) if p == math.inf
                else np.sum(mag ** p, axis=(-2, -1)))
    got, want = _magnitude_term(pair, p), hypot_term(pair)
    assert abs(got[0] - want[0]) <= 1e-15 * want[0]
    assert got[1] == want[1] and math.isfinite(got[1]) == (p == math.inf)
    assert math.isnan(got[2])
    for i in range(3):
        assert _magnitude_term(pair[:, i], p).tobytes() == got[i].tobytes()
