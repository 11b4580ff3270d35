import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slicelab.errors import ConfigError
from slicelab.norms import (W1INF, ZKP_DEFAULT, NormSpec, combine, l2, norm,
                            state_component_norms)
from slicelab.grid import scalar_field, vector_field
from slicelab.state import random_state

PI = np.pi


def test_l2_of_single_mode(tor64):
    f = scalar_field(tor64, np.sin(tor64.x_mesh))
    # integral of sin^2 over [0,2pi)^2 is 2 pi^2
    assert abs(l2(f) - math.sqrt(2 * PI**2)) <= 1e-10


def test_w1inf_of_single_mode(tor64):
    f = scalar_field(tor64, np.sin(tor64.x_mesh))
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
