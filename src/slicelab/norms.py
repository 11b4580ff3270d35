"""Discrete Sobolev norms W^{k,p} and the product-space norms over states.

The W^{k,p} norm is the l^p combination over all multi-indices |alpha| <= k
of the L^p norms of the spectral derivatives, with L^p by uniform
cell-weight quadrature.  For p = infinity the max over alpha is taken (the
two natural conventions differ by a bounded factor only; this module uses
the max).  Vector fields use the pointwise Euclidean magnitude of the
derivative pair per multi-index.

The state norm Z^{k,p} combines the three component norms (u_S counted as
one vector field) by an l^p sum, or a max when p = infinity.

Field values stacked along a leading path axis, shape (B, nz, nx), are
reduced slice by slice: `_field_norm` and `state_component_norms` then give
one norm (or one triple) per path, each bit for bit the one the 2-D call on
that path's slice gives, with the transforms of one call shared by all B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import ScalarField, VectorField, derivative_values, to_modes
from .state import SimState

INF = math.inf


@dataclass(frozen=True)
class NormSpec:
    k: int
    p: float  # a real >= 2, or math.inf

    def __post_init__(self):
        if self.k not in (0, 1, 2, 3):
            raise ConfigError(f"unsupported derivative order k = {self.k}")
        if not (self.p == INF or self.p >= 2):
            raise ConfigError(f"unsupported p = {self.p} (need p >= 2 or inf)")


#: The blow-up monitor index of the stopping-time criterion.
W1INF = NormSpec(1, INF)
#: Default Sobolev monitor: smallest integer k with k > 1 + 2/p at p = 2.
ZKP_DEFAULT = NormSpec(3, 2)


def _multi_indices(k: int):
    return [(ax, az) for ax in range(k + 1) for az in range(k + 1 - ax)]


def _max(values) -> float:
    """max of a list; nan when any entry is nan, wherever it stands."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def _field_norm(components: list[ScalarField], spec: NormSpec):
    """W^{k,p} of a scalar (1 component) or vector (2 components) field, or
    the list of per-path norms of components stacked along a leading axis."""
    grid = components[0].grid
    # only derivatives read coefficients; the L^p term uses the values
    coefs = ([to_modes(grid, f.values, f.basis) for f in components]
             if spec.k else [])
    bases = [f.basis for f in components]
    terms = []
    for ax, az in _multi_indices(spec.k):
        if ax == 0 and az == 0:
            derivs = [f.values for f in components]
        else:
            derivs = [derivative_values(grid, c, b, ax, az)[0]
                      for c, b in zip(coefs, bases)]
        mag = np.abs(derivs[0]) if len(derivs) == 1 else np.hypot(*derivs)
        # one term per multi-index and slice
        terms.append(mag.max(axis=(-2, -1)) if spec.p == INF
                     else np.sum(mag ** spec.p, axis=(-2, -1)))
    # the scalar epilogue per path, in Python floats
    norms = []
    for row in np.reshape(terms, (len(terms), -1)).T.tolist():
        if spec.p == INF:
            norms.append(_max([0.0, *row]))
        else:
            total = 0.0
            for term in row:
                total += term * grid.cell_area
            norms.append(total ** (1.0 / spec.p))
    return norms if components[0].values.ndim == 3 else norms[0]


def combine(parts, p: float) -> float:
    """l^p combination of already-computed component norms."""
    parts = [float(v) for v in parts]
    if p == INF:
        return _max(parts) if parts else 0.0
    return sum(v ** p for v in parts) ** (1.0 / p)


def norm(obj, spec: NormSpec) -> float:
    """W^{k,p} of a field, or Z^{k,p} of a state."""
    if isinstance(obj, ScalarField):
        return _field_norm([obj], spec)
    if isinstance(obj, VectorField):
        return _field_norm([obj.x, obj.z], spec)
    if isinstance(obj, SimState):
        return combine(state_component_norms(obj, spec), spec.p)
    raise ConfigError(f"cannot take a norm of {type(obj).__name__}")


def l2(obj) -> float:
    return norm(obj, NormSpec(0, 2))


def state_component_norms(state: SimState, spec: NormSpec):
    """(u_S, u_T, theta_S) norms as a tuple, for monitors and diagnostics;
    a stacked state gives a list of such triples, one per path."""
    parts = (norm(state.u_s, spec), norm(state.u_t, spec),
             norm(state.theta_s, spec))
    return list(zip(*parts)) if state.u_t.values.ndim == 3 else parts
