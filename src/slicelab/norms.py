"""Discrete Sobolev norms W^{k,p} and the product-space norms over states.

The W^{k,p} norm is the l^p combination over all multi-indices |alpha| <= k
of the L^p norms of the spectral derivatives: W^{k,2}, k >= 1, by discrete
Parseval on the coefficients (`_parseval`), any other by uniform
cell-weight quadrature.  For p = infinity the max over alpha is taken (the
two natural conventions differ by a bounded factor only; this module uses
the max).  Vector fields use the pointwise Euclidean magnitude of the
derivative pair per multi-index.

The state norm Z^{k,p} combines the three component norms (u_S counted as
one vector field) by an l^p sum, or a max when p = infinity.

`_reduce` is the one reduction from derivative values: `_field_norm` feeds
it from a field's own transforms, `state_component_norms` from the state's
coefficients, its first-order terms from the state's cached gradient pass
(`SimState.gradients`, which a step's first stage then reuses), and the
truncated tendency feeds it W^{1,inf} from the derivatives its stage
holds.  Values stacked along a leading path axis, shape (B, nz, nx), are
reduced slice by slice: `_field_norm` and `state_component_norms` then
give one norm (or triple) per path, each bit for bit the 2-D call's on
that slice, with the transforms of one call shared by all B.

`w1inf_bound` bounds a state's three W^{1,inf} norms from its coefficients
alone, with no transform: the truncated tendency's certificate that all
its cut-offs are exactly 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import ScalarField, VectorField, derivative_values, to_modes
from .state import STATE_BASES, SimState

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
    bases = [f.basis for f in components]
    # only derivatives read coefficients
    coefs = ([to_modes(grid, f.values, f.basis) for f in components]
             if spec.k else [])
    return _norm_from(grid, lambda: [f.values for f in components], coefs,
                      bases, spec)


def _norm_from(grid, values, coefs, bases, spec: NormSpec, grads=None):
    """W^{k,p} of the components with coefficients `coefs` in `bases`;
    `values()` gives their value arrays, read only by a k = 0 term, and
    `grads()`, if given, their (d_x, d_z) value pairs, read only by the
    first-order terms.  W^{k,2}, k >= 1, is Parseval's; any other takes
    the derivatives' values one multi-index at a time."""
    if spec.k and spec.p == 2:
        return _parseval(grid, coefs, bases, spec.k)
    return _reduce(grid, (values() if ax == az == 0
                          else [p[az] for p in grads()]
                          if grads and ax + az == 1
                          else [derivative_values(grid, c, b, ax, az)[0]
                                for c, b in zip(coefs, bases)]
                          for ax, az in _multi_indices(spec.k)), spec)


def _parseval(grid, coefs, bases, k: int):
    """W^{k,2} from the components' coefficients by discrete Parseval;
    stacked coefficients give per-slice norms."""
    norms = np.sqrt(grid.cell_area * sum(np.sum(
        grid.sobolev_weight(b, k) * (c * c.conj()).real, axis=(-2, -1))
        for c, b in zip(coefs, bases)))
    return norms.tolist() if norms.ndim else float(norms)


def _magnitude_term(d, p: float):
    """Per slice, max |v| (p = inf) or sum |v|^p over the nodes, |v| the
    pointwise magnitude of one component or of a pair.  A pair takes the
    square root of its squares' sum, within roundoff of hypot's at a tenth
    of the cost, and hypot's only in a slice where that is not finite."""
    def term(mag, power):
        return (mag.max(axis=(-2, -1)) if p == INF
                else np.sum(mag ** power, axis=(-2, -1)))
    if len(d) == 1:
        return term(np.abs(d[0]), p)
    with np.errstate(over="ignore", invalid="ignore"):
        fast = term(d[0] * d[0] + d[1] * d[1], p / 2)
    if p == INF:
        fast = np.sqrt(fast)
    bad = ~np.isfinite(fast)
    return np.where(bad, term(np.hypot(*d), p), fast) if bad.any() else fast


def _reduce(grid, derivs, spec: NormSpec):
    """W^{k,p} from derivative values: per multi-index, in `_multi_indices`
    order, the list of one (scalar) or two (vector) component arrays; at
    W^{1,inf} values, d_z, d_x.  Stacked arrays give per-slice norms."""
    # one term per multi-index and slice
    terms = [_magnitude_term(d, spec.p) for d in derivs]
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
    return norms if np.ndim(terms[0]) else norms[0]


def _w1inf(grid, values, grads):
    """W^{1,inf} from component values and their (d_x, d_z) value pairs."""
    return _reduce(grid, (values, [g[1] for g in grads],
                          [g[0] for g in grads]), W1INF)


def w1inf_bound(grid, coefs):
    """Upper bounds of the (u_S, u_T, theta_S) W^{1,inf} norms of the state
    with coefficients `coefs` in `STATE_BASES`, from the coefficients alone
    (`Grid.sup_weight`; u_S pairs its components per multi-index with
    hypot): an array of shape (3,), or (3, B) for stacked coefficients,
    at least the norms `state_component_norms` takes, up to roundoff."""
    terms = []
    for c, b in zip(coefs, STATE_BASES):
        (wz, dwz), (wx, dwx) = grid.sup_weight(b)
        mag = np.abs(c)
        # the weighted sums along x, then along z (elementwise: a BLAS
        # product would map its library's pages for three numbers)
        along_x, along_dx = ((mag * w).sum(axis=-1) for w in (wx, dwx))
        terms.append(np.array([(along_x * wz).sum(axis=-1),
                               (along_x * dwz).sum(axis=-1),
                               (along_dx * wz).sum(axis=-1)]))
    # the max over the multi-indices (0, 0), (1, 0) and (0, 1)
    return np.stack([np.hypot(terms[0], terms[1]), terms[2],
                     terms[3]]).max(axis=1)


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


def state_component_norms(state: SimState, spec: NormSpec):
    """(u_S, u_T, theta_S) norms as a tuple, for monitors and diagnostics;
    a stacked state gives a list of such triples, one per path.  Every
    norm is taken from the state's coefficients (W^{k,2}, k >= 1, with no
    transform), its k = 0 term from the state's values and its first-order
    terms from the state's gradients."""
    c = state.coefs
    parts = tuple(_norm_from(state.grid, lambda i=i, j=j: state.values[i:j],
                             c[i:j], STATE_BASES[i:j], spec,
                             lambda i=i, j=j: state.gradients[i:j])
                  for i, j in ((0, 2), (2, 3), (3, 4)))
    return list(zip(*parts)) if np.ndim(c[0]) == 3 else parts
