"""Slice-model tendencies and explicit time stepping.

The deterministic system for (u_S, u_T, theta_S) with Leray projector P:

    du_S/dt     = -P[(u_S.grad)u_S] + P[f u_T xhat] + P[(g/theta0) theta_S zhat]
    du_T/dt     = -(u_S.grad)u_T - f u_S.xhat - (g/theta0) z s
    dtheta_S/dt = -(u_S.grad)theta_S - u_T s

All advection products are dealiased by the 2/3 rule, which doubles as the
finite-mode Galerkin truncation of the truncated system.  The truncated
tendency multiplies each advection term by the smooth cutoff of the matching
running norm; linear couplings are never truncated.

Every stepper runs its stages on the state's coefficients through one
tendency, `_rhs_arrays`.  u_S's own advection takes the rotational form
P[omega (-u_z, u_x)], whose dealiased products equal P[(u_S.grad)u_S]'s
to roundoff while u_S lies in the 2/3 band; out of it (an s source or a
Nemytskii noise puts it there) a stage takes the u.grad u products.  A
truncated stage first bounds its W^{1,inf} norms from the coefficients
(`norms.w1inf_bound`); where the bounds are within the radius every
cut-off is exactly 1.0 and the stage is a plain one, and otherwise it
reduces its three norms from its 4 values and 8 derivative pairs
(`norms._w1inf`) and then runs as a plain stage with their cut-offs.
At s = 0 a plain stage transforms 11 times (u_S's values and vorticity
and u_T's and theta_S's 4 first derivatives back, 4 products forward; 14
advective), and one that reduces its norms 17 (it also reads u_T's and
theta_S's values and u_S's derivatives; 16 advective).  A step ends with its
projected coefficients, which are the new state: 44 per RK4 step, 68 when
no stage is certified, 11 per EM step.  The first stage takes the values,
gradients, vorticity and W^{1,inf} norms that the state already holds
(`SimState.gradients` and `SimState.w1inf`, read for a diagnostics row,
whose potential vorticity reads `SimState.vorticity`: 37 per truncated
step of such a state) and computes the rest without keeping them.
An `advect` scale on all advection terms and a `source_scale` on the z s
source let the exponentially-transformed system share it.  At an infinite
radius and unit scales, or in a certified stage, every factor is exactly
1.0, so the float operation sequence is the plain one, which the
bit-equality contracts of the steppers rely on.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DivergedError
from .grid import Geometry, Grid, from_modes, gradient_values, to_modes
from .incompressible import _project_modes, curl_modes
from .norms import _max, _w1inf, w1inf_bound
from .state import (STATE_BASES, THETA_BASIS, Params, SimState,
                    state_is_finite)


# ---------------------------------------------------------------------------
# tendencies
# ---------------------------------------------------------------------------

def _rhs_arrays(grid: Grid, params: Params, cx, cz, ct, cth,
                radius: float = math.inf, advect: float = 1.0,
                source_scale: float = 1.0, values=None, gradients=None,
                vorticity=None, w1inf=None):
    """The tendency's coefficients (dux, duz, dut, dth) at the stage with
    coefficients (cx, cz, ct, cth) in `STATE_BASES`; its values, their
    (d_x, d_z) pairs, u_S's vorticity and a finite radius's W^{1,inf}
    norms are taken from these unless given.  A finite radius truncates
    with the cut-offs of those norms, which are exactly 1.0 where
    `w1inf_bound` certifies them within the radius: such a stage, and an
    infinite radius with unit scales, give the bitwise-plain tendency.
    u_S's advection takes the rotational form while u_S lies in the 2/3
    band (`_in_band`), the advective one otherwise.  On the square a
    nonzero s re-expands u_T in theta_S's basis."""
    coefs = (cx, cz, ct, cth)
    cross = params.s and grid.geometry is Geometry.SQUARE
    if w1inf is None and not _certified(grid, coefs, radius):
        # an uncertified stage reduces its norms from all its values and
        # derivative pairs, held or transformed back, which its loop reads
        values = values or [from_modes(grid, c, b)
                            for c, b in zip(coefs, STATE_BASES)]
        gradients = gradients or [gradient_values(grid, c, b)
                                  for c, b in zip(coefs, STATE_BASES)]
        w1inf = [_w1inf(grid, values[i:j], gradients[i:j])
                 for i, j in ((0, 2), (2, 3), (3, 4))]
        if np.ndim(cx) == 3:
            w1inf = list(zip(*w1inf))  # a batch's per-path triples
    # the cut-offs, exactly 1.0 at an infinite or a certified radius
    c_us, c_ut, c_th = (cutoffs_from_norms(w1inf, radius)
                        if w1inf is not None and math.isfinite(radius)
                        else (1.0, 1.0, 1.0))
    rotational = _in_band(grid, cx, cz)
    if values is None:
        values = [from_modes(grid, c, b) if n else None for c, b, n in
                  zip(coefs, STATE_BASES, (True, True, cross, False))]
    ux, uz, ut, _ = values
    adv = []
    if rotational:
        # (u.grad)u = grad(|u|^2/2) + omega (-u_z, u_x), and the projection
        # removes the gradient
        om = (from_modes(grid, *curl_modes(grid, cx, cz))
              if vorticity is None else vorticity)
        adv = [to_modes(grid, a * b, basis) * grid.keep(basis)
               for a, b, basis in ((-om, uz, STATE_BASES[0]),
                                   (om, ux, STATE_BASES[1]))]
        del om
    for i, (c, basis) in enumerate(zip(coefs, STATE_BASES)):
        if i < 2 and rotational:
            continue  # u_S's advection is in the rotational form
        dx, dz = gradients[i] if gradients else gradient_values(grid, c,
                                                                 basis)
        adv.append(to_modes(grid, ux * dx + uz * dz, basis)
                   * grid.keep(basis))
        del dx, dz
    ct_th = to_modes(grid, ut, THETA_BASIS) if cross else ct
    del values, gradients, ux, uz, ut
    adv_x, adv_z, adv_t, adv_s = adv

    buoy = params.buoyancy
    adv_us = advect * c_us
    dux, duz = _project_modes(grid, params.f * ct - adv_us * adv_x,
                              buoy * cth - adv_us * adv_z)
    dut = -(advect * c_ut) * adv_t - params.f * cx
    dth = -(advect * c_th) * adv_s
    if params.s:  # the s terms, skipped where they would add zeros
        dut = dut - (source_scale * buoy * params.s) * grid.z_weight_modes
        dth = dth - params.s * ct_th
    return dux, duz, dut, dth


#: the relative margin by which a stage's `w1inf_bound` must stay within
#: the radius, far above the roundoff between the bound and the norms
PLATEAU_MARGIN = 1e-9


def _certified(grid: Grid, coefs, radius: float) -> bool:
    # every cut-off is exactly 1.0 when the bounds, with the margin, are at
    # most the radius; an infinite radius needs no bound, a nan bound fails
    return not math.isfinite(radius) or float(np.max(
        w1inf_bound(grid, coefs))) * (1.0 + PLATEAU_MARGIN) <= radius


#: the l2 share of u_S's coefficients outside the 2/3 band up to which its
#: advection takes the rotational form.  Roundoff leaves about 1e-14 there;
#: the s source and the Nemytskii products put 1e-9 or more there within a
#: step, where the two forms differ by their aliasing errors.
BAND_TOLERANCE = 1e-12


def _in_band(grid: Grid, cx, cz) -> bool:
    # where u_S lies in the 2/3 band, the dealiased products are exact and
    # the two forms differ by a projected-out gradient only.  A batch is in
    # band when each of its paths is; a path holding a nan counts as in
    # band, so that it cannot change the form of the others (a batch that
    # mixed finite paths in and out of band would step them all in the
    # advective form, within roundoff of their serial steps)
    out = total = 0.0
    for c, basis in ((cx, STATE_BASES[0]), (cz, STATE_BASES[1])):
        energy = np.abs(c)
        energy *= energy
        total = total + energy.sum(axis=(-2, -1))
        out = out + energy.sum(axis=(-2, -1), where=grid._outside_band(basis))
    return not np.any(out > BAND_TOLERANCE ** 2 * total)


def _first_stage(state: SimState):
    """A step's coefficients and its first stage's keywords: the values,
    gradients, vorticity and W^{1,inf} norms the state holds (the stage
    computes those it needs and the state does not hold yet, and does not
    keep them)."""
    return tuple(state.coefs), {name: state.held(name) for name in (
        "values", "gradients", "vorticity", "w1inf")}


def rhs_deterministic(state: SimState, params: Params):
    """Drift tendency of the slice model as arrays (dux, duz, dut, dth)."""
    return rhs_truncated(state, params, math.inf)


def cutoff(x: float, radius: float) -> float:
    """Smooth non-increasing truncation profile: 1 on [0, R], 0 on [2R, inf).

    The bump is the exponential blend h(2-y)/(h(2-y)+h(y-1)) with
    h(t) = exp(-1/t) on t > 0, evaluated at y = x/R; by symmetry the value
    at y = 1.5 is exactly one half.
    """
    if radius <= 0:
        raise ConfigError(f"cutoff radius must be positive, got {radius}")
    y = float(x) / float(radius)
    a = _bump(2.0 - y)
    if a == 0.0:
        return 0.0
    return a / (a + _bump(y - 1.0))


def _bump(t: float) -> float:
    if t <= 0.0:
        return 0.0
    return math.exp(-1.0 / t)


def cutoff_factors(state: SimState, radius: float):
    """The three advection cutoffs (u_S equation, u_T equation, theta_S
    equation), from the state's W^{1,inf} norms."""
    return cutoffs_from_norms(state.w1inf, radius)


def cutoffs_from_norms(norms, radius: float):
    """Cutoffs from (u_S, u_T, theta_S) W^{1,inf} norms already taken; pair
    norms combine with max, which is nan when either norm is.  A batch's
    list of per-path triples (as `SimState.w1inf` holds them) gives each
    path's scalar cut-offs as (B, 1, 1) scales."""
    if np.ndim(norms) == 2:
        return tuple(np.reshape(c, (-1, 1, 1)) for c in zip(*(
            cutoffs_from_norms(path, radius) for path in norms)))
    n_us, n_ut, n_th = norms
    return (cutoff(n_us, radius),
            cutoff(_max((n_us, n_ut)), radius),
            cutoff(_max((n_us, n_th)), radius))


def rhs_truncated(state: SimState, params: Params, radius: float):
    """The tendency's value arrays (dux, duz, dut, dth), each advection term
    scaled by its running-norm cutoff.

    Inside the cutoff plateau every factor is exactly 1.0 and the result is
    bitwise the plain tendency; beyond twice the radius the advection terms
    are exactly zero and only linear couplings remain.
    """
    if not state_is_finite(state):
        raise DivergedError(f"non-finite state at t={state.t:.6g}")
    y, first = _first_stage(state)
    return tuple(from_modes(state.grid, c, b) for c, b in zip(_rhs_arrays(
        state.grid, params, *y, radius=radius, **first), STATE_BASES))


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------

def _axpy(y, k, c: float):
    return tuple(a + c * b for a, b in zip(y, k))


def _rk4_arrays(y, f, t: float, dt: float, **first):
    """Classical RK4 stage combination over tuples of arrays; `first` goes
    to the first stage's call of f only.

    Shared verbatim by the deterministic and transformed steppers and by
    material-loop advection; any change here changes all three bitwise.
    """
    k1 = f(t, y, **first)
    k2 = f(t + 0.5 * dt, _axpy(y, k1, 0.5 * dt))
    k3 = f(t + 0.5 * dt, _axpy(y, k2, 0.5 * dt))
    y4 = _axpy(y, k3, dt)
    # b + 2 (c + d) + e summed in that order, k1..k3 freed before k4
    part = tuple(b + 2.0 * (c + d) for b, c, d in zip(k1, k2, k3))
    del k1, k2, k3
    return tuple(a + (dt / 6.0) * (b + e)
                 for a, b, e in zip(y, part, f(t + dt, y4)))


def _finish_step(prev: SimState, coefs, t_new: float) -> SimState:
    # u_S projected on the coefficients, which are the new state
    g = prev.grid
    cx, cz, ct, cth = coefs
    new = SimState(g, t_new, (*_project_modes(g, cx, cz), ct, cth))
    if not state_is_finite(new):
        raise DivergedError(f"non-finite state after step to t={t_new:.6g}",
                            last_state=prev)
    return new


def _check_dt(dt: float):
    if not (dt > 0 and math.isfinite(dt)):
        raise ConfigError(f"time step must be positive and finite, got {dt}")


def step_rk4(state: SimState, params: Params, dt: float,
             radius: float = math.inf) -> SimState:
    """One classical RK4 step of the system truncated at `radius` (plain at
    infinity); u_S re-projected afterwards."""
    _check_dt(dt)
    g = state.grid

    def f(t, y, **first):
        return _rhs_arrays(g, params, *y, radius=radius, **first)

    y, first = _first_stage(state)
    return _finish_step(state, _rk4_arrays(y, f, state.t, dt, **first),
                        state.t + dt)


def mollify(state: SimState, j: float) -> SimState:
    """Scale every mode of every component by exp(-|k|^2/j^2), |k| the
    angular wavenumber; re-project u_S."""
    if j < 1:
        raise ConfigError(f"mollifier level must be >= 1, got {j}")
    g = state.grid
    cx, cz, ct, cth = (c * np.exp(-g.k2(b) / float(j) ** 2)
                       for c, b in zip(state.coefs, STATE_BASES))
    return SimState(g, state.t, (*_project_modes(g, cx, cz), ct, cth))
