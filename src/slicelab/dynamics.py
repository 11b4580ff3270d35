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
tendency, `_rhs_arrays`: 14 transforms a stage (u_S and 8 first
derivatives back, 4 products forward; 16 truncated, which reads all 4
fields' values), and a step ends with its projected coefficients, which
are the new state: 56 per RK4 step, 64 truncated, 14 per EM step.  The
first stage takes the values and the gradient pass that the state already
holds (`SimState.gradients`, read by its W^{1,inf} norms: 52 per
truncated step of such a state) and computes the rest without keeping
them.
An `advect` scale on all advection terms and a `source_scale` on the z s
source let the exponentially-transformed system share it.  At an infinite
radius and unit scales every factor is exactly 1.0, so the float operation
sequence is the plain one, which the bit-equality contracts of the
steppers rely on.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DivergedError
from .grid import Geometry, Grid, from_modes, gradient_values, to_modes
from .incompressible import _project_modes
from .norms import W1INF, _max, _w1inf, state_component_norms
from .state import (STATE_BASES, THETA_BASIS, Params, SimState,
                    state_is_finite)


# ---------------------------------------------------------------------------
# tendencies
# ---------------------------------------------------------------------------

def _rhs_arrays(grid: Grid, params: Params, cx, cz, ct, cth,
                radius: float = math.inf, advect: float = 1.0,
                source_scale: float = 1.0, values=None, grads=None):
    """The tendency's coefficients (dux, duz, dut, dth) at the stage with
    coefficients (cx, cz, ct, cth) in `STATE_BASES`; its values and their
    (d_x, d_z) pairs are taken from these unless given.  A finite radius
    truncates with the W^{1,inf} norms of the same arrays; an infinite one
    and unit scales give the bitwise-plain tendency.  On the square a
    nonzero s re-expands u_T in theta_S's basis."""
    truncated = math.isfinite(radius)
    coefs = (cx, cz, ct, cth)
    cross = params.s and grid.geometry is Geometry.SQUARE
    if values is None:
        need = (True, True, truncated or cross, truncated)
        values = [from_modes(grid, c, b) if n else None
                  for c, b, n in zip(coefs, STATE_BASES, need)]
    ux, uz, ut, _ = values
    adv, w1inf, held = [], [], []
    for i, (c, basis) in enumerate(zip(coefs, STATE_BASES)):
        dx, dz = grad = (grads[i] if grads
                         else gradient_values(grid, c, basis))
        adv.append(to_modes(grid, ux * dx + uz * dz, basis)
                   * grid.keep(basis))
        if truncated:
            held.append((values[i], grad))
            if i:  # the u_S norm pairs u_x's derivatives with u_z's
                w1inf.append(_w1inf(grid, *zip(*held)))
                held = []
        del dx, dz, grad
    ct_th = to_modes(grid, ut, THETA_BASIS) if cross else ct
    del values, ux, uz, ut
    adv_x, adv_z, adv_t, adv_s = adv
    c_us, c_ut, c_th = (cutoffs_from_norms(w1inf, radius) if truncated
                        else (1.0, 1.0, 1.0))

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


def _first_stage(state: SimState):
    """A step's coefficients and its first stage's keywords: the values
    and gradients the state holds (the stage transforms back those it
    needs and the state does not hold yet, and does not keep them)."""
    return tuple(state.coefs), dict(values=state.held("values"),
                                    grads=state.held("gradients"))


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
    return cutoffs_from_norms(state_component_norms(state, W1INF), radius)


def cutoffs_from_norms(norms, radius: float):
    """Cutoffs from (u_S, u_T, theta_S) W^{1,inf} norms already taken; pair
    norms combine with max, which is nan when either norm is."""
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


def _euler_arrays(state: SimState, params: Params, dt: float, radius: float):
    # the step's coefficients and its drift update, before projection
    _check_dt(dt)
    y, first = _first_stage(state)
    return y, _axpy(y, _rhs_arrays(state.grid, params, *y, radius=radius,
                                   **first), dt)


def step_euler(state: SimState, params: Params, dt: float,
               radius: float = math.inf) -> SimState:
    """One explicit Euler step (the drift half of Euler-Maruyama)."""
    return _finish_step(state, _euler_arrays(state, params, dt, radius)[1],
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
