"""Slice-model tendencies and explicit time stepping.

The deterministic system for (u_S, u_T, theta_S) with Leray projector P:

    du_S/dt     = -P[(u_S.grad)u_S] + P[f u_T xhat] + P[(g/theta0) theta_S zhat]
    du_T/dt     = -(u_S.grad)u_T - f u_S.xhat - (g/theta0) z s
    dtheta_S/dt = -(u_S.grad)theta_S - u_T s

All advection products are dealiased by the 2/3 rule, which doubles as the
finite-mode Galerkin truncation of the truncated system.  The truncated
tendency multiplies each advection term by the smooth cutoff of the matching
running norm; linear couplings are never truncated.

Every stepper calls one array-level tendency, `_rhs_arrays`, on the raw
value arrays of each stage: 24 transforms, truncated or not.  A finite
cutoff radius truncates it with the stage's own W^{1,inf} norms, reduced
from the first derivatives its advection takes; an `advect` scale on all
advection terms and a `source_scale` on the z s source let the
exponentially-transformed system share it.  At an infinite radius and unit
scales every factor is exactly 1.0, so the float operation sequence is the
plain one, which the bit-equality contracts of the steppers rely on.
"""

from __future__ import annotations

import math

from .errors import ConfigError, DivergedError
from .grid import (Grid, dealias_values, derivative_values, gaussian_lowpass,
                   to_modes, vector_field)
from .incompressible import project_values
from .norms import W1INF, _max, _w1inf, state_component_norms
from .state import (STATE_BASES, Params, SimState, make_state, state_arrays,
                    state_is_finite)


# ---------------------------------------------------------------------------
# tendencies
# ---------------------------------------------------------------------------

def _gradient(grid: Grid, values, basis):
    """(d_x, d_z) values of a field: one forward, two inverse transforms."""
    coef = to_modes(grid, values, basis)
    return (derivative_values(grid, coef, basis, 1, 0)[0],
            derivative_values(grid, coef, basis, 0, 1)[0])


def _rhs_arrays(grid: Grid, params: Params, ux, uz, ut, th,
                radius: float = math.inf, advect: float = 1.0,
                source_scale: float = 1.0):
    """The tendency's value arrays (dux, duz, dut, dth).

    Each field is transformed and differentiated once; (u.grad) of it
    keeps its parity class and is dealiased in its own basis.  A finite
    radius takes the W^{1,inf} norms, bitwise norm(..., W1INF)'s, from the
    same derivatives.  The scales multiply unconditionally: callers with
    an infinite radius and unit scales get the bitwise-plain tendency.
    """
    truncated = math.isfinite(radius)
    adv, w1inf, held = [], [], []
    for i, (values, basis) in enumerate(zip((ux, uz, ut, th), STATE_BASES)):
        dx, dz = grad = _gradient(grid, values, basis)
        adv.append(dealias_values(grid, ux * dx + uz * dz, basis))
        if truncated:
            held.append((values, grad))
            if i:  # the u_S norm pairs u_x's derivatives with u_z's
                w1inf.append(_w1inf(grid, *zip(*held)))
                held = []
        del dx, dz, grad
    adv_x, adv_z, adv_t, adv_s = adv
    c_us, c_ut, c_th = (cutoffs_from_norms(w1inf, radius) if truncated
                        else (1.0, 1.0, 1.0))

    buoy = params.buoyancy
    adv_us = advect * c_us
    rx = params.f * ut - adv_us * adv_x
    rz = buoy * th - adv_us * adv_z
    dux, duz = project_values(grid, rx, rz)

    dut = -(advect * c_ut) * adv_t - params.f * ux \
        - (source_scale * buoy * params.s) * grid.z_weight
    dth = -(advect * c_th) * adv_s - params.s * ut
    return dux, duz, dut, dth


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
    """The tendency's arrays (dux, duz, dut, dth), each advection term
    scaled by its running-norm cutoff.

    Inside the cutoff plateau every factor is exactly 1.0 and the result is
    bitwise the plain tendency; beyond twice the radius the advection terms
    are exactly zero and only linear couplings remain.
    """
    if not state_is_finite(state):
        raise DivergedError(f"non-finite state at t={state.t:.6g}")
    return _rhs_arrays(state.grid, params, *state_arrays(state),
                       radius=radius)


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------

def _axpy(y, k, c: float):
    return tuple(a + c * b for a, b in zip(y, k))


def _rk4_arrays(y, f, t: float, dt: float):
    """Classical RK4 stage combination over tuples of arrays.

    Shared verbatim by the deterministic and transformed steppers and by
    material-loop advection; any change here changes all three bitwise.
    """
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, _axpy(y, k1, 0.5 * dt))
    k3 = f(t + 0.5 * dt, _axpy(y, k2, 0.5 * dt))
    k4 = f(t + dt, _axpy(y, k3, dt))
    return tuple(a + (dt / 6.0) * (b + 2.0 * (c + d) + e)
                 for a, b, c, d, e in zip(y, k1, k2, k3, k4))


def _finish_step(prev: SimState, arrays, t_new: float) -> SimState:
    g = prev.grid
    ux, uz, ut, th = arrays
    px, pz = project_values(g, ux, uz)
    new = make_state(g, t_new, px, pz, ut, th)
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

    def f(t, y):
        return _rhs_arrays(g, params, *y, radius=radius)

    y1 = _rk4_arrays(state_arrays(state), f, state.t, dt)
    return _finish_step(state, y1, state.t + dt)


def _euler_arrays(state: SimState, params: Params, dt: float, radius: float):
    # the drift update of Euler and Euler-Maruyama, before projection
    _check_dt(dt)
    y = state_arrays(state)
    return _axpy(y, _rhs_arrays(state.grid, params, *y, radius=radius), dt)


def step_euler(state: SimState, params: Params, dt: float,
               radius: float = math.inf) -> SimState:
    """One explicit Euler step (the drift half of Euler-Maruyama)."""
    return _finish_step(state, _euler_arrays(state, params, dt, radius),
                        state.t + dt)


def mollify(state: SimState, j: float) -> SimState:
    """Scale every mode of every component by exp(-|k|^2/j^2); re-project."""
    if j < 1:
        raise ConfigError(f"mollifier level must be >= 1, got {j}")
    g = state.grid
    ux = gaussian_lowpass(state.u_s.x, j).values
    uz = gaussian_lowpass(state.u_s.z, j).values
    px, pz = project_values(g, ux, uz)
    return SimState(state.t, vector_field(g, px, pz),
                    gaussian_lowpass(state.u_t, j),
                    gaussian_lowpass(state.theta_s, j))
