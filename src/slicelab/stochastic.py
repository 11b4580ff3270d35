"""Wiener paths, noise models, and the stochastic steppers.

Two routes through the same SDE: direct Euler-Maruyama on the primitive
variables, and the exponential transform that absorbs linear multiplicative
noise into a deterministic half-alpha-squared damping plus a random
rescaling of the advection terms.  The transformed stepper reuses the
deterministic RK4 stage combination verbatim, so switching the transform
off (alpha = 0) reproduces the deterministic step bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (_axpy, _check_dt, _finish_step, _first_stage,
                       _rhs_arrays, _rk4_arrays)
from .errors import ConfigError, DivergedError
from .grid import dealias, to_modes
from .incompressible import _project_modes
from .state import (STATE_BASES, Params, SimState, scale_state,
                    state_is_finite)

#: |alpha W| beyond which exp() leaves double range; paths are declared
#: diverged instead of producing Inf.
EXP_GUARD = 700.0


# ---------------------------------------------------------------------------
# Wiener paths
# ---------------------------------------------------------------------------

def _stream(seed: int, key: int) -> np.random.Generator:
    # the stream keyed by (seed, key), drawn from no shared generator: a
    # Wiener path draws from level 0 and each bridge refinement from the
    # next level, so a refined path is a pure function of the original
    # seed; a Monte Carlo path draws from its index, so results do not
    # depend on the order in which paths run
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), int(key)]))


@dataclass(frozen=True)
class WienerPath:
    """Discrete Brownian paths: m modes on a uniform grid of n_steps steps.

    increments[j, i] is W_j(t_{i+1}) - W_j(t_i).  level counts bridge
    refinements since the path was sampled.
    """

    dt: float
    n_steps: int
    modes: int
    seed: int
    increments: np.ndarray
    level: int = 0

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=np.float64)
        if inc.shape != (self.modes, self.n_steps):
            raise ConfigError(f"increment array shape {inc.shape} does not "
                              f"match ({self.modes}, {self.n_steps})")
        object.__setattr__(self, "increments", inc)

    @property
    def values(self) -> np.ndarray:
        """Cumulative W, shape (modes, n_steps + 1); W(0) = 0 exactly."""
        w = np.zeros((self.modes, self.n_steps + 1))
        np.cumsum(self.increments, axis=1, out=w[:, 1:])
        return w

    def w_series(self, mode: int = 0) -> np.ndarray:
        return self.values[mode]


def sample_wiener(dt: float, n_steps: int, modes: int, seed: int) -> WienerPath:
    if not (dt > 0 and math.isfinite(dt)):
        raise ConfigError(f"path step must be positive and finite, got {dt}")
    if modes < 1:
        raise ConfigError(f"need at least one noise mode, got {modes}")
    if n_steps < 1:
        raise ConfigError(f"need at least one step, got {n_steps}")
    inc = _stream(seed, 0).standard_normal((modes, n_steps)) * math.sqrt(dt)
    return WienerPath(float(dt), int(n_steps), int(modes), int(seed), inc)


def refine_path(path: WienerPath) -> WienerPath:
    """Halve the step by Brownian-bridge splitting of each increment.

    The refined path agrees with the coarse one at the shared grid times
    (up to roundoff), which is what couples the levels of a strong
    convergence study.
    """
    half = 0.5 * path.increments
    xi = _stream(path.seed, path.level + 1).standard_normal(
        half.shape) * (0.5 * math.sqrt(path.dt))
    fine = np.empty((path.modes, 2 * path.n_steps))
    fine[:, 0::2] = half + xi
    fine[:, 1::2] = half - xi
    return WienerPath(0.5 * path.dt, 2 * path.n_steps, path.modes, path.seed,
                      fine, path.level + 1)


# ---------------------------------------------------------------------------
# noise models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearMultiplicative:
    """Single-mode linear noise: sigma = alpha * (u_S, u_T, theta_S)."""

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ConfigError(f"noise amplitude must be finite, "
                              f"got {self.alpha}")


@dataclass(frozen=True)
class PointwiseNemytskii:
    """Pointwise gains times fixed band-limited mode shapes.

    gains: three callables (state -> scalar or array) for the u_S, u_T and
    theta_S channels.  shapes: per mode a 4-tuple of ScalarFields
    (us_x, us_z, u_t, theta_s).  The u_S channel is Leray-projected at
    evaluation time.
    """

    gains: tuple
    shapes: tuple

    def __post_init__(self):
        if len(self.gains) != 3:
            raise ConfigError("need one gain per channel (u_S, u_T, theta_S)")
        for j, quad in enumerate(self.shapes):
            if len(quad) != 4:
                raise ConfigError(f"mode {j}: need 4 shape fields")
            for comp in quad:
                smooth = dealias(comp)
                scale = max(1.0, float(np.max(np.abs(comp.values))))
                if np.max(np.abs(smooth.values - comp.values)) > 1e-12 * scale:
                    raise ConfigError(
                        f"mode {j}: shape fields must be band-limited "
                        f"(survive dealiasing unchanged)")

    @property
    def modes(self) -> int:
        return len(self.shapes)


def _gain_values(gain, state: SimState, shape) -> np.ndarray:
    # a gain is a scalar or an array that broadcasts to the state's shape
    g = np.asarray(gain(state), dtype=float)
    try:
        return np.broadcast_to(g, shape)
    except ValueError:
        raise ConfigError(f"gain of shape {g.shape} does not fit the "
                          f"state's field shape {shape}") from None


def noise_eval(model, state: SimState) -> list[tuple]:
    """Per-mode diffusion coefficients (dux, duz, dut, dth) in
    `STATE_BASES`, one tuple per noise mode.

    The linear model's one mode is alpha times the state's coefficients,
    u_S left unprojected: a scalar multiple of a divergence-free field is
    divergence-free.  A Nemytskii mode is its gain-times-shape products,
    transformed forward, with the u_S pair projected.
    """
    if not state_is_finite(state):
        raise DivergedError("non-finite state passed to noise evaluation",
                            last_state=None)
    if isinstance(model, LinearMultiplicative):
        return [tuple(model.alpha * c for c in state.coefs)]
    if isinstance(model, PointwiseNemytskii):
        g = state.grid
        # the value shape, (nz, nx) or a batch's (B, nz, nx)
        shape = (*state.coefs[0].shape[:-2], g.nz, g.nx)
        g_us, g_ut, g_th = (_gain_values(gain, state, shape)
                            for gain in model.gains)
        diffs = []
        for sx, sz, st_, th in model.shapes:
            cx, cz, ct, cth = (to_modes(g, a, b) for a, b in zip(
                (g_us * sx.values, g_us * sz.values, g_ut * st_.values,
                 g_th * th.values), STATE_BASES))
            diffs.append((*_project_modes(g, cx, cz), ct, cth))
        return diffs
    raise ConfigError(f"unknown noise model {type(model).__name__}")


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------

def step_em(state: SimState, params: Params, dt: float, dw, model,
            radius: float = math.inf) -> SimState:
    """Euler-Maruyama: drift step (truncated at a finite `radius`) plus
    per-mode diffusion * increment, on the step's coefficients; at zero
    increments it is the explicit Euler step.

    dw holds this step's Brownian increments, shape (modes,), a scalar
    counting as (1,); diffusion is evaluated at the step start.  A batch
    of B paths, fields of shape (B, nz, nx), takes dw of shape (modes, B),
    each path's increments as a (B, 1, 1) scale; each path's slice equals
    its own serial step bit for bit.
    """
    _check_dt(dt)
    y, first = _first_stage(state)
    y1 = _axpy(y, _rhs_arrays(state.grid, params, *y, radius=radius,
                              **first), dt)
    diffs = noise_eval(model, state)
    dw_arr = np.asarray(dw, dtype=float)
    want = (len(diffs), *state.coefs[0].shape[:-2])
    if (dw_arr.shape or (1,)) != want:
        raise ConfigError(f"increment array of shape {dw_arr.shape}, need "
                          f"{want}: one per noise mode and path")
    for w_j, d in zip(dw_arr.reshape(*want, 1, 1), diffs):
        y1 = _axpy(y1, d, w_j)
    return _finish_step(state, y1, state.t + dt)


def _exp_guard(alpha: float, w_t):
    # w_t: one W value, or one per path of a batch
    worst = float(np.max(np.abs(alpha * np.asarray(w_t))))
    if worst > EXP_GUARD:
        raise DivergedError(
            f"|alpha W| = {worst:.3g} exceeds the exp() range",
            last_state=None)


def _path_exp(x):
    """exp of one value, or of one value per path as a (B, 1, 1) scale.

    Each entry is a `math.exp`: `np.exp` can differ from it by an ulp, and
    a batched step must equal its paths' serial steps bit for bit.
    """
    if np.ndim(x) == 0:
        return math.exp(x)
    return np.array([math.exp(v) for v in x]).reshape(-1, 1, 1)


def transform_forward(state: SimState, alpha: float, w_t) -> SimState:
    """Multiply all fields by exp(-alpha W_t); a batch takes one W_t per
    path."""
    _exp_guard(alpha, w_t)
    return scale_state(state, _path_exp(-alpha * np.asarray(w_t)))


def transform_backward(state: SimState, alpha: float, w_t) -> SimState:
    """Inverse of transform_forward."""
    return transform_forward(state, -alpha, w_t)


def step_transformed(state: SimState, params: Params, dt: float, alpha: float,
                     w_start, w_end) -> SimState:
    """One RK4 step of the transformed (random-coefficient) system.

    Advection is scaled by exp(+alpha W(tau)) and the z s source by
    exp(-alpha W(tau)), with W linearly interpolated at stage times; the
    linear couplings are invariant under the rescaling.  The half-alpha-
    squared damping has the exact one-step solution exp(-alpha^2 dt/2), so
    it is applied as an integrating factor after the stage combination
    rather than folded into the tendency.

    A batch of B paths is a state whose fields have shape (B, nz, nx), with
    w_start and w_end of shape (B,); each path's slice equals its own
    serial step bit for bit.
    """
    _check_dt(dt)
    _exp_guard(alpha, w_start)
    _exp_guard(alpha, w_end)
    g = state.grid
    t0 = state.t

    def f(t, y, **first):
        w = w_start + (w_end - w_start) * ((t - t0) / dt)
        return _rhs_arrays(g, params, *y, advect=_path_exp(alpha * w),
                           source_scale=_path_exp(-alpha * w), **first)

    y, first = _first_stage(state)
    y1 = _rk4_arrays(y, f, t0, dt, **first)
    damp = math.exp(-0.5 * alpha * alpha * dt)
    return _finish_step(state, tuple(damp * a for a in y1), t0 + dt)


# ---------------------------------------------------------------------------
# stopping monitors
# ---------------------------------------------------------------------------

#: monitor kinds; the runner decides which series feeds which kind
NORM_THRESHOLD = "norm_threshold"
AMPLITUDE_THRESHOLD = "amplitude_threshold"
GBM_THRESHOLD = "gbm_threshold"
_KINDS = (NORM_THRESHOLD, AMPLITUDE_THRESHOLD, GBM_THRESHOLD)


@dataclass(frozen=True)
class StoppingRecord:
    kind: str
    threshold: float
    triggered: bool
    trigger_time: float | None
    trigger_value: float


class OnlineMonitor:
    """Incremental first-crossing monitor fed one sample per step."""

    def __init__(self, kind: str, threshold: float):
        if kind not in _KINDS:
            raise ConfigError(f"unknown monitor kind {kind!r}")
        self.kind = kind
        self.threshold = float(threshold)
        self._triggered = False
        self._time = None
        self._value = None
        self._peak = 0.0
        self._seen = False

    def update(self, t: float, value: float) -> bool:
        """Feed one sample; returns True exactly when this sample trips the
        threshold for the first time."""
        value = float(value)
        if not self._seen or value > self._peak:
            self._peak = value
        self._seen = True
        if not self._triggered and value >= self.threshold:
            self._triggered = True
            self._time = float(t)
            self._value = value
            return True
        return False

    def record(self) -> StoppingRecord:
        if self._triggered:
            return StoppingRecord(self.kind, self.threshold, True,
                                  self._time, self._value)
        return StoppingRecord(self.kind, self.threshold, False, None,
                              self._peak if self._seen else 0.0)
