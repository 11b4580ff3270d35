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
from typing import Callable

import numpy as np

from .dynamics import (_axpy, _check_dt, _euler_arrays, _finish_step,
                       _rhs_arrays, _rk4_arrays)
from .errors import ConfigError, DivergedError
from .grid import dealias, scalar_field, vector_field
from .incompressible import leray_project
from .norms import l2
from .state import (Params, SimState, Tendency, scale_state, state_arrays,
                    state_is_finite, tendency_arrays)

#: |alpha W| beyond which exp() leaves double range; paths are declared
#: diverged instead of producing Inf.
EXP_GUARD = 700.0


# ---------------------------------------------------------------------------
# Wiener paths
# ---------------------------------------------------------------------------

def _stream(seed: int, level: int) -> np.random.Generator:
    # (seed, level) keyed streams: the base path draws from level 0 and each
    # bridge refinement from the next level, so a refined path is a pure
    # function of the original seed
    return np.random.default_rng(np.random.SeedSequence([int(seed), level]))


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
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)

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
class NoiseOff:
    """No forcing; the EM stepper degenerates to explicit Euler."""

    modes: int = 0
    kappa_bound: Callable[[float], float] | None = None


@dataclass(frozen=True)
class LinearMultiplicative:
    """Single-mode linear noise: sigma = alpha * (u_S, u_T, theta_S)."""

    alpha: float
    kappa_bound: Callable[[float], float] | None = None
    modes: int = 1

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ConfigError(f"noise amplitude must be finite, "
                              f"got {self.alpha}")
        if self.kappa_bound is None:
            a = abs(self.alpha)
            object.__setattr__(self, "kappa_bound", lambda _peak: a)


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
    kappa_bound: Callable[[float], float] | None = None

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


def noise_eval(model, state: SimState) -> list[Tendency]:
    """Per-mode diffusion fields, shaped like tendencies.

    Off gives an empty list.  The linear model leaves u_S unprojected: a
    scalar multiple of a divergence-free field is divergence-free.
    """
    if not state_is_finite(state):
        raise DivergedError("non-finite state passed to noise evaluation",
                            last_state=None)
    if isinstance(model, NoiseOff):
        return []
    if isinstance(model, LinearMultiplicative):
        a = model.alpha
        s = scale_state(state, a)
        return [Tendency(s.u_s, s.u_t, s.theta_s)]
    if isinstance(model, PointwiseNemytskii):
        g_us, g_ut, g_th = model.gains
        out = []
        for sx, sz, st_, th in model.shapes:
            gv = np.asarray(g_us(state), dtype=float)
            us = leray_project(vector_field(
                state.grid, gv * sx.values, gv * sz.values))
            ut = scalar_field(state.grid,
                              np.asarray(g_ut(state), dtype=float) * st_.values,
                              st_.basis)
            tht = scalar_field(state.grid,
                               np.asarray(g_th(state), dtype=float) * th.values,
                               th.basis)
            out.append(Tendency(us, ut, tht))
        return out
    raise ConfigError(f"unknown noise model {type(model).__name__}")


def kappa_margin(model, state: SimState) -> float:
    """Empirical (A1)-style growth check: ||sigma(state)|| over
    kappa(max|state|) * (1 + sum of component L2 norms).  No gating; a
    value <= 1 means the declared modulus covers this state."""
    if model.kappa_bound is None:
        raise ConfigError("model declares no growth modulus")
    diffs = noise_eval(model, state)
    total = math.sqrt(sum(l2(d.du_s) ** 2 + l2(d.du_t) ** 2
                          + l2(d.dtheta_s) ** 2 for d in diffs))
    peak = max(float(np.max(np.abs(a))) for a in state_arrays(state))
    budget = model.kappa_bound(peak) * (
        1.0 + l2(state.u_s) + l2(state.u_t) + l2(state.theta_s))
    return total / budget if budget > 0 else math.inf


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------

def step_em(state: SimState, params: Params, dt: float, dw, model,
            radius: float = math.inf) -> SimState:
    """Euler-Maruyama: drift step (truncated at a finite `radius`) plus
    per-mode diffusion * increment.

    dw holds this step's Brownian increments, one per noise mode (a scalar
    is accepted for single-mode models); diffusion is evaluated at the step
    start.  With NoiseOff the noise loop is skipped entirely, which keeps
    the result bit-identical to step_euler.
    """
    y1 = _euler_arrays(state, params, dt, radius)
    diffs = noise_eval(model, state)
    if diffs:
        dw_arr = np.atleast_1d(np.asarray(dw, dtype=float))
        if dw_arr.shape != (len(diffs),):
            raise ConfigError(f"got {dw_arr.shape[0]} increments for "
                              f"{len(diffs)} noise modes")
        for w_j, d in zip(dw_arr, diffs):
            y1 = _axpy(y1, tendency_arrays(d), float(w_j))
    return _finish_step(state, y1, state.t + dt)


def _exp_guard(alpha: float, w_t: float):
    if abs(alpha * w_t) > EXP_GUARD:
        raise DivergedError(
            f"|alpha W| = {abs(alpha * w_t):.3g} exceeds the exp() range",
            last_state=None)


def transform_forward(state: SimState, alpha: float, w_t: float) -> SimState:
    """Multiply all fields by exp(-alpha W_t)."""
    _exp_guard(alpha, w_t)
    return scale_state(state, math.exp(-alpha * w_t))


def transform_backward(state: SimState, alpha: float, w_t: float) -> SimState:
    """Inverse of transform_forward."""
    return transform_forward(state, -alpha, w_t)


def step_transformed(state: SimState, params: Params, dt: float, alpha: float,
                     w_start: float, w_end: float) -> SimState:
    """One RK4 step of the transformed (random-coefficient) system.

    Advection is scaled by exp(+alpha W(tau)) and the z s source by
    exp(-alpha W(tau)), with W linearly interpolated at stage times; the
    linear couplings are invariant under the rescaling.  The half-alpha-
    squared damping has the exact one-step solution exp(-alpha^2 dt/2), so
    it is applied as an integrating factor after the stage combination
    rather than folded into the tendency.
    """
    _check_dt(dt)
    _exp_guard(alpha, w_start)
    _exp_guard(alpha, w_end)
    g = state.grid
    t0 = state.t

    def f(t, y):
        w = w_start + (w_end - w_start) * ((t - t0) / dt)
        return _rhs_arrays(g, params, *y, advect=math.exp(alpha * w),
                           source_scale=math.exp(-alpha * w))

    y1 = _rk4_arrays(state_arrays(state), f, t0, dt)
    damp = math.exp(-0.5 * alpha * alpha * dt)
    y1 = tuple(damp * a for a in y1)
    return _finish_step(state, y1, t0 + dt)


# ---------------------------------------------------------------------------
# the exponential-martingale functional
# ---------------------------------------------------------------------------

def lambda_process(path: WienerPath, alpha: float, mode: int = 0) -> np.ndarray:
    """Lambda(t) = exp(alpha W_t - alpha^2 t / 32) on the path grid."""
    w = path.w_series(mode)
    return np.exp(alpha * w - (alpha * alpha / 32.0) * path.times)


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

    @property
    def triggered(self) -> bool:
        return self._triggered

    def record(self) -> StoppingRecord:
        if self._triggered:
            return StoppingRecord(self.kind, self.threshold, True,
                                  self._time, self._value)
        return StoppingRecord(self.kind, self.threshold, False, None,
                              self._peak if self._seen else 0.0)
