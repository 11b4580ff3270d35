"""Monte Carlo harnesses and convergence studies.

The hitting-law experiments are scalar-path computations (no PDE): the
geometric Brownian motion exp{alpha W_t - alpha^2 t/32} has an exactly
computable first-passage law, which makes it the sharp end of the test
suite.  The regularity experiment couples the same path functional to the
transformed PDE solver.  A regularity path draws its W from one RNG
stream per path, keyed by (seed, path index).  A hitting-law path draws
two numbers: the log process at the horizon, and a uniform that decides,
with the Brownian bridge's exact crossing probability, whether it reached
the barrier before.  Its normal is draw `index` of stream (seed, 0) and
its uniform draw `index` of stream (seed, 1), two streams per run.  A
generator fills a vector in stream order, so either way a path depends on
(seed, path index) only, and results do not depend on how paths are
scheduled or batched.  So the hitting harnesses sample the continuous
law, and dt sets only the horizon, a whole number of steps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import check_hypothesis, check_levels, check_paths, step_count
from .dynamics import mollify, step_rk4
from .errors import ConfigError, DivergedError
from .grid import Grid
from .norms import NormSpec, ZKP_DEFAULT, combine, norm, state_component_norms
from .state import Params, SimState, random_state, scale_state, zero_state
from .stochastic import (AMPLITUDE_THRESHOLD, GBM_THRESHOLD, OnlineMonitor,
                         LinearMultiplicative, refine_path, sample_wiener,
                         step_em, step_transformed, transform_backward,
                         transform_forward)
# the stream keyed by (seed, key): a regularity path's W, keyed by its
# index, or the hitting-law paths' normals (key 0) and uniforms (key 1)
from .stochastic import _stream as _path_rng


class AmplitudeBudgetWarning(UserWarning):
    """Initial data exceeds the amplitude budget of the hitting-law bound."""


def _phi(x: float) -> float:
    # standard normal CDF via erfc, stable in both tails
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# the exact hitting law
# ---------------------------------------------------------------------------

def gbm_max_oracle(alpha: float, r: float, horizon: float) -> float:
    """P(max over [0, horizon] of exp{alpha W_t - alpha^2 t/32} >= r).

    Drifted-Brownian first-passage law for the log process with drift
    -alpha^2/32 and volatility |alpha|; the reflection weight
    exp(2 mu a / sigma^2) collapses to r^(-1/16) independently of alpha.
    horizon may be inf, where the law is exactly r^(-1/16).
    """
    if r < 1.0:
        raise ConfigError(f"threshold r must be >= 1 (Lambda starts at 1), "
                          f"got {r}")
    if horizon < 0.0 or math.isnan(horizon):
        raise ConfigError(f"horizon must be nonnegative, got {horizon}")
    if r == 1.0:
        return 1.0
    if alpha == 0.0 or horizon == 0.0:
        return 0.0
    if math.isinf(horizon):
        return r ** (-1.0 / 16.0)
    a = math.log(r)
    sigma = abs(alpha)
    mu = -(alpha * alpha) / 32.0
    sig_rt = sigma * math.sqrt(horizon)
    return (_phi((-a + mu * horizon) / sig_rt)
            + r ** (-1.0 / 16.0) * _phi((-a - mu * horizon) / sig_rt))


# ---------------------------------------------------------------------------
# Monte Carlo hitting frequency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McSummary:
    n_paths: int
    hits: int
    fraction: float
    standard_error: float
    seed: int
    alpha: float
    r: float
    horizon: float
    dt: float


def _path_crossings(alpha: float, r: float, horizon: float, dt: float,
                    n_paths: int, seed: int) -> list:
    """(crossed, stopped log value) of the log process alpha W -
    (alpha^2/32) t against a = log r by T = n dt, for each path index in
    index order.

    Path idx takes z, draw idx of the standard normals of stream (seed, 0),
    and u, draw idx of the uniforms of stream (seed, 1); both streams are
    built before any draw.  x = -(alpha^2/32) T + alpha sqrt(T) z is the
    process at T, and the path crosses if x >= a or u < exp(-2 a (a - x) /
    (alpha^2 T)), the exact probability that a Brownian bridge from 0 to x
    of variance alpha^2 T reaches a.  Its stopped log value is a if it
    crosses, x otherwise.  With r <= 1 every path crosses at t = 0,
    stopped at 0, and nothing is drawn.
    """
    big_t = step_count(horizon, dt, "horizon") * dt
    log_r = math.log(r) if r > 0 else -math.inf
    if log_r <= 0.0:
        return [(True, 0.0)] * n_paths
    normals, uniforms = _path_rng(seed, 0), _path_rng(seed, 1)
    drift = -(alpha * alpha) / 32.0 * big_t
    scale = alpha * math.sqrt(big_t)
    out = []
    for z, u in zip(normals.standard_normal(n_paths).tolist(),
                    uniforms.random(n_paths).tolist()):
        x = drift + scale * z
        crossed = x >= log_r or (alpha != 0.0 and u < math.exp(
            -2.0 * log_r * (log_r - x) / (alpha * alpha * big_t)))
        out.append((True, log_r) if crossed else (False, x))
    return out


def mc_hitting(alpha: float, r: float, horizon: float, dt: float,
               n_paths: int, seed: int) -> McSummary:
    """Empirical frequency of Lambda reaching r on [0, horizon].

    Each path samples the continuous law exactly (`_path_crossings`), so
    the frequency scatters about `gbm_max_oracle` by sampling noise only;
    dt sets only the horizon, a whole number n of steps of dt.  The run
    draws from two streams, (seed, 0) and (seed, 1), and path idx takes
    draw idx of each, so a path depends on (seed, idx) only.
    """
    check_paths(n_paths)
    hits = sum(crossed for crossed, _ in _path_crossings(
        alpha, r, horizon, dt, n_paths, seed))
    frac = hits / n_paths
    se = math.sqrt(frac * (1.0 - frac) / n_paths)
    return McSummary(n_paths, hits, frac, se, seed, alpha, r, horizon, dt)


def stopped_lambda_mean(alpha: float, r: float, horizon: float, dt: float,
                        n_paths: int, seed: int) -> tuple[float, float]:
    """Mean and standard error of Lambda(horizon ^ hitting time)^{1/16}.

    Lambda^{1/16} is a positive continuous martingale, and stopping at
    the first crossing of r keeps the mean at exactly 1 (optional
    stopping); only sampling noise remains.  A path stops at r^{1/16} if
    it crosses and at Lambda(n dt)^{1/16} otherwise: dt sets only the
    horizon.  The paths are `mc_hitting`'s, drawn from the same two
    streams.  With r <= 1 every path stops at t = 0.
    """
    check_paths(n_paths)
    vals = np.array([math.exp(stopped / 16.0) for _, stopped in
                     _path_crossings(alpha, r, horizon, dt, n_paths,
                                     seed)])
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_paths))
    return mean, se


# ---------------------------------------------------------------------------
# amplitude budget of the hitting-law theorem
# ---------------------------------------------------------------------------

def amplitude_threshold(alpha: float, r: float, c_tilde: float = 1.0) -> float:
    """Data-amplitude budget |alpha| / (16 C A(|alpha|, r)) with

    A = 2r (1 + (|alpha|/(16C))^(1 - 1/(2(e^{4Cr}-1)))) *
        exp{C r e^{4Cr} (8 + 32C/alpha^2)}.

    Evaluated in log space: A overflows double range already for moderate
    C r, in which case the budget is honestly 0.0.  Note the asymptotic
    bounds 1 < A~ <= |alpha|/(16C) quoted for this expression hold only
    once the power term dominates the exponential one, far outside desk
    parameter ranges for C near 1.
    """
    if c_tilde <= 0 or not math.isfinite(c_tilde):
        raise ConfigError(f"constant budget must be positive, got {c_tilde}")
    if r < 1.0:
        raise ConfigError(f"threshold r must be >= 1, got {r}")
    check_hypothesis(alpha, c_tilde)
    base = abs(alpha) / (16.0 * c_tilde)
    t4 = 4.0 * c_tilde * r
    if t4 > 700.0:
        return 0.0  # exp{4Cr} alone leaves double range
    e4 = math.exp(t4)
    q = 1.0 - 1.0 / (2.0 * math.expm1(t4))
    log_a = (math.log(2.0 * r) + math.log1p(base ** q)
             + c_tilde * r * e4 * (8.0 + 32.0 * c_tilde / (alpha * alpha)))
    log_out = math.log(base) - log_a
    return math.exp(log_out) if log_out > -745.0 else 0.0


# ---------------------------------------------------------------------------
# Monte Carlo global regularity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GlobalRegularityResult:
    summary: McSummary
    regular_fraction: float
    bounded_fraction: float
    n_diverged: int
    amplitude_records: tuple
    gbm_records: tuple
    amplitude_ok: bool


#: Values per field in one batch of ensemble paths: 64 paths at 16^2, 16 at
#: 32^2, 4 at 64^2 and one from 128^2 up, so a batch's complex coefficient
#: arrays are about L2-sized.  A path-step gets cheaper with B up to about
#: there and no further: a `step_transformed` path-step at 32^2 took 1.27,
#: 0.65, 0.52 and 0.50 ms at B = 1, 4, 16 and 64, and at 64^2 2.17, 1.78
#: and 1.87 ms at B = 1, 4 and 16 (process CPU time, best of 7, on a 2-CPU
#: x86_64 host).  A memory cap only: results do not depend on it.
_BATCH_VALUES = 16384


def _batch_width(grid: Grid) -> int:
    # paths per ensemble batch on this grid, at least one
    return max(1, _BATCH_VALUES // (grid.nx * grid.nz))


class _RegularityPath:
    """One path of the regularity experiment: its W on the step grid, its
    two stopping monitors and its norm-bound flag."""

    def __init__(self, seed: int, index: int, n_steps: int, dt: float,
                 amp_threshold: float, r: float):
        inc = _path_rng(seed, index).standard_normal(n_steps) * math.sqrt(dt)
        self.w = np.zeros(n_steps + 1)
        np.cumsum(inc, out=self.w[1:])
        self.amp = OnlineMonitor(AMPLITUDE_THRESHOLD, amp_threshold)
        self.gbm = OnlineMonitor(GBM_THRESHOLD, r)
        self.bounded = True
        self.diverged = False


def _paths(batch: SimState, index) -> SimState:
    # path `index` (an int) or paths `index` (a list) of a batch state, as
    # slices of its coefficients
    return SimState(batch.grid, batch.t, tuple(c[index] for c in batch.coefs))


def _batch_state(states: list) -> SimState | None:
    # paths at one time, their coefficients stacked along a leading axis;
    # None for no paths
    if not states:
        return None
    return SimState(states[0].grid, states[0].t, tuple(
        np.stack(c) for c in zip(*(s.coefs for s in states))))


def mc_global_regularity(grid: Grid, params: Params, alpha: float, r: float,
                         amplitude: float, n_paths: int, horizon: float,
                         dt: float, seed: int, c_tilde: float = 1.0,
                         data_seed: int = 0, max_mode: int = 2,
                         spec: NormSpec = ZKP_DEFAULT) -> GlobalRegularityResult:
    """Transformed solves, one per Brownian path, with two stopping monitors.

    amplitude is the spec norm of the (randomly generated, then
    rescaled) initial data, so it compares like-for-like with the
    amplitude_threshold budget.  Each path runs until the GBM monitor
    fires (Lambda >= r), the horizon is reached, or the solve diverges.
    Reported: (a) the fraction of non-diverged paths whose amplitude
    monitor (1 + sum of component norms >= |alpha|/(8 c_tilde)) did not
    fire strictly before the GBM one, and (b) the fraction whose spec
    norm stayed <= |alpha|/(32 c_tilde) up to the stopping time.  The
    amplitude monitor and the norm bound share each state's component
    norms, taken on the transformed variables, the objects the pathwise
    argument actually controls.  Diverged paths are counted separately
    and excluded from both fractions' denominators.

    Paths are stepped together in batches of consecutive indices, capped
    by `_BATCH_VALUES`; a path leaves its batch when its GBM monitor fires
    or it diverges.  A batched step equals its paths' serial steps bit for
    bit, and a batch whose step diverges re-runs that step path by path,
    so every record is the one a path-by-path loop gives.
    """
    if params.s != 0.0:
        raise ConfigError("the regularity experiment requires s = 0")
    if n_paths < 1:
        raise ConfigError(f"need at least one path, got {n_paths}")
    n_steps = step_count(horizon, dt, "horizon")

    budget = amplitude_threshold(alpha, r, c_tilde)
    amplitude_ok = amplitude <= budget
    if not amplitude_ok:
        warnings.warn(
            f"initial data norm {amplitude:.3g} exceeds the hitting-law "
            f"budget {budget:.3g}; the norm-bound fractions are exploratory",
            AmplitudeBudgetWarning, stacklevel=2)

    if amplitude == 0.0:
        data = zero_state(grid)
    else:
        raw = random_state(grid, seed=data_seed, max_mode=max_mode,
                           amplitude=1.0)
        data = scale_state(raw, amplitude / norm(raw, spec))

    amp_threshold = abs(alpha) / (8.0 * c_tilde)
    norm_bound = abs(alpha) / (32.0 * c_tilde)
    mu = -(alpha * alpha) / 32.0

    def observe(path: _RegularityPath, k: int, parts) -> bool:
        # returns True when the path is finished (GBM monitor fired)
        t_k = k * dt
        if path.bounded and combine(parts, spec.p) > norm_bound:
            path.bounded = False
        path.amp.update(t_k, 1.0 + sum(parts))
        return path.gbm.update(t_k, math.exp(alpha * path.w[k] + mu * t_k))

    def step(batch: SimState, live: list, k: int):
        """Step k of every live path: the stepped batch of the paths that
        did not diverge in it, and those paths."""
        try:
            return step_transformed(
                batch, params, dt, alpha, np.array([p.w[k] for p in live]),
                np.array([p.w[k + 1] for p in live])), live
        except DivergedError:
            states = []
            for i, p in enumerate(live):
                try:
                    states.append(step_transformed(_paths(batch, i),
                                                   params, dt, alpha, p.w[k],
                                                   p.w[k + 1]))
                except DivergedError:
                    p.diverged = True
            return _batch_state(states), [p for p in live if not p.diverged]

    state0 = transform_forward(data, alpha, 0.0)
    # every path starts from state0, so they share its norms; taken with
    # the first batch, as path work
    parts0 = None
    width = _batch_width(grid)
    paths = []
    for first in range(0, n_paths, width):
        live = [_RegularityPath(seed, idx, n_steps, dt, amp_threshold, r)
                for idx in range(first, min(first + width, n_paths))]
        paths.extend(live)
        if parts0 is None:
            parts0 = state_component_norms(state0, spec)
        live = [p for p in live if not observe(p, 0, parts0)]
        batch = _batch_state([state0] * len(live))
        for k in range(n_steps):
            if not live:
                break
            batch, live = step(batch, live, k)
            if not live:
                break
            # one norm pass for the whole batch, a triple per path
            parts = state_component_norms(batch, spec)
            keep = [i for i, p in enumerate(live)
                    if not observe(p, k + 1, parts[i])]
            if len(keep) < len(live):
                # finished paths leave the batch by index
                batch = _paths(batch, keep)
                live = [live[i] for i in keep]

    amp_records = tuple(p.amp.record() for p in paths)
    gbm_records = tuple(p.gbm.record() for p in paths)
    n_diverged = sum(p.diverged for p in paths)
    n_regular = n_bounded = 0
    for p, amp_rec, gbm_rec in zip(paths, amp_records, gbm_records):
        if p.diverged:
            continue
        amp_first = amp_rec.triggered and (
            not gbm_rec.triggered
            or amp_rec.trigger_time < gbm_rec.trigger_time)
        if not amp_first:
            n_regular += 1
        if p.bounded:
            n_bounded += 1

    hits = sum(1 for rec in gbm_records if rec.triggered)
    frac = hits / n_paths
    se = math.sqrt(frac * (1.0 - frac) / n_paths)
    summary = McSummary(n_paths, hits, frac, se, seed, alpha, r, horizon, dt)
    n_ok = n_paths - n_diverged
    return GlobalRegularityResult(
        summary=summary,
        regular_fraction=(n_regular / n_ok) if n_ok else 0.0,
        bounded_fraction=(n_bounded / n_ok) if n_ok else 0.0,
        n_diverged=n_diverged,
        amplitude_records=amp_records,
        gbm_records=gbm_records,
        amplitude_ok=amplitude_ok)


# ---------------------------------------------------------------------------
# strong convergence of EM against the transform-based reference
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrongConvergenceResult:
    entries: tuple  # (dt, rms error) pairs, coarse to fine
    slope: float | None
    n_paths: int
    seed: int
    alpha: float


def strong_convergence_study(grid: Grid, params: Params, state0: SimState,
                             alpha: float, horizon: float, coarse_dt: float,
                             levels: int = 4, n_paths: int = 16,
                             seed: int = 0) -> StrongConvergenceResult:
    """EM error at dyadic step sizes against the finest transform solve.

    One Brownian path per MC repetition, keyed by (seed, index) and shared
    across levels by bridge refinement; the reference for each path is the
    transformed solver at the finest level, back-transformed.  Errors are
    root-mean-square L2 differences over paths (a single path's strong
    error fluctuates by an O(1) factor between levels).  With the noise
    off the paths drop out and one repetition suffices.

    Paths are stepped together in batches of consecutive indices, capped
    by `_BATCH_VALUES`: at each level a batch's EM runs are one
    (B, nz, nx) state through `step_em`, and its finest-level references
    one through `step_transformed`.  Each path's squared error is summed
    from its own slice and added in path order, so the results equal the
    path-by-path loop's bit for bit.
    """
    check_levels(levels)
    if n_paths < 1:
        raise ConfigError(f"need at least one path, got {n_paths}")
    n_coarse = step_count(horizon, coarse_dt, "horizon")
    if alpha == 0.0:
        n_paths = 1
    model = LinearMultiplicative(alpha=alpha)

    def ladder(idx: int) -> list:
        # path idx at every level, coarse to fine
        path_seed = int(np.random.SeedSequence([seed, idx]).generate_state(1)[0])
        paths = [sample_wiener(coarse_dt, n_coarse, 1, seed=path_seed)]
        for _ in range(levels - 1):
            paths.append(refine_path(paths[-1]))
        return paths

    # `level` holds one WienerPath per path of the batch, all on one grid
    def run_em(start: SimState, level) -> SimState:
        dw = np.stack([p.increments for p in level], axis=-1)
        s = start
        for i in range(level[0].n_steps):
            s = step_em(s, params, level[0].dt, dw[:, i], model)
        return s

    def run_transform(start: SimState, level) -> SimState:
        w = np.stack([p.w_series() for p in level], axis=-1)
        s = transform_forward(start, alpha, 0.0)
        for i in range(level[0].n_steps):
            s = step_transformed(s, params, level[0].dt, alpha, w[i],
                                 w[i + 1])
        return transform_backward(s, alpha, w[-1])

    sq_err = np.zeros(levels)
    width = _batch_width(grid)
    for first in range(0, n_paths, width):
        by_level = list(zip(*(ladder(idx) for idx in
                              range(first, min(first + width, n_paths)))))
        start = _batch_state([state0] * len(by_level[0]))
        ref = run_transform(start, by_level[-1]).values
        for lev, level in enumerate(by_level):
            em = run_em(start, level).values
            for b in range(len(level)):
                diff = sum(float(np.sum((x[b] - y[b]) ** 2))
                           for x, y in zip(em, ref))
                sq_err[lev] += diff * grid.cell_area
    rms = np.sqrt(sq_err / n_paths)
    dts = np.array([coarse_dt / 2 ** k for k in range(levels)])
    entries = tuple((float(d), float(e)) for d, e in zip(dts, rms))
    if np.all(rms == 0.0):
        return StrongConvergenceResult(entries, None, n_paths, seed, alpha)
    slope = float(np.polyfit(np.log(dts), np.log(rms), 1)[0])
    return StrongConvergenceResult(entries, slope, n_paths, seed, alpha)


# ---------------------------------------------------------------------------
# mollified-data Cauchy study
# ---------------------------------------------------------------------------

def mollifier_cauchy_study(state0: SimState, params: Params, j_levels,
                           horizon: float, dt: float,
                           spec: NormSpec = ZKP_DEFAULT) -> tuple:
    """Distances d_j between solves from J_{1/j} and J_{1/(2j)} data.

    j_levels must be a dyadic ladder of at least three smoothing levels;
    each solve is the deterministic RK4 trajectory to the horizon.
    Successive solutions sharing smoothed data form a Cauchy sequence, so
    d_j shrinks as j grows for smooth data and vanishes identically when
    the data has no content the mollifier can touch.
    """
    j_levels = [int(j) for j in j_levels]
    if len(j_levels) < 3:
        raise ConfigError(f"need at least 3 smoothing levels, "
                          f"got {len(j_levels)}")
    for a, b in zip(j_levels, j_levels[1:]):
        if b != 2 * a:
            raise ConfigError(f"smoothing levels must be dyadic, "
                              f"got {a} followed by {b}")
    n_steps = step_count(horizon, dt, "horizon")

    def solve(j: int) -> SimState:
        s = mollify(state0, j)
        for _ in range(n_steps):
            s = step_rk4(s, params, dt)
        return s

    cache: dict[int, SimState] = {}
    for j in j_levels + [2 * j_levels[-1]]:
        if j not in cache:
            cache[j] = solve(j)

    def distance(a: SimState, b: SimState) -> float:
        return norm(SimState(a.grid, a.t, tuple(
            x - y for x, y in zip(a.coefs, b.coefs))), spec)

    return tuple((j, distance(cache[j], cache[2 * j])) for j in j_levels)
