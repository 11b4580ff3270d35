"""What only the tests use: state comparisons, zero fields, the
stream-function velocity, the vorticity-form cross-check of the primitive
stepper, the batch oracle of the online stopping monitor, the
stopping-record reader, per-geometry oracles of the spectral operators
that the grid's per-basis tables now serve with one body, the
path-by-path loops that the regularity experiment and the strong
convergence study batch, the allocating hitting-law path loops (the per-step reference for the grid
law and the block kernel with its arrays allocated), the hitting fraction
of supplied (refined) paths and a path's grid times, the decay-rate
fit, the value shells `curl` and `leray_project`, the l2 norm, the
diagnostics CSV reader, the value-space tendency
and steppers that the coefficient-space stages replaced (their cut-off
norms taken with transforms of their own) and the value-space noise of
their EM step, the coefficient-space first stage with
its cut-offs through state_component_norms(..., W1INF) (in the rotational
form where u_S lies in the 2/3 band), the stacking of
states into one batch state, and the quadrature W^{k,2} norm that discrete
Parseval replaced."""

import math
from dataclasses import replace

import numpy as np
import scipy.fft as sfft

from slicelab.dynamics import (_axpy, _check_dt, _in_band, _rk4_arrays,
                               cutoffs_from_norms)
from slicelab.errors import ConfigError, DiagnosticsFormatError, DivergedError
from slicelab.grid import (SIN, Geometry, ScalarField, VectorField,
                           VX_BASIS, VZ_BASIS, axis_derivative_modes,
                           derivative_values, from_modes, gradient_values,
                           to_modes, vector_field)
from slicelab.experiments import _BLOCK, _path_rng
from slicelab.incompressible import _project_modes, curl_modes, project_values
from slicelab.norms import (W1INF, ZKP_DEFAULT, NormSpec, _multi_indices,
                            _reduce, combine, norm, state_component_norms)
from slicelab.runio import _FIELDS, DiagnosticsRecord, _check_header
from slicelab.state import (STATE_BASES, THETA_BASIS, UT_BASIS, Params,
                            SimState, make_state, random_state, scale_state,
                            state_is_finite)
from slicelab.stochastic import (_KINDS, AMPLITUDE_THRESHOLD, GBM_THRESHOLD,
                                 LinearMultiplicative, OnlineMonitor,
                                 StoppingRecord, _exp_guard, _gain_values,
                                 _path_exp, refine_path, sample_wiener,
                                 step_em, step_transformed,
                                 transform_backward, transform_forward)


def states_close(a: SimState, b: SimState, tol: float) -> bool:
    return all(np.max(np.abs(x - y)) <= tol
               for x, y in zip(a.values, b.values))


def state_max_abs_diff(a: SimState, b: SimState) -> float:
    return max(float(np.max(np.abs(x - y))) if x.size else 0.0
               for x, y in zip(a.values, b.values))


def with_time(state: SimState, t: float) -> SimState:
    return replace(state, t=float(t))


def stacked_state(states) -> SimState:
    """One batch state whose path i is states[i], coefficient for
    coefficient."""
    return SimState(states[0].grid, states[0].t, tuple(
        np.stack(c) for c in zip(*(s.coefs for s in states))))


def zero_scalar(grid, basis=None) -> ScalarField:
    return ScalarField(grid, np.zeros((grid.nz, grid.nx)), basis)


def streamfunction_velocity(psi: ScalarField) -> VectorField:
    """grad-perp(psi): divergence-free by construction, wall-tangent on the
    square when psi is sine-sine."""
    g = psi.grid
    c = to_modes(g, psi.values, psi.basis)
    ux, bux = axis_derivative_modes(g, -c, psi.basis, "z")
    uz, buz = axis_derivative_modes(g, c, psi.basis, "x")
    return vector_field(g, from_modes(g, ux, bux), from_modes(g, uz, buz))


def dealias_values(grid, values, basis):
    """2/3-rule dealias of value arrays by a round trip."""
    return from_modes(grid, to_modes(grid, values, basis) * grid.keep(basis),
                      basis)


def value_gradient(g, values, basis):
    """(d_x, d_z) values of a field from its values: three transforms."""
    return gradient_values(g, to_modes(g, values, basis), basis)


def _advect(g, ux, uz, grad, basis):
    dx, dz = grad
    return dealias_values(g, ux * dx + uz * dz, basis)


def rhs_vorticity(omega: ScalarField, u_t: ScalarField, theta_s: ScalarField,
                  params: Params):
    """Vorticity-form tendencies (domega, du_T, dtheta_S).

    u_S is recovered from omega by `oracle_velocity_from_vorticity`; the
    couplings are the curl of the primitive ones: domega = -(u.grad)omega
    - f d_z u_T + (g/theta0) d_x theta_S.
    """
    g = omega.grid
    ux, uz = oracle_velocity_from_vorticity(g, omega.values)
    go = value_gradient(g, omega.values, omega.basis)
    gt = value_gradient(g, u_t.values, u_t.basis)
    gs = value_gradient(g, theta_s.values, theta_s.basis)
    domega = (-_advect(g, ux, uz, go, omega.basis) - params.f * gt[1]
              + params.buoyancy * gs[0])
    dut = (-_advect(g, ux, uz, gt, u_t.basis) - params.f * ux
           - params.buoyancy * params.s * g.z_weight)
    dth = -_advect(g, ux, uz, gs, theta_s.basis) - params.s * u_t.values
    return (ScalarField(g, domega, omega.basis),
            ScalarField(g, dut, u_t.basis),
            ScalarField(g, dth, theta_s.basis))


def step_rk4_vorticity(omega: ScalarField, u_t: ScalarField,
                       theta_s: ScalarField, params: Params, dt: float):
    """One RK4 step of the (omega, u_T, theta_S) triple.  It solves the flow
    of the primitive stepper through different discrete operators, so the
    two trajectories agree to discretization accuracy, not bitwise."""
    g = omega.grid
    bases = (omega.basis, u_t.basis, theta_s.basis)

    def f(t, y):
        fields = [ScalarField(g, v, b) for v, b in zip(y, bases)]
        return tuple(o.values for o in rhs_vorticity(*fields, params))

    y1 = _rk4_arrays((omega.values, u_t.values, theta_s.values), f, 0.0, dt)
    return tuple(ScalarField(g, v, b) for v, b in zip(y1, bases))


# -- the value shells, the l2 norm and the CSV reader --------------------------

def curl(v: VectorField) -> ScalarField:
    """Scalar curl d_x v_z - d_z v_x (the vorticity operator), by
    `curl_modes`; a velocity field's components are in (VX_BASIS,
    VZ_BASIS)."""
    g = v.grid
    c, basis = curl_modes(g, to_modes(g, v.x.values, VX_BASIS),
                          to_modes(g, v.z.values, VZ_BASIS))
    return ScalarField(g, from_modes(g, c, basis), basis)


def leray_project(v: VectorField) -> VectorField:
    """The Leray projection of a velocity field, by `project_values`."""
    return vector_field(v.grid, *project_values(v.grid, v.x.values,
                                                v.z.values))


def l2(obj) -> float:
    return norm(obj, NormSpec(0, 2))


def path_times(path) -> np.ndarray:
    """The grid times t_0 = 0, ..., t_n of a `WienerPath`."""
    return path.dt * np.arange(path.n_steps + 1)


def _parse_row(line: str, lineno: int) -> DiagnosticsRecord:
    parts = [p.strip() for p in line.split(",")]
    if len(parts) != len(_FIELDS):
        raise DiagnosticsFormatError(
            f"row at line {lineno} has {len(parts)} fields, "
            f"expected {len(_FIELDS)}")
    try:
        vals = [None if p == "" else float(p) for p in parts]
    except ValueError as err:
        raise DiagnosticsFormatError(
            f"row at line {lineno} has a non-numeric field: {err}") from None
    return DiagnosticsRecord(*vals)


def read_diagnostics(path) -> list[DiagnosticsRecord]:
    """The rows of a diagnostics CSV, its header checked first."""
    with open(path, "r", encoding="ascii") as fh:
        _check_header(fh, path)
        return [_parse_row(line.rstrip("\n"), i)
                for i, line in enumerate(fh, start=2) if line.strip()]


def stopping_monitor(times, values, kind: str,
                     threshold: float) -> StoppingRecord:
    """Batch first-crossing scan of a recorded series (the oracle form)."""
    if kind not in _KINDS:
        raise ConfigError(f"unknown monitor kind {kind!r}")
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ConfigError("times and values must have matching shapes")
    for t, v in zip(times, values):
        if v >= threshold:
            return StoppingRecord(kind, float(threshold), True, float(t),
                                  float(v))
    peak = float(values.max()) if values.size else 0.0
    return StoppingRecord(kind, float(threshold), False, None, peak)


def read_stopping_record(path) -> StoppingRecord:
    with open(path, "r", encoding="ascii") as fh:
        kv = dict((k.strip(), v.strip()) for k, _, v in
                  (line.partition("=") for line in fh if "=" in line))
    t = kv.get("trigger_time")
    return StoppingRecord(kv["kind"], float(kv["threshold"]),
                          kv["triggered"] == "yes",
                          None if t is None else float(t),
                          float(kv["trigger_value"]))


# ---------------------------------------------------------------------------
# per-geometry operator oracles: each geometry's tables and bodies written
# out separately, as the package had them before the grid owned the
# coefficient layout
# ---------------------------------------------------------------------------

class OracleTables:
    """Torus: kx, kz and the first-derivative kx_diff, kz_diff over the
    rfft2 half spectrum.  Square: sine and cosine wavenumbers per axis."""

    def __init__(self, grid):
        self.nx, self.nz = grid.nx, grid.nz
        if grid.geometry is Geometry.TORUS:
            self.modes_x = np.arange(grid.nx // 2 + 1)
            self.modes_z = np.rint(sfft.fftfreq(grid.nz) * grid.nz).astype(int)
            self.kx = 2.0 * np.pi * self.modes_x / grid.lx
            self.kz = 2.0 * np.pi * self.modes_z / grid.lz
            self.kx_diff = np.where(self.modes_x == grid.nx // 2, 0.0,
                                    self.kx)
            self.kz_diff = np.where(self.modes_z == -grid.nz // 2, 0.0,
                                    self.kz)
        self.kx_sin = np.pi * np.arange(1, grid.nx + 1) / grid.lx
        self.kz_sin = np.pi * np.arange(1, grid.nz + 1) / grid.lz
        self.kx_cos = np.pi * np.arange(grid.nx) / grid.lx
        self.kz_cos = np.pi * np.arange(grid.nz) / grid.lz

    def keep_1d(self, axis: str, parity: str) -> np.ndarray:
        n = self.nx if axis == "x" else self.nz
        slots = np.arange(n)
        modes = slots + 1 if parity == SIN else slots
        return modes <= n / 3.0


def oracle_torus_project_modes(t: OracleTables, cx, cz):
    kx = t.kx_diff[None, :]
    kz = t.kz_diff[:, None]
    k2 = kx ** 2 + kz ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(k2 > 0, 1.0 / k2, 0.0)
    dot = (kx * cx + kz * cz) * inv
    return cx - kx * dot, cz - kz * dot


def oracle_square_project_modes(t: OracleTables, a, b):
    nx, nz = t.nx, t.nz
    kxs, kzs = t.kx_sin, t.kz_sin
    kxc, kzc = t.kx_cos, t.kz_cos

    d = np.zeros((nz, nx))
    d[:, 1:] += kxc[1:][None, :] * a[:, :-1]       # d_x vx -> cos-cos
    d[1:, :] += kzc[1:][:, None] * b[:-1, :]       # d_z vz -> cos-cos

    k2 = kxc[None, :] ** 2 + kzc[:, None] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(k2 > 0, -d / k2, 0.0)       # laplacian(phi) = div v

    gx = np.zeros_like(a)
    gx[:, :-1] = -kxs[:-1][None, :] * phi[:, 1:]   # d_x phi in vx basis
    gz = np.zeros_like(b)
    gz[:-1, :] = -kzs[:-1][:, None] * phi[1:, :]   # d_z phi in vz basis
    return a - gx, b - gz


def oracle_project_values(grid, x_values, z_values):
    t = OracleTables(grid)
    if grid.geometry is Geometry.TORUS:
        px, pz = oracle_torus_project_modes(
            t, to_modes(grid, x_values, None), to_modes(grid, z_values, None))
        return from_modes(grid, px, None), from_modes(grid, pz, None)
    pa, pb = oracle_square_project_modes(
        t, to_modes(grid, x_values, VX_BASIS), to_modes(grid, z_values,
                                                       VZ_BASIS))
    return from_modes(grid, pa, VX_BASIS), from_modes(grid, pb, VZ_BASIS)


def oracle_velocity_from_vorticity(grid, omega_values):
    """(u_x, u_z) value arrays of grad-perp(laplacian^-1 omega)."""
    t = OracleTables(grid)
    if grid.geometry is Geometry.TORUS:
        c = to_modes(grid, omega_values, None)
        k2 = t.kx[None, :] ** 2 + t.kz[:, None] ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            psi = np.where(k2 > 0, -c / k2, 0.0)
        ux = -psi * (1j * t.kz_diff[:, None]) ** 1
        uz = psi * (1j * t.kx_diff[None, :]) ** 1
        return from_modes(grid, ux, None), from_modes(grid, uz, None)
    c = to_modes(grid, omega_values, (SIN, SIN))
    k2 = t.kx_sin[None, :] ** 2 + t.kz_sin[:, None] ** 2
    psi = -c / k2
    # d/dz of a sine-z mode m is +k_m times cosine-z mode m: slot m-1 -> m
    ux = np.zeros_like(psi)
    ux[1:, :] = t.kz_cos[1:][:, None] * (-psi)[:-1, :]
    uz = np.zeros_like(psi)
    uz[:, 1:] = t.kx_cos[1:][None, :] * psi[:, :-1]
    return from_modes(grid, ux, VX_BASIS), from_modes(grid, uz, VZ_BASIS)


def oracle_k2(grid, basis):
    t = OracleTables(grid)
    if grid.geometry is Geometry.TORUS:
        return t.kx[None, :] ** 2 + t.kz[:, None] ** 2
    kx = t.kx_sin if basis[0] == SIN else t.kx_cos
    kz = t.kz_sin if basis[1] == SIN else t.kz_cos
    return kx[None, :] ** 2 + kz[:, None] ** 2


def torus_scalar_values_oracle(grid, rng, max_mode: int, amplitude: float,
                               basis=None):
    """The torus draw of `state.random_scalar_values` as numpy.fft made it:
    the full-spectrum box of fftfreq modes, inverted by ifft2."""
    coef = np.zeros((grid.nz, grid.nx), dtype=complex)
    mx = np.rint(np.fft.fftfreq(grid.nx) * grid.nx).astype(int)
    mz = np.rint(np.fft.fftfreq(grid.nz) * grid.nz).astype(int)
    box = ((np.abs(mz)[:, None] <= max_mode)
           & (np.abs(mx)[None, :] <= max_mode))
    box[0, 0] = False
    coef[box] = rng.standard_normal(box.sum()) + 1j * rng.standard_normal(box.sum())
    vals = np.real(np.fft.ifft2(coef))
    peak = np.max(np.abs(vals))
    return vals * (amplitude / peak) if peak > 0 else vals


def oracle_gaussian_lowpass(grid, values, basis, j: float):
    coef = to_modes(grid, values, basis) * np.exp(
        -oracle_k2(grid, basis) / float(j) ** 2)
    return from_modes(grid, coef, basis)


def oracle_dealias(grid, values, basis):
    t = OracleTables(grid)
    if grid.geometry is Geometry.TORUS:
        keep = ((np.abs(t.modes_z) <= grid.nz / 3.0)[:, None]
                & (np.abs(t.modes_x) <= grid.nx / 3.0)[None, :])
    else:
        keep = (t.keep_1d("z", basis[1])[:, None]
                & t.keep_1d("x", basis[0])[None, :])
    return from_modes(grid, to_modes(grid, values, basis) * keep, basis)


# -- the path-by-path regularity loop -----------------------------------------

def serial_mc_global(grid, params, alpha, r, amplitude, n_paths, horizon, dt,
                     seed, c_tilde=1.0, data_seed=0, max_mode=2,
                     spec=ZKP_DEFAULT):
    """`mc_global_regularity` one path at a time, every state's norms taken
    afresh: per path (amplitude record, GBM record, diverged, bounded)."""
    n_steps = int(round(horizon / dt))
    raw = random_state(grid, seed=data_seed, max_mode=max_mode, amplitude=1.0)
    data = scale_state(raw, amplitude / norm(raw, spec))
    amp_threshold = abs(alpha) / (8.0 * c_tilde)
    norm_bound = abs(alpha) / (32.0 * c_tilde)
    mu = -(alpha * alpha) / 32.0
    out = []
    for idx in range(n_paths):
        inc = _path_rng(seed, idx).standard_normal(n_steps) * math.sqrt(dt)
        w = np.zeros(n_steps + 1)
        np.cumsum(inc, out=w[1:])
        amp = OnlineMonitor(AMPLITUDE_THRESHOLD, amp_threshold)
        gbm = OnlineMonitor(GBM_THRESHOLD, r)
        state = transform_forward(data, alpha, 0.0)
        diverged, bounded = False, True
        for k in range(n_steps + 1):
            if k:
                try:
                    state = step_transformed(state, params, dt, alpha,
                                             w[k - 1], w[k])
                except DivergedError:
                    diverged = True
                    break
            t_k = k * dt
            parts = state_component_norms(state, spec)
            if bounded and combine(parts, spec.p) > norm_bound:
                bounded = False
            amp.update(t_k, 1.0 + sum(parts))
            if gbm.update(t_k, math.exp(alpha * w[k] + mu * t_k)):
                break
        out.append((amp.record(), gbm.record(), diverged, bounded))
    return out


def serial_strong_convergence(grid, params, state0, alpha, horizon,
                              coarse_dt, levels=4, n_paths=16, seed=0):
    """`strong_convergence_study` one path at a time, each level's EM run
    and the finest-level transformed reference as 2-D solves: the
    (entries, slope) pair."""
    n_coarse = int(round(horizon / coarse_dt))
    if alpha == 0.0:
        n_paths = 1
    model = LinearMultiplicative(alpha=alpha)

    def run_em(pth):
        s = state0
        for i in range(pth.n_steps):
            s = step_em(s, params, pth.dt, pth.increments[0, i], model)
        return s

    def run_transform(pth):
        w = pth.w_series()
        s = transform_forward(state0, alpha, 0.0)
        for i in range(pth.n_steps):
            s = step_transformed(s, params, pth.dt, alpha, w[i], w[i + 1])
        return transform_backward(s, alpha, w[-1])

    sq_err = np.zeros(levels)
    for idx in range(n_paths):
        path_seed = int(np.random.SeedSequence([seed, idx]).generate_state(1)[0])
        paths = [sample_wiener(coarse_dt, n_coarse, 1, seed=path_seed)]
        for _ in range(levels - 1):
            paths.append(refine_path(paths[-1]))
        ref = run_transform(paths[-1])
        for lev, pth in enumerate(paths):
            diff = sum(float(np.sum((a - b) ** 2)) for a, b in
                       zip(run_em(pth).values, ref.values))
            sq_err[lev] += diff * grid.cell_area
    rms = np.sqrt(sq_err / n_paths)
    dts = np.array([coarse_dt / 2 ** k for k in range(levels)])
    entries = tuple((float(d), float(e)) for d, e in zip(dts, rms))
    if np.all(rms == 0.0):
        return entries, None
    return entries, float(np.polyfit(np.log(dts), np.log(rms), 1)[0])


# -- the allocating hitting-law path loops --------------------------------------

def path_hits_oracle(rng, alpha: float, log_r: float, n_steps: int,
                     dt: float):
    """Does max over the discrete grid of alpha W - (alpha^2/32) t reach
    log_r?  Draws every step, in growing chunks, and exits on the first
    crossing: (hit, number of chunks drawn), (True, 0) at the t = 0 grid
    point.  The per-step reference for the law the block kernel samples."""
    if 0.0 >= log_r:
        return True, 0
    mu = -(alpha * alpha) / 32.0
    sqrt_dt = math.sqrt(dt)
    w = 0.0
    done = 0
    chunk = 1024
    n_chunks = 0
    while done < n_steps:
        m = min(chunk, n_steps - done)
        cs = np.cumsum(rng.standard_normal(m) * sqrt_dt)
        series = alpha * (w + cs) + mu * dt * np.arange(done + 1, done + m + 1)
        n_chunks += 1
        if float(series.max()) >= log_r:
            return True, n_chunks
        w += float(cs[-1])
        done += m
        chunk = min(2 * chunk, 131072)
    return False, n_chunks


def block_ends_oracle(rng, alpha: float, log_r: float, n_steps: int,
                      dt: float):
    """The first level of the block kernel, every array allocated: the
    block lengths, the series at the block ends from 0 (one normal per
    block, all drawn at once) and which blocks are refined (the end
    reaches log_r, or the gaps below it give a bridge crossing probability
    exp(-2 g_a g_b / (alpha^2 L dt)) above 2^-54)."""
    lengths = np.array([min(_BLOCK, n_steps - start)
                        for start in range(0, n_steps, _BLOCK)])
    span = lengths * dt
    incr = (rng.standard_normal(lengths.size) * (alpha * np.sqrt(span))
            + -(alpha * alpha) / 32.0 * span)
    ends = np.concatenate(([0.0], np.cumsum(incr)))
    gaps = log_r - ends
    refine = ((gaps[:-1] * gaps[1:] < 27.0 * math.log(2.0) * alpha * alpha
               * span) | (gaps[1:] <= 0.0))
    return lengths, ends, refine


def bridge_oracle(rng, alpha: float, dt: float, a: float, b: float,
                  n: int) -> np.ndarray:
    """The n steps of a block from a to b: alpha sqrt(dt) times a discrete
    Brownian bridge of n normals, plus the line from a to b, the last step
    set to b."""
    cs = alpha * math.sqrt(dt) * np.cumsum(rng.standard_normal(n))
    x = a + cs + np.arange(1, n + 1) / n * (b - a - cs[-1])
    x[-1] = b
    return x


def block_crossing_oracle(rng, alpha: float, log_r: float, n_steps: int,
                          dt: float) -> tuple[bool, float]:
    """`_first_crossing` with every array allocated: the block ends at
    once, then the refined blocks in order from the same stream, each a
    bridge between its ends; (True, the series at the first step reaching
    log_r) or (False, the series at the last step)."""
    if log_r <= 0.0:
        return True, 0.0
    lengths, ends, refine = block_ends_oracle(rng, alpha, log_r, n_steps, dt)
    for j in np.flatnonzero(refine):
        x = bridge_oracle(rng, alpha, dt, float(ends[j]), float(ends[j + 1]),
                          int(lengths[j]))
        crossed = np.flatnonzero(x >= log_r)
        if crossed.size:
            return True, float(x[crossed[0]])
    return False, float(ends[-1])


def stopped_lambda_oracle(alpha: float, r: float, horizon: float, dt: float,
                          n_paths: int, seed: int) -> np.ndarray:
    """Lambda(horizon ^ hitting time)^{1/16} of each path (seed, index),
    from `block_crossing_oracle`."""
    n_steps = int(round(horizon / dt))
    return np.array([math.exp(block_crossing_oracle(
        _path_rng(seed, idx), alpha, math.log(r), n_steps, dt)[1] / 16.0)
        for idx in range(n_paths)])


def hitting_fraction_on_paths(paths, alpha: float, r: float) -> float:
    """Hitting frequency of Lambda on explicitly supplied paths (for
    refinement studies: a bridge-refined path can only raise its grid
    maximum)."""
    log_r = math.log(r)
    hits = 0
    for p in paths:
        series = (alpha * p.w_series()
                  - (alpha * alpha / 32.0) * path_times(p))
        if float(series.max()) >= log_r:
            hits += 1
    return hits / len(paths)


# -- the decay-rate fit ---------------------------------------------------------

def decay_rate_fit(times, values) -> float:
    """Exponential decay rate by least squares on log values."""
    return -float(np.polyfit(times, np.log(values), 1)[0])


# -- the value-space tendency and steppers ---------------------------------

def rhs_arrays_oracle(grid, params: Params, ux, uz, ut, th,
                      radius: float = math.inf, advect: float = 1.0,
                      source_scale: float = 1.0):
    """The tendency as value arrays, every stage transformed afresh: the
    three W^{1,inf} norms through norm(vector_field(...), W1INF) and
    norm(ScalarField(...), W1INF), then every field transformed again for
    its advection product, each product dealiased by a round trip and u_S
    projected by another (36 transforms at a finite radius, 24 at an
    infinite one)."""
    bx, bz, bt, bth = VX_BASIS, VZ_BASIS, UT_BASIS, THETA_BASIS
    c_us = c_ut = c_th = 1.0
    if math.isfinite(radius):
        c_us, c_ut, c_th = cutoffs_from_norms(
            (norm(vector_field(grid, ux, uz), W1INF),
             norm(ScalarField(grid, ut, bt), W1INF),
             norm(ScalarField(grid, th, bth), W1INF)), radius)
    adv = []
    for values, basis in ((ux, bx), (uz, bz), (ut, bt), (th, bth)):
        coef = to_modes(grid, values, basis)
        dx, _ = derivative_values(grid, coef, basis, 1, 0)
        dz, _ = derivative_values(grid, coef, basis, 0, 1)
        adv.append(dealias_values(grid, ux * dx + uz * dz, basis))
    adv_x, adv_z, adv_t, adv_s = adv

    buoy = params.buoyancy
    adv_us = advect * c_us
    rx = params.f * ut - adv_us * adv_x
    rz = buoy * th - adv_us * adv_z
    dux, duz = project_values(grid, rx, rz)

    dut = -(advect * c_ut) * adv_t - params.f * ux \
        - (source_scale * buoy * params.s) * grid.z_weight
    dth = -(advect * c_th) * adv_s - params.s * ut
    return dux, duz, dut, dth


def finish_step_oracle(prev: SimState, arrays, t_new: float) -> SimState:
    """The value-space step end: u_S projected by a round trip."""
    g = prev.grid
    ux, uz, ut, th = arrays
    px, pz = project_values(g, ux, uz)
    new = make_state(g, t_new, px, pz, ut, th)
    if not state_is_finite(new):
        raise DivergedError(f"non-finite state after step to t={t_new:.6g}",
                            last_state=prev)
    return new


def step_rk4_oracle(state: SimState, params: Params, dt: float,
                    radius: float = math.inf) -> SimState:
    """step_rk4 over value arrays, `rhs_arrays_oracle` for its stages."""
    g = state.grid

    def f(t, y):
        return rhs_arrays_oracle(g, params, *y, radius=radius)

    y1 = _rk4_arrays(state.values, f, state.t, dt)
    return finish_step_oracle(state, y1, state.t + dt)


def step_transformed_oracle(state: SimState, params: Params, dt: float,
                            alpha: float, w_start, w_end) -> SimState:
    """step_transformed over value arrays."""
    _check_dt(dt)
    _exp_guard(alpha, w_start)
    _exp_guard(alpha, w_end)
    g = state.grid
    t0 = state.t

    def f(t, y):
        w = w_start + (w_end - w_start) * ((t - t0) / dt)
        return rhs_arrays_oracle(g, params, *y, advect=_path_exp(alpha * w),
                                 source_scale=_path_exp(-alpha * w))

    y1 = _rk4_arrays(state.values, f, t0, dt)
    damp = math.exp(-0.5 * alpha * alpha * dt)
    return finish_step_oracle(state, tuple(damp * a for a in y1), t0 + dt)


def noise_values_oracle(model, state: SimState) -> list[tuple]:
    """Per-mode diffusion value arrays (dux, duz, dut, dth): alpha times
    the state's values, or each Nemytskii mode's gain-times-shape products
    with the u_S pair projected by a round trip."""
    if isinstance(model, LinearMultiplicative):
        return [tuple(model.alpha * a for a in state.values)]
    shape = state.u_t.values.shape
    g_us, g_ut, g_th = (_gain_values(g, state, shape) for g in model.gains)
    return [(*project_values(state.grid, g_us * sx.values, g_us * sz.values),
             g_ut * st_.values, g_th * th.values)
            for sx, sz, st_, th in model.shapes]


def step_em_oracle(state: SimState, params: Params, dt: float, dw, model,
                   radius: float = math.inf) -> SimState:
    """step_em over value arrays, `noise_values_oracle`'s arrays added as
    they are."""
    _check_dt(dt)
    y = state.values
    y1 = _axpy(y, rhs_arrays_oracle(state.grid, params, *y, radius=radius),
               dt)
    for w_j, d in zip(np.atleast_1d(np.asarray(dw, dtype=float)),
                      noise_values_oracle(model, state)):
        y1 = _axpy(y1, d, float(w_j))
    return finish_step_oracle(state, y1, state.t + dt)


def rhs_norm_oracle(grid, params: Params, state: SimState, radius: float):
    """The coefficient-space first stage at `state`, its cut-offs through
    state_component_norms(state, W1INF): the tendency's coefficient
    arrays.  u_S's advection is the projected Lamb vector omega (-u_z, u_x),
    omega by `curl_modes`, while u_S lies in the 2/3 band (`_in_band`),
    else its u.grad products."""
    ux, uz, ut, th = state.values
    coefs = state.coefs
    c_us, c_ut, c_th = cutoffs_from_norms(
        state_component_norms(state, W1INF), radius)
    adv = []
    for (dx, dz), basis in zip(state.gradients, STATE_BASES):
        adv.append(to_modes(grid, ux * dx + uz * dz, basis)
                   * grid.keep(basis))
    if _in_band(grid, *coefs[:2]):
        om = from_modes(grid, *curl_modes(grid, *coefs[:2]))
        adv[:2] = [to_modes(grid, -om * uz, VX_BASIS) * grid.keep(VX_BASIS),
                   to_modes(grid, om * ux, VZ_BASIS) * grid.keep(VZ_BASIS)]
    adv_x, adv_z, adv_t, adv_s = adv
    cx, cz, ct, cth = coefs
    ct_th = (ct if grid.geometry is Geometry.TORUS
             else to_modes(grid, ut, THETA_BASIS))
    buoy = params.buoyancy
    dux, duz = _project_modes(grid, params.f * ct - c_us * adv_x,
                              buoy * cth - c_us * adv_z)
    dut = -c_ut * adv_t - params.f * cx
    dth = -c_th * adv_s
    if params.s:
        dut = dut - (buoy * params.s) * grid.z_weight_modes
        dth = dth - params.s * ct_th
    return dux, duz, dut, dth


# -- the quadrature W^{k,2} norm ------------------------------------------------

def quadrature_field_norm(components, spec):
    """`norms._field_norm` by quadrature for every spec: each multi-index's
    derivative values by one inverse transform, reduced by `_reduce` (40
    transforms per Z^{3,2} state norm); 2-D or stacked like `_field_norm`,
    whose name and signature it keeps so a test can patch it in."""
    grid = components[0].grid
    coefs = ([to_modes(grid, f.values, f.basis) for f in components]
             if spec.k else [])
    return _reduce(grid, ([f.values for f in components] if ax == az == 0
                          else [derivative_values(grid, c, f.basis, ax, az)[0]
                                for c, f in zip(coefs, components)]
                          for ax, az in _multi_indices(spec.k)), spec)
