"""Acceptance gate.

One test per stated criterion, numbered, at the stated tolerance, so a
verbose run reads as one pass/fail line per criterion.  Configurations are
frozen; the heavy ones (2, 3, 4) dominate the runtime of the suite.
"""

import math
import time

import numpy as np
import pytest

import slicelab as sl
from slicelab import experiments as ex
from slicelab import stochastic as st
from slicelab.diagnostics import (advect_loop, circle_loop, circulation,
                                  energy, generalized_enstrophy)
from slicelab.dynamics import (_rhs_arrays, cutoff, cutoff_factors,
                               rhs_truncated)
from slicelab.grid import (NEUMANN_BASIS, ScalarField, differentiate,
                           from_modes, vector_field)
from slicelab.incompressible import divergence, max_divergence
from slicelab.norms import W1INF, state_component_norms
from slicelab.state import STATE_BASES

from helpers import (l2, leray_project, state_max_abs_diff,
                     stopping_monitor)

PI = np.pi


@pytest.fixture(scope="module")
def tor32():
    return sl.make_grid("torus", 32, 32, 2 * PI, 2 * PI)


def _rand_vec(grid, rng):
    n = grid.nx
    return vector_field(grid, rng.standard_normal((n, n)),
                        rng.standard_normal((n, n)))


def test_criterion_01_projection_suite(tor64, sq64):
    t0 = time.monotonic()
    for g in (tor64, sq64):
        rng = np.random.default_rng(12)
        v = _rand_vec(g, rng)
        p = leray_project(v)
        scale = max(1.0, float(np.max(np.abs(p.x.values))))

        pp = leray_project(p)
        idem = max(np.max(np.abs(pp.x.values - p.x.values)),
                   np.max(np.abs(pp.z.values - p.z.values)))
        assert idem <= 1e-10 * scale, f"idempotence {idem:.2e}"

        resid_x = v.x.values - p.x.values
        resid_z = v.z.values - p.z.values
        dot = float(np.sum(resid_x * p.x.values + resid_z * p.z.values))
        dot *= (g.lx / g.nx) * (g.lz / g.nz)
        assert abs(dot) <= 1e-10 * max(1.0, l2(v) ** 2), \
            f"orthogonality {dot:.2e}"

        # gradient-kill: a pure gradient projects to (numerically) nothing.
        # The potential sits in the Neumann parity class so its gradient
        # lands in the velocity bases (integer wavenumbers fit both domains).
        x, z = g.x_mesh, g.z_mesh
        vals = np.zeros_like(x)
        for i, j, amp in ((1, 2, 0.7), (3, 1, -0.4), (2, 4, 0.25),
                          (0, 3, 0.5), (4, 0, -0.3)):
            vals += amp * np.cos(i * x) * np.cos(j * z)
        phi = ScalarField(g, vals, NEUMANN_BASIS)
        gx = differentiate(phi, "x")
        gz = differentiate(phi, "z")
        killed = leray_project(vector_field(g, gx.values, gz.values))
        gscale = max(np.max(np.abs(gx.values)), np.max(np.abs(gz.values)))
        kill = max(np.max(np.abs(killed.x.values)),
                   np.max(np.abs(killed.z.values)))
        assert kill <= 1e-10 * gscale, f"gradient-kill {kill:.2e}"

        assert max_divergence(p) <= 1e-10 * scale, "divergence-free"

        # swap identity: for solenoidal a, b the antisymmetric advection
        # combination (a.grad)b - (b.grad)a stays divergence-free
        a = sl.random_state(g, seed=3, max_mode=5, amplitude=1.0).u_s
        b = sl.random_state(g, seed=8, max_mode=5, amplitude=1.0).u_s

        def advect(u, w):
            parts = []
            for comp in (w.x, w.z):
                dx = differentiate(comp, "x")
                dz = differentiate(comp, "z")
                parts.append(u.x.values * dx.values
                             + u.z.values * dz.values)
            return vector_field(g, *parts)

        ab = advect(a, b)
        ba = advect(b, a)
        swap = vector_field(g, ab.x.values - ba.x.values,
                            ab.z.values - ba.z.values)
        sw_scale = max(1.0, l2(ab))
        assert l2(divergence(swap)) <= 1e-10 * sw_scale, "swap identity"
    assert time.monotonic() - t0 < 10.0, "criterion 1 runtime budget"


def test_criterion_02_square_conservation():
    t0 = time.monotonic()
    g = sl.make_grid("square", 128, 128, PI, PI)
    p = sl.Params(s=0.0)
    state = sl.random_state(g, seed=5, max_mode=3, amplitude=0.4)
    loop = circle_loop(PI / 2, PI / 2, 0.6, 256)
    dt, n = 5e-4, 2000

    e0 = energy(state, p)
    z0 = generalized_enstrophy(state, p, lambda q: q * q)
    c0 = circulation(state, p, loop)
    e_drift = z_drift = c_drift = 0.0
    for i in range(n):
        loop = advect_loop(loop, state.u_s, dt)
        state = sl.step_rk4(state, p, dt)
        if (i + 1) % 200 == 0:
            e_drift = max(e_drift, abs(energy(state, p) - e0) / abs(e0))
            z = generalized_enstrophy(state, p, lambda q: q * q)
            z_drift = max(z_drift, abs(z - z0) / abs(z0))
            c = circulation(state, p, loop)
            c_drift = max(c_drift, abs(c - c0) / abs(c0))
    elapsed = time.monotonic() - t0
    assert e_drift <= 1e-6, f"energy drift {e_drift:.3e}"
    assert z_drift <= 1e-4, f"enstrophy drift {z_drift:.3e}"
    assert c_drift <= 1e-3, f"circulation drift {c_drift:.3e}"
    assert elapsed < 300.0, f"criterion 2 runtime {elapsed:.0f}s"


def _analytic_state(grid):
    # entire functions whose spectra still reach the N=32 Nyquist at ~1e-6
    x, z = grid.x_mesh, grid.z_mesh
    e = np.exp(2.0 * np.sin(x) * np.sin(z))
    ux = -0.5 * np.sin(x) * np.cos(z) * e
    uz = 0.5 * np.cos(x) * np.sin(z) * e
    ut = 0.2 * np.exp(np.sin(2.0 * x) * np.sin(z))
    th = 0.2 * np.exp(np.cos(x) * np.sin(2.0 * z))
    return sl.make_state(grid, 0.0, ux, uz, ut, th)


def test_criterion_03_spectral_convergence():
    p = sl.Params(s=0.0)
    dt, n = 1e-3, 250
    solved = {}
    for nres in (32, 64, 256):
        g = sl.make_grid("torus", nres, nres, 2 * PI, 2 * PI)
        state = _analytic_state(g)
        for _ in range(n):
            state = sl.step_rk4(state, p, dt)
        solved[nres] = state
    errs = {}
    for nres in (32, 64):
        stride = 256 // nres
        errs[nres] = max(
            float(np.max(np.abs(a - b[::stride, ::stride])))
            for a, b in zip(solved[nres].values,
                            solved[256].values))
    drop = errs[32] / errs[64]
    assert drop >= 100.0, f"error drop {drop:.1f}x ({errs})"


def test_criterion_04_transform_equivalence_strong_order(tor64):
    state0 = sl.random_state(tor64, seed=3, max_mode=4, amplitude=0.25)
    res = ex.strong_convergence_study(tor64, sl.Params(s=0.0), state0,
                                      alpha=0.5, horizon=0.25,
                                      coarse_dt=1e-2, levels=4,
                                      n_paths=16, seed=2)
    dts = [dt for dt, _ in res.entries]
    assert dts == [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    assert 0.35 <= res.slope <= 0.65, f"slope {res.slope:.3f}"


def test_criterion_05_noise_induced_decay(tor64):
    alpha, dt, n = 6.0, 1e-3, 500
    p = sl.Params(s=0.0)
    path = st.sample_wiener(dt, n, 1, seed=17)
    w = path.w_series()
    state = st.transform_forward(
        sl.random_state(tor64, seed=3, max_mode=3, amplitude=0.01),
        alpha, 0.0)
    v0 = (l2(state.u_s) ** 2 + l2(state.u_t) ** 2
          + l2(state.theta_s) ** 2)
    bound = -alpha ** 2 / 4.0 + 8.0  # = -1
    worst = -math.inf
    for i in range(n):
        state = st.step_transformed(state, p, dt, alpha, w[i], w[i + 1])
        if (i + 1) % 25 == 0:
            v = (l2(state.u_s) ** 2 + l2(state.u_t) ** 2
                 + l2(state.theta_s) ** 2)
            slope = math.log(v / v0) / state.t
            worst = max(worst, slope)
            assert slope <= bound, f"log-slope {slope:.2f} at t={state.t}"
    assert worst <= bound


def test_criterion_06_hitting_law():
    t0 = time.monotonic()
    # (a) the infinite-horizon law is the exact power r^(-1/16)
    assert ex.gbm_max_oracle(1.0, 2.0 ** 16, math.inf) == 0.5
    for r in (2.0, 10.0, 2.0 ** 16):
        assert ex.gbm_max_oracle(1.0, r, math.inf) == r ** (-1.0 / 16.0)
    # (b) MC frequency vs the finite-horizon closed form
    s = ex.mc_hitting(1.0, 2.0, 1e4, 0.01, 10000, seed=1)
    oracle = ex.gbm_max_oracle(1.0, 2.0, 1e4)
    dev = abs(s.fraction - oracle)
    assert dev <= 3.0 * s.standard_error, \
        f"{dev:.4f} vs 3se={3 * s.standard_error:.4f}"
    # (c) optional stopping: the stopped sixteenth root is mean one
    mean, se = ex.stopped_lambda_mean(1.0, 2.0, 1.0, 0.01, 100000, seed=5)
    assert abs(mean - 1.0) <= 3.0 * se, f"{mean} +- {se}"
    assert time.monotonic() - t0 < 60.0, "criterion 6 runtime budget"


def test_criterion_07_truncated_system(tor32, tmp_path):
    p = sl.Params(s=0.0)
    dt, n = 5e-3, 40
    state = sl.random_state(tor32, seed=7, max_mode=3, amplitude=0.3)
    peak = max(state_component_norms(state, W1INF))
    plain = [state]
    for _ in range(n):
        plain.append(sl.step_rk4(plain[-1], p, dt))
        peak = max(peak, max(state_component_norms(plain[-1], W1INF)))

    # generous radius: every cutoff factor is exactly 1, trajectories agree
    radius = 10.0 * peak
    trunc = plain[0]
    for i in range(n):
        trunc = sl.step_rk4(trunc, p, dt, radius=radius)
        assert state_max_abs_diff(trunc, plain[i + 1]) <= 1e-12

    # tiny radius through the runner: monitor fires, exit status 2
    out = tmp_path / "stopped"
    cfg = sl.parse_config(
        f"[grid]\nnx = 32\n[params]\ns = 0\n[noise]\nalpha = 0.4\n"
        f"[time]\ndt = 5e-3\nt_final = 0.05\n[monitor]\nradius = 1e-6\n"
        f"[data]\namplitude = 0.3\nseed = 7\nmax_mode = 3\n"
        f"[output]\nout_dir = {out}\n", mode="sim-sde")
    assert sl.run(cfg).status == 2
    assert (out / "stopping.txt").exists()

    # beyond twice the radius the advection terms are exactly zero
    tiny = peak / 4.0
    assert cutoff(2.0 * tiny, tiny) == 0.0
    assert cutoff_factors(state, tiny) == (0.0, 0.0, 0.0)
    got = rhs_truncated(state, p, tiny)
    y = state.values
    linear = [from_modes(tor32, c, b) for c, b in zip(_rhs_arrays(
        tor32, p, *state.coefs, advect=0.0, values=y), STATE_BASES)]
    for a, b in zip(got, linear):
        assert np.array_equal(a, b)


def test_criterion_08_monitor_equals_linear_scan():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(5, 200))
        times = np.cumsum(rng.uniform(0.01, 0.1, size=n))
        values = np.abs(np.cumsum(rng.standard_normal(n))) * 0.3
        threshold = float(rng.uniform(0.2, 3.0))
        kind = st.NORM_THRESHOLD
        batch = stopping_monitor(times, values, kind, threshold)
        online = st.OnlineMonitor(kind, threshold)
        for t, v in zip(times, values):
            online.update(t, v)
        assert online.record() == batch


def test_criterion_09_mollifier_study(tor32):
    p = sl.Params(s=0.0)
    generic = sl.random_state(tor32, seed=9, max_mode=6, amplitude=0.4)
    table = ex.mollifier_cauchy_study(generic, p, [8, 16, 32, 64],
                                      horizon=0.25, dt=5e-3)
    ds = [d for _, d in table]
    assert all(b < a for a, b in zip(ds, ds[1:])), f"not decreasing: {ds}"

    n = tor32.nx
    flat = sl.make_state(tor32, 0.0, np.zeros((n, n)), np.zeros((n, n)),
                         np.full((n, n), 0.4), np.full((n, n), -0.1))
    table = ex.mollifier_cauchy_study(flat, p, [8, 16, 32, 64],
                                      horizon=0.1, dt=5e-3)
    assert all(d == 0.0 for _, d in table), "band-limited distances"


def test_criterion_10_reproducibility_and_formats(tor32, tmp_path):
    # checkpoint round trip is bit-exact
    state = sl.random_state(tor32, seed=4, max_mode=4, amplitude=0.6)
    p = sl.Params(f=1.5, g=0.8, theta0=2.0, s=0.0)
    ck = tmp_path / "c.bin"
    sl.write_checkpoint(state, p, ck, alpha=0.3)
    back, p2, a2, _ = sl.read_checkpoint(ck)
    assert state_max_abs_diff(state, back) == 0.0
    assert back.t == state.t and p2 == p and a2 == 0.3

    # restart equivalence on the same dt grid
    def sim(out, t_final, extra=""):
        cfg = sl.parse_config(
            f"[grid]\nnx = 32\n[params]\ns = 0\n"
            f"[time]\ndt = 5e-3\nt_final = {t_final}\n{extra}"
            f"[data]\namplitude = 0.3\nseed = 7\n"
            f"[output]\nout_dir = {out}\n", mode="sim-det")
        return sl.run(cfg)
    sim(tmp_path / "full", "0.1")
    sim(tmp_path / "half", "0.05")
    sim(tmp_path / "rest", "0.05",
        extra=f"[time]\nrestart = {tmp_path / 'half' / 'checkpoint.bin'}\n")
    full_rows = (tmp_path / "full" / "diagnostics.csv").read_text() \
        .splitlines()
    rest_rows = (tmp_path / "rest" / "diagnostics.csv").read_text() \
        .splitlines()
    assert rest_rows[1:] == full_rows[11:]
    assert (tmp_path / "full" / "checkpoint.bin").read_bytes() == \
        (tmp_path / "rest" / "checkpoint.bin").read_bytes()

    # identical seeds give byte-identical outputs; the MC harness draws
    # per-path streams, so totals cannot depend on scheduling
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = sl.parse_config(
            f"[grid]\nnx = 32\n[params]\ns = 0\n[noise]\nalpha = 0.7\n"
            f"[time]\ndt = 5e-3\nt_final = 0.05\n"
            f"[data]\namplitude = 0.3\nseed = 7\n"
            f"[output]\nout_dir = {out}\n", mode="sim-sde")
        sl.run(cfg)
        outs.append((out / "diagnostics.csv").read_bytes())
    assert outs[0] == outs[1]
    assert ex.mc_hitting(1.0, 2.0, 50.0, 0.1, 200, seed=9) == \
        ex.mc_hitting(1.0, 2.0, 50.0, 0.1, 200, seed=9)
