"""Mode dispatch: integrate, monitor, checkpoint, and emit diagnostics.

Exit statuses are exhaustive: 0 completed, 2 stopped by a monitor (final
checkpoint plus a stopping record on disk), 3 diverged (last valid state
checkpointed).  Configuration problems raise before any stepping starts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

from . import experiments as experiments_mod
from .checkpoint import RunStamp, read_checkpoint, write_checkpoint
from .config import RunConfig, render_config, with_grid
from .diagnostics import _row_record
from .dynamics import cutoffs_from_norms, step_rk4
from .errors import ConfigError, DivergedError
from .runio import (_open_diagnostics, append_diagnostics, write_key_values,
                    write_stopping_record)
from .state import random_state
from .stochastic import (NORM_THRESHOLD, LinearMultiplicative, OnlineMonitor,
                         sample_wiener, step_em, step_transformed)

EXIT_COMPLETED = 0
EXIT_STOPPED = 2
EXIT_DIVERGED = 3

ECHO_FILE = "config.txt"
DIAG_FILE = "diagnostics.csv"
CHECKPOINT_FILE = "checkpoint.bin"
STOPPING_FILE = "stopping.txt"
SUMMARY_FILE = "summary.txt"


@dataclass(frozen=True)
class RunResult:
    status: int
    out_dir: str
    final_state: object = None
    stopping: object = None
    payload: object = None


def run(cfg: RunConfig) -> RunResult:
    runner = _RUNNERS.get(cfg.mode)
    if runner is None:
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_echo(cfg)
    return runner(cfg)


def _write_echo(cfg: RunConfig):
    with open(os.path.join(cfg.out_dir, ECHO_FILE), "w",
              encoding="ascii") as fh:
        fh.write(render_config(cfg))


def _initial_state(cfg, grid, params):
    # (state, step index): a checkpoint of a run of the same mode, seed, dt
    # and parameters, or the configured data at step 0
    if cfg.restart is not None:
        state, ck_params, ck_alpha, stamp = read_checkpoint(
            cfg.restart, expect_grid=grid)
        for name, want, got in (("mode", cfg.mode, stamp.mode),
                                ("seed", cfg.seed, stamp.seed),
                                ("dt", cfg.dt, stamp.dt),
                                ("f", params.f, ck_params.f),
                                ("g", params.g, ck_params.g),
                                ("theta0", params.theta0, ck_params.theta0),
                                ("s", params.s, ck_params.s),
                                ("alpha", cfg.alpha, ck_alpha)):
            if want != got:
                raise ConfigError(
                    f"restart mismatch: checkpoint has {name} = {got!r}, "
                    f"config says {want!r}")
        return state, stamp.step
    return random_state(grid, seed=cfg.data_seed, max_mode=cfg.max_mode,
                        amplitude=cfg.amplitude), 0


def _run_sim(cfg: RunConfig) -> RunResult:
    grid = cfg.grid()
    params = cfg.params
    loop = cfg.loop()
    truncated = math.isfinite(cfg.radius)
    diag_path = os.path.join(cfg.out_dir, DIAG_FILE)
    ck_path = os.path.join(cfg.out_dir, CHECKPOINT_FILE)
    stop_path = os.path.join(cfg.out_dir, STOPPING_FILE)

    state, k0 = _initial_state(cfg, grid, params)
    n = cfg.n_steps()
    for stale in (diag_path, stop_path):
        if os.path.exists(stale):
            os.remove(stale)  # a re-run replaces, never extends, its outputs

    w = None
    if cfg.mode == "sim-det":
        def advance(s, i):
            return step_rk4(s, params, cfg.dt, cfg.radius)
    else:
        # a restart at step k0 continues the run's own Wiener path: a longer
        # path from the same seed begins with the shorter one's increments
        path = sample_wiener(cfg.dt, k0 + n, 1, cfg.seed)
        inc = path.increments[:, k0:]
        w = path.w_series()[k0:]
        if cfg.mode == "sim-sde":
            model = LinearMultiplicative(cfg.alpha)

            def advance(s, i):
                return step_em(s, params, cfg.dt, inc[:, i], model,
                               cfg.radius)
        else:
            # v = e^{-alpha W} u is u itself at W(0) = 0, and a checkpoint
            # of this mode already holds v
            def advance(s, i):
                return step_transformed(s, params, cfg.dt, cfg.alpha,
                                        float(w[i]), float(w[i + 1]))
    monitor = OnlineMonitor(NORM_THRESHOLD, cfg.radius) if truncated else None
    row_cutoffs = truncated and cfg.mode != "sim-transform"

    mu = -cfg.alpha * cfg.alpha / 32.0
    diag = None  # the CSV, opened once, at the first row

    def emit(s, step, w1inf):
        nonlocal diag
        lam = w_t = None
        if w is not None:
            w_t = float(w[step])
            lam = math.exp(cfg.alpha * w_t + mu * s.t)
        cut = (cutoffs_from_norms(w1inf, cfg.radius) if row_cutoffs
               else (None, None, None))
        rec = _row_record(s, params, loop, cfg.norm_spec, w1inf, lam, w_t, cut)
        if diag is None:
            diag = _open_diagnostics(diag_path)
        append_diagnostics(rec, diag)

    def observe(s, step, row_due):
        # the state's W^{1,inf} norms feed the row and the monitor (stopping
        # at the first crossing of the cutoff radius) and leave the state
        # holding them, and the gradients, that its next step's first stage
        # takes; a state that stops the run gets its row
        if not row_due and monitor is None:
            return False
        w1inf = s.w1inf
        stop = monitor is not None and monitor.update(s.t, max(w1inf))
        if row_due or stop:
            emit(s, step, w1inf)
        return stop

    def checkpoint(s, step):
        stamp = RunStamp(cfg.mode, cfg.seed, cfg.dt, k0 + step,
                         0.0 if w is None else float(w[step]))
        write_checkpoint(s, params, ck_path, cfg.alpha, stamp)

    def finish_stopped(s, step):
        checkpoint(s, step)
        rec = monitor.record()
        write_stopping_record(rec, stop_path)
        return RunResult(EXIT_STOPPED, cfg.out_dir, s, stopping=rec)

    try:
        stop = observe(state, 0, True)
        if stop:
            return finish_stopped(state, 0)

        for i in range(n):
            try:
                state = advance(state, i)
            except DivergedError:
                # the state before the failed step is the last valid one
                checkpoint(state, i)
                return RunResult(EXIT_DIVERGED, cfg.out_dir, state)
            stop = observe(state, i + 1,
                           (i + 1) % cfg.stride == 0 or i + 1 == n)
            if stop:
                return finish_stopped(state, i + 1)

        checkpoint(state, n)
        return RunResult(EXIT_COMPLETED, cfg.out_dir, state)
    finally:
        if diag is not None:
            diag.close()


def _run_mc_hitting(cfg: RunConfig) -> RunResult:
    summary = experiments_mod.mc_hitting(cfg.alpha, cfg.threshold,
                                         cfg.t_final, cfg.dt, cfg.n_paths,
                                         cfg.seed)
    oracle = experiments_mod.gbm_max_oracle(cfg.alpha, cfg.threshold,
                                            cfg.t_final)
    limit = experiments_mod.gbm_max_oracle(cfg.alpha, cfg.threshold,
                                           math.inf)
    write_key_values([
        ("n_paths", summary.n_paths), ("hits", summary.hits),
        ("fraction", summary.fraction),
        ("standard_error", summary.standard_error),
        ("oracle", oracle), ("oracle_infinite_horizon", limit),
        ("alpha", summary.alpha), ("threshold", summary.r),
        ("t_final", summary.horizon), ("dt", summary.dt),
        ("seed", summary.seed),
    ], os.path.join(cfg.out_dir, SUMMARY_FILE))
    return RunResult(EXIT_COMPLETED, cfg.out_dir, payload=summary)


def _run_mc_global(cfg: RunConfig) -> RunResult:
    res = experiments_mod.mc_global_regularity(
        cfg.grid(), cfg.params, cfg.alpha, cfg.threshold, cfg.amplitude,
        cfg.n_paths, cfg.t_final, cfg.dt, cfg.seed, c_tilde=cfg.c_tilde,
        data_seed=cfg.data_seed, max_mode=cfg.max_mode,
        spec=cfg.norm_spec)
    budget = experiments_mod.amplitude_threshold(cfg.alpha, cfg.threshold,
                                                 cfg.c_tilde)
    write_key_values([
        ("n_paths", res.summary.n_paths),
        ("gbm_hits", res.summary.hits),
        ("gbm_fraction", res.summary.fraction),
        ("gbm_standard_error", res.summary.standard_error),
        ("regular_fraction", res.regular_fraction),
        ("bounded_fraction", res.bounded_fraction),
        ("n_diverged", res.n_diverged),
        ("amplitude", cfg.amplitude),
        ("amplitude_budget", budget),
        ("amplitude_ok", "yes" if res.amplitude_ok else "no"),
        ("alpha", cfg.alpha), ("threshold", cfg.threshold),
        ("c_tilde", cfg.c_tilde), ("seed", cfg.seed),
    ], os.path.join(cfg.out_dir, SUMMARY_FILE))
    def cols(rec):
        return ["1" if rec.triggered else "0",
                "" if rec.trigger_time is None else repr(rec.trigger_time),
                repr(rec.trigger_value)]

    lines = ["path, gbm_triggered, gbm_time, gbm_peak, amp_triggered, "
             "amp_time, amp_peak"]
    lines.extend(",".join([str(idx)] + cols(gr) + cols(ar)) for idx, (gr, ar)
                 in enumerate(zip(res.gbm_records, res.amplitude_records)))
    with open(os.path.join(cfg.out_dir, "paths.csv"), "w",
              encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return RunResult(EXIT_COMPLETED, cfg.out_dir, payload=res)


def _run_convergence(cfg: RunConfig) -> RunResult:
    grid = cfg.grid()
    state0 = random_state(grid, seed=cfg.data_seed, max_mode=cfg.max_mode,
                          amplitude=cfg.amplitude)
    res = experiments_mod.strong_convergence_study(
        grid, cfg.params, state0, cfg.alpha, cfg.t_final, cfg.dt,
        levels=cfg.levels, n_paths=cfg.n_paths, seed=cfg.seed)
    lines = ["level, dt, rms_error"]
    for lvl, (dt, err) in enumerate(res.entries):
        lines.append(f"{lvl},{dt!r},{err!r}")
    with open(os.path.join(cfg.out_dir, "convergence.csv"), "w",
              encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    write_key_values([
        ("slope", "none" if res.slope is None else res.slope),
        ("levels", cfg.levels), ("n_paths", res.n_paths),
        ("alpha", res.alpha), ("seed", cfg.seed),
    ], os.path.join(cfg.out_dir, SUMMARY_FILE))
    return RunResult(EXIT_COMPLETED, cfg.out_dir, payload=res)


def _run_diag(cfg: RunConfig) -> RunResult:
    expect = cfg.grid() if cfg.nx is not None else None
    state, params, alpha, _ = read_checkpoint(cfg.restart, expect_grid=expect)
    # the row uses the checkpoint's parameters, so the echo names them
    cfg = replace(cfg, f=params.f, g=params.g, theta0=params.theta0,
                  s=params.s, alpha=alpha)
    if expect is None:
        # the loop centre follows the checkpoint's domain
        cfg = with_grid(cfg, state.grid)
    _write_echo(cfg)
    rec = _row_record(state, params, cfg.loop(), cfg.norm_spec,
                      state.w1inf)
    with _open_diagnostics(os.path.join(cfg.out_dir, DIAG_FILE)) as fh:
        append_diagnostics(rec, fh)
    return RunResult(EXIT_COMPLETED, cfg.out_dir, state, payload=rec)


_RUNNERS = {"sim-det": _run_sim, "sim-sde": _run_sim,
            "sim-transform": _run_sim, "mc-hitting": _run_mc_hitting,
            "mc-global": _run_mc_global, "convergence": _run_convergence,
            "diag": _run_diag}
