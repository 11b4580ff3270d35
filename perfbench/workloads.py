"""The four workloads: slicelab configs made from a seed, and output checks.

Every check compares a run's files with properties the method must have or
with numbers computed here apart from the program (a closed form, a
regenerated Brownian path), never with a stored copy of earlier output.
A check returns ``(operations, failed, reasons)`` for one CLI run.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# a statistical check that fails on correct output only once in ~2e6 seeds,
# so that the failed share of a run never depends on the seed
MC_Z = 5.0
# the same for the chi-square test of the Wiener increments
CHI2_FALSE_ALARM = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    config: Callable[[int, bool], dict]  # (seed, small) -> {section: {k: v}}
    check: Callable[[dict, str, int], tuple]  # (config, out_dir, status)


def render(cfg: dict) -> str:
    lines = []
    for section, keys in cfg.items():
        if section:
            lines.append(f"[{section}]")
        lines.extend(f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
                     for k, v in keys.items())
    return "\n".join(lines) + "\n"


def _steps(cfg) -> int:
    return int(round(cfg["time"]["t_final"] / cfg["time"]["dt"]))


# ---------------------------------------------------------------------------
# output readers
# ---------------------------------------------------------------------------

def read_csv(path) -> list[dict]:
    """Rows of a slicelab CSV as {column: float or None}."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh, skipinitialspace=True))
    head = [h.strip() for h in rows[0]]
    return [{k: (float(v) if v.strip() else None) for k, v in zip(head, r)}
            for r in rows[1:] if r]


def read_summary(path) -> dict:
    out = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _close(a, b, rel=1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


class _Reasons(list):
    def need(self, ok, what):
        if not ok:
            self.append(what)
        return ok


def _rows_or_fail(out_dir, status, reasons):
    reasons.need(status == 0, f"exit status {status}, expected 0")
    path = os.path.join(out_dir, "diagnostics.csv")
    if not reasons.need(os.path.exists(path), "no diagnostics.csv"):
        return []
    return read_csv(path)


def _check_rows_common(cfg, rows, stride, reasons):
    dt = cfg["time"]["dt"]
    n = _steps(cfg)
    want = [k * stride for k in range(n // stride + 1)]
    if want[-1] != n:
        want.append(n)
    if not reasons.need(len(rows) == len(want),
                        f"{len(rows)} rows, expected {len(want)}"):
        return
    for k, row in zip(want, rows):
        reasons.need(abs(row["t"] - k * dt) <= 1e-9 * dt,
                     f"row t={row['t']!r} is not step {k} * dt")
        reasons.need(all(math.isfinite(v) for v in row.values()
                         if v is not None), f"non-finite value at step {k}")
        scale = max(1.0, row["l2_us"])
        reasons.need(row["max_div"] <= 1e-10 * scale,
                     f"max_div {row['max_div']:.3g} at step {k}")


# ---------------------------------------------------------------------------
# sim-det-square
# ---------------------------------------------------------------------------

def _det_config(seed, small):
    nx, steps = (32, 5) if small else (128, 25)
    dt = 5e-4
    return {
        "grid": {"geometry": "square", "nx": nx},
        "params": {"s": 0.0},
        "time": {"dt": dt, "t_final": steps * dt},
        # far above the W^{1,inf} norms of this data: every cut-off is 1
        "monitor": {"radius": 50.0},
        "data": {"seed": seed, "amplitude": 0.4, "max_mode": 3},
        "output": {"stride": 1, "loop_radius": 0.6},
    }


def check_sim_det(cfg, out_dir, status):
    reasons = _Reasons()
    rows = _rows_or_fail(out_dir, status, reasons)
    _check_rows_common(cfg, rows, 1, reasons)
    if rows:
        e0 = rows[0]["energy"]
        drift = max(abs(r["energy"] - e0) for r in rows) / abs(e0)
        # the free-slip square with s = 0 conserves energy; 1e-6 is the
        # bound of the conservation criterion in tests/test_acceptance.py
        reasons.need(drift <= 1e-6, f"relative energy drift {drift:.3g}")
        for r in rows:
            cut = (r["cutoff_us"], r["cutoff_ut"], r["cutoff_th"])
            reasons.need(cut == (1.0, 1.0, 1.0),
                         f"cut-offs {cut} at t={r['t']!r}, expected 1.0")
    reasons.need(os.path.exists(os.path.join(out_dir, "checkpoint.bin")),
                 "no checkpoint.bin")
    return 1, int(bool(reasons)), list(reasons)


# ---------------------------------------------------------------------------
# sim-sde-torus
# ---------------------------------------------------------------------------

def _sde_config(seed, small):
    nx, steps, stride = (16, 20, 4) if small else (256, 48, 24)
    dt = 1e-3
    return {
        "": {"seed": seed},
        "grid": {"geometry": "torus", "nx": nx},
        "params": {"s": 0.0},
        "noise": {"alpha": 0.5},
        "time": {"dt": dt, "t_final": steps * dt},
        "data": {"seed": seed, "amplitude": 0.25, "max_mode": 4},
        "output": {"stride": stride},
    }


def _chi2_tails(q: float, m: int) -> tuple[float, float]:
    from scipy.stats import chi2
    return float(chi2.cdf(q, m)), float(chi2.sf(q, m))


def wiener_path_of(seq, dt, n_steps):
    """W on a uniform step grid, W(0) = 0, from N(0, dt) increments drawn
    from the stream of the seed sequence ``seq``."""
    rng = np.random.default_rng(seq)
    w = np.zeros(n_steps + 1)
    np.cumsum(rng.standard_normal(n_steps) * math.sqrt(dt), out=w[1:])
    return w


def check_sim_sde(cfg, out_dir, status):
    reasons = _Reasons()
    rows = _rows_or_fail(out_dir, status, reasons)
    stride = cfg["output"]["stride"]
    _check_rows_common(cfg, rows, stride, reasons)
    alpha, dt = cfg["noise"]["alpha"], cfg["time"]["dt"]
    # sim-* modes draw their path from the stream keyed by (seed, 0)
    path = wiener_path_of(np.random.SeedSequence([cfg[""]["seed"], 0]), dt,
                          _steps(cfg))
    for k, r in enumerate(rows):
        if not reasons.need(r["w_t"] is not None and r["lambda"] is not None,
                            f"no w_t/lambda at t={r['t']!r}"):
            return 1, 1, list(reasons)
        want = path[min(k * stride, len(path) - 1)]
        reasons.need(abs(r["w_t"] - want) <= 1e-12 * max(1.0, abs(want)),
                     f"w_t {r['w_t']!r} != regenerated W = {want!r} at "
                     f"t={r['t']!r}")
        lam = math.exp(alpha * r["w_t"] - alpha * alpha / 32.0 * r["t"])
        reasons.need(_close(r["lambda"], lam),
                     f"lambda {r['lambda']!r} != exp(a w - a^2 t/32) = "
                     f"{lam!r} at t={r['t']!r}")
    if len(rows) > 1:
        # increments over [t_j, t_j+1] are independent N(0, t_j+1 - t_j):
        # the sum of their squares, standardised, is chi-square (with few
        # rows this only catches gross errors; the regenerated path above
        # is the sharp check)
        w = np.array([r["w_t"] for r in rows])
        t = np.array([r["t"] for r in rows])
        q = float(np.sum(np.diff(w) ** 2 / np.diff(t)))
        lo, hi = _chi2_tails(q, len(rows) - 1)
        reasons.need(min(lo, hi) >= CHI2_FALSE_ALARM,
                     f"w_t increments are not N(0, dt): chi-square {q:.4g} "
                     f"on {len(rows) - 1} degrees of freedom")
    return 1, int(bool(reasons)), list(reasons)


# ---------------------------------------------------------------------------
# mc-global
# ---------------------------------------------------------------------------

def _mcg_config(seed, small):
    nx, steps, paths, r = (16, 10, 4, 2.0) if small else (32, 32, 8, 1e4)
    dt = 5e-4
    return {
        "": {"seed": seed},
        "grid": {"geometry": "torus", "nx": nx},
        "params": {"s": 0.0},
        # alpha > 16 c_tilde, the hypothesis of the hitting-law bound
        "noise": {"alpha": 20.0},
        "time": {"dt": dt, "t_final": steps * dt},
        # so high that paths almost never stop early: every path runs
        # the whole horizon and the work does not depend on the seed
        "monitor": {"threshold": r, "c_tilde": 1.0},
        "data": {"seed": seed, "amplitude": 0.5, "max_mode": 2},
        "mc": {"n_paths": paths},
    }


def gbm_record(seed, index, alpha, r, dt, n_steps):
    """First crossing of exp(alpha W - alpha^2 t/32) >= r on the path of
    (seed, index): (triggered, time or None, value at crossing or peak)."""
    w = wiener_path_of(np.random.SeedSequence([seed, index]), dt, n_steps)
    lam = np.exp(alpha * w - alpha * alpha / 32.0 * (np.arange(n_steps + 1)
                                                      * dt))
    hit = np.nonzero(lam >= r)[0]
    if hit.size:
        return True, hit[0] * dt, float(lam[hit[0]])
    return False, None, float(lam.max())


def check_mc_global(cfg, out_dir, status):
    n = cfg["mc"]["n_paths"]
    reasons = _Reasons()
    reasons.need(status == 0, f"exit status {status}, expected 0")
    try:
        summary = read_summary(os.path.join(out_dir, "summary.txt"))
        paths = read_csv(os.path.join(out_dir, "paths.csv"))
    except OSError as err:
        return n, n, [f"missing output: {err}"]
    alpha, r = cfg["noise"]["alpha"], cfg["monitor"]["threshold"]
    dt, steps, seed = cfg["time"]["dt"], _steps(cfg), cfg[""]["seed"]

    bad_paths = 0
    listed = reasons.need([p["path"] for p in paths] == list(range(n)),
                          "paths.csv does not list paths 0..n-1")
    if listed:
        for p in paths:
            idx = int(p["path"])
            trig, when, value = gbm_record(seed, idx, alpha, r, dt, steps)
            ok = (p["gbm_triggered"] == float(trig)
                  and _close(p["gbm_peak"], value)
                  and (when is None and p["gbm_time"] is None
                       or when is not None and p["gbm_time"] is not None
                       and abs(p["gbm_time"] - when) <= 1e-9 * dt))
            if not ok:
                bad_paths += 1
                reasons.append(
                    f"path {idx}: GBM record ({p['gbm_triggered']}, "
                    f"{p['gbm_time']}, {p['gbm_peak']!r}) != regenerated "
                    f"({trig}, {when}, {value!r})")
    hits = sum(1 for p in paths if p["gbm_triggered"] == 1.0)
    diverged = int(summary.get("n_diverged", -1))
    run_ok = all([
        reasons.need(diverged == 0, f"n_diverged = {diverged}"),
        reasons.need(int(summary.get("n_paths", -1)) == n, "n_paths"),
        reasons.need(int(summary.get("gbm_hits", -1)) == hits,
                     "gbm_hits disagrees with paths.csv"),
        reasons.need(float(summary.get("gbm_fraction", -1)) == hits / n,
                     "gbm_fraction != gbm_hits / n_paths"),
        *[reasons.need(0.0 <= float(summary.get(k, -1)) <= 1.0,
                       f"{k} outside [0, 1]")
          for k in ("regular_fraction", "bounded_fraction")],
        status == 0, listed,
    ])
    return n, (min(n, bad_paths) if run_ok else n), list(reasons)


# ---------------------------------------------------------------------------
# mc-hitting
# ---------------------------------------------------------------------------

def _mch_config(seed, small):
    alpha, horizon, paths, log_r = ((0.5, 10.0, 200, 1.6) if small
                                    else (0.5, 1000.0, 750, 20.0))
    return {
        "": {"seed": seed},
        "noise": {"alpha": alpha},
        "time": {"dt": 0.01, "t_final": horizon},
        "monitor": {"threshold": math.exp(log_r)},
        "mc": {"n_paths": paths},
    }


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def hitting_law(alpha, r, horizon) -> float:
    """P(max_[0,T] exp(alpha W - alpha^2 t/32) >= r): first passage of a
    Brownian motion with drift -alpha^2/32 and volatility |alpha| to
    log r (reflection principle with a drift weight)."""
    a, sigma, mu = math.log(r), abs(alpha), -alpha * alpha / 32.0
    s = sigma * math.sqrt(horizon)
    return (_phi((-a + mu * horizon) / s)
            + math.exp(2.0 * mu * a / sigma ** 2) * _phi((-a - mu * horizon)
                                                          / s))


def check_mc_hitting(cfg, out_dir, status):
    reasons = _Reasons()
    reasons.need(status == 0, f"exit status {status}, expected 0")
    try:
        s = read_summary(os.path.join(out_dir, "summary.txt"))
    except OSError as err:
        return 1, 1, [f"missing output: {err}"]
    alpha, r = cfg["noise"]["alpha"], cfg["monitor"]["threshold"]
    n, horizon = cfg["mc"]["n_paths"], cfg["time"]["t_final"]
    law = hitting_law(alpha, r, horizon)
    se = math.sqrt(law * (1.0 - law) / n)
    hits, frac = int(s.get("hits", -1)), float(s.get("fraction", -1))
    reasons.need(int(s.get("n_paths", -1)) == n, "n_paths")
    reasons.need(frac == hits / n, "fraction != hits / n_paths")
    reasons.need(abs(frac - law) <= MC_Z * se,
                 f"fraction {frac} is {abs(frac - law) / se:.1f} standard "
                 f"errors from the law {law:.6g}")
    reasons.need(frac < r ** (-1.0 / 16.0),
                 f"fraction {frac} not below r^(-1/16)")
    reasons.need(_close(float(s.get("oracle", -1)), law, 1e-9),
                 f"reported oracle {s.get('oracle')} != law {law!r}")
    return 1, int(bool(reasons)), list(reasons)


WORKLOADS = {w.name: w for w in (
    Workload("sim-det-square", "sim-det", _det_config, check_sim_det),
    Workload("sim-sde-torus", "sim-sde", _sde_config, check_sim_sde),
    Workload("mc-global", "mc-global", _mcg_config, check_mc_global),
    Workload("mc-hitting", "mc-hitting", _mch_config, check_mc_hitting),
)}
