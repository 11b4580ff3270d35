"""Hitting law, amplitude budget, MC harnesses, convergence studies."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import slicelab as sl
from slicelab import experiments as ex
from slicelab import stochastic as st
from slicelab.config import step_count

from helpers import (crossing_oracle, decay_rate_fit,
                     hitting_fraction_on_paths, l2, path_hits_oracle,
                     serial_mc_global, serial_strong_convergence)

# the closed-form oracle is exact arithmetic; MC comparisons carry their
# own SE-based bands
ORACLE_TOL = 1e-12


@pytest.fixture(scope="module")
def tor32():
    return sl.make_grid("torus", 32, 32, 2 * np.pi, 2 * np.pi)


@pytest.fixture(scope="module")
def tor16():
    return sl.make_grid("torus", 16, 16, 2 * np.pi, 2 * np.pi)


# ---------------------------------------------------------------------------
# the exact hitting law
# ---------------------------------------------------------------------------

def test_oracle_threshold_one_is_certain():
    assert ex.gbm_max_oracle(1.0, 1.0, 5.0) == 1.0
    assert ex.gbm_max_oracle(0.3, 1.0, math.inf) == 1.0


def test_oracle_infinite_horizon_power_law():
    # P(sup Lambda >= r) = r^(-1/16); r = 2^16 makes it exactly one half
    assert ex.gbm_max_oracle(1.0, 2.0 ** 16, math.inf) == 0.5
    assert ex.gbm_max_oracle(1.0, 2.0, math.inf) == pytest.approx(
        0.9576032806985737, abs=ORACLE_TOL)
    # the power law does not involve alpha
    assert ex.gbm_max_oracle(3.7, 2.0, math.inf) == ex.gbm_max_oracle(
        0.2, 2.0, math.inf)


def test_oracle_degenerate_cases():
    assert ex.gbm_max_oracle(0.0, 2.0, 100.0) == 0.0
    assert ex.gbm_max_oracle(1.0, 2.0, 0.0) == 0.0


def test_oracle_rejects_bad_arguments():
    with pytest.raises(sl.ConfigError):
        ex.gbm_max_oracle(1.0, 0.5, 10.0)
    with pytest.raises(sl.ConfigError):
        ex.gbm_max_oracle(1.0, 2.0, -1.0)


def test_oracle_monotone_in_horizon():
    vals = [ex.gbm_max_oracle(1.0, 2.0, t) for t in (1e2, 1e3, 1e4)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - ORACLE_TOL
    assert vals[-1] <= ex.gbm_max_oracle(1.0, 2.0, math.inf)


# ---------------------------------------------------------------------------
# amplitude budget
# ---------------------------------------------------------------------------

def test_budget_domain_error():
    with pytest.raises(sl.ConfigError):
        ex.amplitude_threshold(10.0, 1.0, 1.0)
    with pytest.raises(sl.ConfigError):
        ex.amplitude_threshold(20.0, 0.5, 1.0)


def test_budget_direct_evaluation():
    # independent arithmetic for C = 1, alpha = 20, r = 1
    e4 = math.exp(4.0)
    q = 1.0 - 1.0 / (2.0 * (e4 - 1.0))
    log_a = (math.log(2.0) + math.log(1.0 + 1.25 ** q)
             + e4 * (8.0 + 32.0 / 400.0))
    expect = math.exp(math.log(20.0 / 16.0) - log_a)
    got = ex.amplitude_threshold(20.0, 1.0, 1.0)
    assert got == pytest.approx(expect, rel=ORACLE_TOL)


def test_budget_upper_bound():
    for alpha, r, c in ((20.0, 1.0, 1.0), (17.0, 3.0, 1.0),
                        (1.0, 2.0, 0.01), (0.5, 1.0, 0.01)):
        assert ex.amplitude_threshold(alpha, r, c) <= abs(alpha) / (16.0 * c)


def test_budget_exceeds_one_for_small_constant():
    # the quoted lower bound 1 < budget needs the power term to beat the
    # exponential one, which happens once C r is small
    for alpha in (0.5, 1.0, 2.0):
        v = ex.amplitude_threshold(alpha, 1.0, 0.01)
        assert 1.0 < v <= alpha / 0.16


@pytest.mark.xfail(reason="the quoted lower bound 1 < budget fails for C "
                   "near 1: the exp{C r e^{4Cr} ...} factor is ~1e190 at "
                   "C = r = 1, so the budget is ~1e-193 there; the bound "
                   "only turns on at astronomically large alpha",
                   strict=True)
def test_budget_exceeds_one_at_unit_constant():
    assert ex.amplitude_threshold(20.0, 1.0, 1.0) > 1.0


def test_budget_monotone_in_alpha():
    small = [ex.amplitude_threshold(a, 1.0, 0.01)
             for a in (0.3, 0.5, 1.0, 2.0, 4.0)]
    unit = [ex.amplitude_threshold(a, 1.0, 1.0) for a in (17.0, 20.0, 40.0)]
    for seq in (small, unit):
        assert all(b > a for a, b in zip(seq, seq[1:]))


def test_budget_overflow_returns_zero():
    assert ex.amplitude_threshold(20.0, 200.0, 1.0) == 0.0
    assert ex.amplitude_threshold(17.0, 40.0, 1.0) == 0.0


# ---------------------------------------------------------------------------
# MC hitting frequency
# ---------------------------------------------------------------------------

def test_mc_hitting_requires_enough_paths():
    with pytest.raises(sl.ConfigError):
        ex.mc_hitting(1.0, 2.0, 10.0, 0.1, 50, seed=0)


def test_mc_hitting_threshold_one():
    s = ex.mc_hitting(1.0, 1.0, 10.0, 0.1, 200, seed=0)
    assert s.fraction == 1.0 and s.hits == 200
    assert s.dt == 0.1 and s.horizon == 10.0


def test_mc_hitting_matches_oracle_at_desk_scale():
    s = ex.mc_hitting(1.0, 2.0, 100.0, 0.05, 400, seed=3)
    oracle = ex.gbm_max_oracle(1.0, 2.0, 100.0)
    assert abs(s.fraction - oracle) <= 3.0 * s.standard_error


def test_mc_hitting_deterministic():
    a = ex.mc_hitting(1.0, 2.0, 50.0, 0.1, 150, seed=9)
    b = ex.mc_hitting(1.0, 2.0, 50.0, 0.1, 150, seed=9)
    assert a == b


def test_mc_hitting_se_halves_with_paths():
    a = ex.mc_hitting(1.0, 2.0, 100.0, 0.1, 400, seed=3)
    b = ex.mc_hitting(1.0, 2.0, 100.0, 0.1, 800, seed=3)
    assert 0.6 <= b.standard_error / a.standard_error <= 0.8


def test_hitting_fraction_rises_under_refinement():
    # a bridge midpoint can only raise a path's grid maximum, so the
    # frequency is nondecreasing level to level
    paths = [st.sample_wiener(0.1, 100, 1, seed=int(
        np.random.SeedSequence([7, i]).generate_state(1)[0]))
        for i in range(200)]
    fracs = [hitting_fraction_on_paths(paths, 1.0, 2.0)]
    for _ in range(2):
        paths = [st.refine_path(p) for p in paths]
        fracs.append(hitting_fraction_on_paths(paths, 1.0, 2.0))
    assert fracs[0] <= fracs[1] <= fracs[2]
    assert fracs[0] > 0.5  # sanity: the event is common at these settings


def test_stopped_lambda_mean_is_one():
    mean, se = ex.stopped_lambda_mean(1.0, 2.0, 1.0, 0.01, 20000, seed=5)
    assert abs(mean - 1.0) <= 4.0 * se
    with pytest.raises(sl.ConfigError):
        ex.stopped_lambda_mean(1.0, 2.0, 1.0, 0.01, 50, seed=5)


# -- each path against the two-draw oracle ------------------------------------

def _oracle_paths(alpha, r, horizon, dt, n_paths, seed):
    # crossing_oracle on each path in index order, at the horizon n dt, its
    # normal and uniform drawn one scalar at a time from streams (seed, 0)
    # and (seed, 1)
    big_t = step_count(horizon, dt, "horizon") * dt
    log_r = math.log(r) if r > 0 else -math.inf
    normals, uniforms = ex._path_rng(seed, 0), ex._path_rng(seed, 1)
    return [crossing_oracle(normals, uniforms, alpha, log_r, big_t)
            for _ in range(n_paths)]


@pytest.mark.parametrize("n_steps", [1, 63, 64, 65, 100, 255, 256, 257, 1024,
                                     1025, 3072, 5000, 100_000])
@pytest.mark.parametrize("alpha", [1.0, -1.0, 0.0])
def test_first_crossing_decides_as_the_allocating_loop(alpha, n_steps):
    # every path decides as crossing_oracle, with bit for bit the same
    # stopped value, at horizons of 0.01 to 1000; alpha = 0 never crosses
    dt, seed, n_paths = 0.01, 4, 40
    results = set()
    for log_r in (0.05, 0.5, 3.0, 8.0):
        args = (alpha, math.exp(log_r), n_steps * dt, dt, n_paths, seed)
        got = ex._path_crossings(*args)
        assert got == _oracle_paths(*args), log_r
        results |= {crossed for crossed, _ in got}
    assert results == ({False} if alpha == 0.0 else {False, True})


def test_mc_hitting_equals_the_allocating_loop_at_the_benchmark_sizing():
    # the mc-hitting benchmark workload: alpha 0.5, log r = 20, horizon
    # 1000 at dt 0.01 (100,000 steps), 750 paths, seed 1
    args = (0.5, math.exp(20.0), 1000.0, 0.01, 750, 1)
    hits = sum(crossed for crossed, _ in _oracle_paths(*args))
    s = ex.mc_hitting(*args)
    assert s.hits == hits and s.fraction == hits / 750


@pytest.mark.parametrize("args", [
    (1.0, 2.0, 1.0, 0.01, 500, 5), (1.0, 2.0, 10.24, 0.01, 500, 5),
    (-1.0, math.exp(3.0), 50.0, 0.01, 200, 21)], ids=["100", "1024", "5000"])
def test_stopped_lambda_mean_equals_the_allocating_loop(args):
    # horizons of 100, 1024 and 5000 steps
    n_paths = args[4]
    vals = np.array([math.exp(stopped / 16.0)
                     for _, stopped in _oracle_paths(*args)])
    assert ex.stopped_lambda_mean(*args) == (
        float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_paths)))


@pytest.mark.parametrize("r", [1.0, 0.5, 0.0])
def test_threshold_at_most_one_is_reached_at_t0(r, monkeypatch):
    # Lambda_0 = 1 >= r: every path hits and stops there, drawing nothing
    assert ex.mc_hitting(-1.0, r, 10.0, 0.1, 100, seed=2).hits == 100
    assert ex.stopped_lambda_mean(-1.0, r, 10.0, 0.1, 100, seed=2) == (
        1.0, 0.0)
    monkeypatch.setattr(ex, "_path_rng", lambda seed, idx: None)
    assert ex._path_crossings(-1.0, r, 10.0, 0.1, 3, 2) == [(True, 0.0)] * 3


@pytest.mark.parametrize("horizon, dt", [
    (0.004, 0.01), (1.0, 0.0), (1.0, -0.01), (1.0, math.nan),
    (1.0, math.inf), (0.0, 0.01), (-1.0, 0.01), (math.nan, 0.01),
    (math.inf, 0.01)])
def test_hitting_harnesses_reject_bad_time_grids(horizon, dt):
    with pytest.raises(sl.ConfigError):
        ex.mc_hitting(1.0, 2.0, horizon, dt, 100, 1)
    with pytest.raises(sl.ConfigError):
        ex.stopped_lambda_mean(1.0, 2.0, horizon, dt, 100, 1)


def test_harness_horizons_are_whole_numbers_of_steps():
    # 1.0 is 2.5 steps of 0.4, which rounding made 2: a run stepped to 0.8
    # and reported horizon 1.0.  A horizon within the run config's relative
    # 1e-9 of a whole number of steps is that number
    harnesses = [lambda h: ex.mc_hitting(1.0, 2.0, h, 0.4, 200, 1).hits,
                 lambda h: ex.stopped_lambda_mean(1.0, 2.0, h, 0.4, 200, 1)]
    for run in harnesses:
        with pytest.raises(sl.ConfigError, match="integer multiple of dt"):
            run(1.0)
        assert run(1.2 * (1 + 1e-12)) == run(1.2)


# -- the law the paths sample ---------------------------------------------------

@pytest.mark.parametrize("dt", [0.5, 0.1])
def test_hitting_paths_sample_the_continuous_law(dt):
    # the fraction is the continuous law's (gbm_max_oracle) within 5
    # standard errors; the per-step grid maximum's law, which the paths
    # sampled before they crossed on the bridge, lies more than 8 combined
    # standard errors below it at these steps
    alpha, r, horizon, n_paths = 1.0, 2.0, 10.0, 20_000
    s = ex.mc_hitting(alpha, r, horizon, dt, n_paths, seed=11)
    law = ex.gbm_max_oracle(alpha, r, horizon)
    assert abs(s.fraction - law) <= 5.0 * s.standard_error, (s.fraction, law)
    rng = np.random.default_rng(12)
    n_steps = int(round(horizon / dt))
    grid = sum(path_hits_oracle(rng, alpha, math.log(r), n_steps, dt)[0]
               for _ in range(n_paths)) / n_paths
    se = math.hypot(s.standard_error,
                    math.sqrt(grid * (1.0 - grid) / n_paths))
    assert law - grid > 8.0 * se, (law, grid, se)


# -- paths in any order --------------------------------------------------------

HITTING_CASES = {
    # "blocks" is tools/compare_runs.py's mc-hitting run at alpha < 0, 200
    # paths to a horizon of 5000 steps, of which some cross and some do
    # not; "one-block" is a horizon of 100 steps
    "blocks": (-1.0, math.exp(3.0), 50.0, 0.01, 200, 21),
    "one-block": (1.0, 2.0, 1.0, 0.01, 150, 9),
    "threshold-one": (1.0, 1.0, 10.0, 0.1, 100, 0),
}


def _path_alone(alpha, log_r, big_t, seed, idx):
    # path idx from fresh streams, past the idx scalar draws before it
    normals, uniforms = ex._path_rng(seed, 0), ex._path_rng(seed, 1)
    for _ in range(idx):
        normals.standard_normal()
        uniforms.random()
    return crossing_oracle(normals, uniforms, alpha, log_r, big_t)


@pytest.mark.parametrize("case", sorted(HITTING_CASES))
def test_hitting_paths_do_not_depend_on_the_path_order(case):
    # each path drawn alone, in reverse index order, is the kernel's
    alpha, r, horizon, dt, n_paths, seed = args = HITTING_CASES[case]
    big_t = step_count(horizon, dt, "horizon") * dt
    log_r = math.log(r)
    backwards = {idx: _path_alone(alpha, log_r, big_t, seed, idx)
                 for idx in reversed(range(n_paths))}
    paths = [backwards[idx] for idx in range(n_paths)]
    assert ex._path_crossings(*args) == paths
    hits = sum(crossed for crossed, _ in paths)
    frac = hits / n_paths
    assert ex.mc_hitting(*args) == ex.McSummary(
        n_paths, hits, frac, math.sqrt(frac * (1.0 - frac) / n_paths), seed,
        alpha, r, horizon, dt)
    vals = np.array([math.exp(stopped / 16.0) for _, stopped in paths])
    assert ex.stopped_lambda_mean(*args) == (
        float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_paths)))


@pytest.mark.parametrize("n, k", [(1, 1), (40, 1), (99, 101), (500, 3000)])
def test_fewer_paths_are_a_prefix_of_more(n, k):
    # a path depends on (seed, index), not on how many paths the run draws
    for args in ((1.0, 2.0, 1.0, 0.01), (-1.0, math.exp(3.0), 50.0, 0.01)):
        more = ex._path_crossings(*args, n + k, 7)
        assert ex._path_crossings(*args, n, 7) == more[:n]
        if n + k > 100:
            assert {crossed for crossed, _ in more} == {False, True}


@pytest.mark.parametrize("seed", [2, 5])
def test_two_streams_per_call_built_before_any_draw(seed, monkeypatch):
    # (seed, 0), then (seed, 1), then the draws, whatever the number of
    # paths: one vector of normals from the first stream and one of
    # uniforms from the second.  Nothing is built or drawn at r <= 1.  The
    # benchmark's set-up hook and its stream span sit on _path_rng.
    real_rng = ex._path_rng
    events = []

    class Counted:
        def __init__(self, key):
            self.rng, self.key = real_rng(seed, key), key

        def standard_normal(self, size):
            events.append(("z", self.key, size))
            return self.rng.standard_normal(size)

        def random(self, size):
            events.append(("u", self.key, size))
            return self.rng.random(size)

    def counted_rng(seed_, key):
        assert seed_ == seed
        events.append(("stream", key))
        return Counted(key)

    monkeypatch.setattr(ex, "_path_rng", counted_rng)
    for n_paths in (1, 60, 1000):
        args = (1.0, math.exp(1.0), 5.0, 0.01, n_paths, seed)
        events.clear()
        got = ex._path_crossings(*args)
        assert events == [("stream", 0), ("stream", 1),
                          ("z", 0, n_paths), ("u", 1, n_paths)]
        monkeypatch.setattr(ex, "_path_rng", real_rng)
        assert got == _oracle_paths(*args)
        monkeypatch.setattr(ex, "_path_rng", counted_rng)
    for r in (1.0, 0.5):
        events.clear()
        assert ex._path_crossings(1.0, r, 5.0, 0.01, 60, seed) == [
            (True, 0.0)] * 60
        assert events == []


def _run_python(script, *args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(sl.__file__)))
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src)).stdout


def test_scalar_modes_never_import_scipy_fft():
    # a hitting-law run builds no grid, and a grid of either geometry
    # loads scipy's compiled pocketfft only, not scipy.fft
    script = ("import sys, slicelab\n"
              "slicelab.mc_hitting(1.0, 2.0, 1.0, 0.01, 100, 1)\n"
              "slicelab.stopped_lambda_mean(1.0, 2.0, 1.0, 0.01, 100, 1)\n"
              "print('scipy.fft' in sys.modules)\n"
              "slicelab.make_grid('torus', 8, 8, 1.0, 1.0)\n"
              "print('scipy.fft' in sys.modules)\n"
              "slicelab.make_grid('square', 8, 8, 1.0, 1.0)\n"
              "print('scipy.fft' in sys.modules)\n")
    assert _run_python(script).split() == ["False", "False", "False"]


@pytest.mark.parametrize("mode,config", [
    ("sim-sde", "[grid]\ngeometry = torus\nnx = 16\n[params]\ns = 0\n"
                "[noise]\nalpha = 0.5\n[time]\ndt = 1e-3\nt_final = 4e-3\n"
                "[data]\namplitude = 0.25\nmax_mode = 4\nseed = 3\n"),
    ("mc-global", "[grid]\ngeometry = torus\nnx = 16\n[params]\ns = 0\n"
                  "[noise]\nalpha = 20.0\n[time]\ndt = 5e-4\n"
                  "t_final = 2e-3\n[monitor]\nthreshold = 2.0\n"
                  "c_tilde = 1.0\n[data]\namplitude = 0.5\nmax_mode = 2\n"
                  "seed = 3\n[mc]\nn_paths = 2\n")])
def test_torus_cli_runs_never_import_scipy(tmp_path, mode, config):
    # the torus transforms are scipy's compiled pocketfft, loaded by file
    # path: a whole CLI run, from its imports to its outputs, loads no
    # scipy module, and numpy.fft neither
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    script = ("import sys, slicelab.cli\n"
              "status = slicelab.cli.main(sys.argv[1:])\n"
              "print(status, sorted(m for m in sys.modules\n"
              "                     if m.split('.')[0] == 'scipy'))\n"
              "print('numpy.fft' in sys.modules)\n")
    out = _run_python(script, mode, "--config", str(cfg), "--seed", "5",
                      "--out-dir", str(tmp_path / "out"))
    assert out.split("\n")[-3:] == ["0 []", "False", ""]
    assert (tmp_path / "out").is_dir()


def test_square_cli_run_never_imports_scipy(tmp_path):
    # the square transforms are scipy's compiled pocketfft, loaded by file
    # path: a whole CLI run loads no scipy module, and scipy.fft, imported
    # after it in the same process, still loads and gives the same bits
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[grid]\ngeometry = square\nnx = 16\n[params]\ns = 0\n"
                   "[time]\ndt = 1e-3\nt_final = 4e-3\n[data]\n"
                   "amplitude = 0.25\nmax_mode = 4\nseed = 3\n")
    script = ("import sys, numpy as np, slicelab.cli\n"
              "from slicelab.grid import make_grid, to_modes, from_modes\n"
              "status = slicelab.cli.main(sys.argv[1:])\n"
              "print(status, sorted(m for m in sys.modules\n"
              "                     if m.split('.')[0] == 'scipy'))\n"
              "import scipy.fft as sfft\n"
              "g = make_grid('square', 16, 8, 1.0, 1.0)\n"
              "x = np.random.default_rng(0).standard_normal((8, 16))\n"
              "c = to_modes(g, x, ('sin', 'cos'))\n"
              "want = sfft.dct(sfft.dst(x, type=2, axis=-1), type=2, axis=-2)\n"
              "back = sfft.idst(sfft.idct(c, type=2, axis=-2), type=2,\n"
              "                 axis=-1)\n"
              "print(c.tobytes() == want.tobytes(),\n"
              "      from_modes(g, c, ('sin', 'cos')).tobytes()\n"
              "      == back.tobytes())\n")
    out = _run_python(script, "sim-det", "--config", str(cfg), "--seed", "5",
                      "--out-dir", str(tmp_path / "out"))
    assert out.split("\n")[-3:] == ["0 []", "True True", ""]
    assert (tmp_path / "out" / "diagnostics.csv").is_file()


# ---------------------------------------------------------------------------
# strong convergence study
# ---------------------------------------------------------------------------

def test_strong_convergence_linear_noise(tor32):
    s0 = sl.random_state(tor32, seed=3, max_mode=4, amplitude=0.25)
    res = ex.strong_convergence_study(tor32, sl.Params(s=0.0), s0, alpha=0.5,
                                      horizon=0.25, coarse_dt=1e-2,
                                      levels=4, n_paths=12, seed=2)
    assert 0.35 <= res.slope <= 0.65
    errs = [e for _, e in res.entries]
    assert errs[-1] < errs[0]


def test_strong_convergence_noise_off(tor32):
    # without noise EM degenerates to explicit Euler: first order
    s0 = sl.random_state(tor32, seed=3, max_mode=4, amplitude=0.25)
    res = ex.strong_convergence_study(tor32, sl.Params(s=0.0), s0, alpha=0.0,
                                      horizon=0.25, coarse_dt=1e-2,
                                      levels=4, n_paths=5, seed=2)
    assert res.n_paths == 1  # paths collapse when the noise is off
    assert 0.8 <= res.slope <= 1.2


def test_strong_convergence_zero_data(tor32):
    res = ex.strong_convergence_study(tor32, sl.Params(s=0.0),
                                      sl.zero_state(tor32), alpha=0.5,
                                      horizon=0.1, coarse_dt=1e-2,
                                      levels=4, n_paths=2, seed=0)
    assert res.slope is None
    assert all(e == 0.0 for _, e in res.entries)


# the noise-off case collapses the paths to one
CONVERGENCE_CASES = {"torus": ("torus", 0.5), "square": ("square", 0.5),
                     "torus-noise-off": ("torus", 0.0)}


@pytest.mark.parametrize("case", sorted(CONVERGENCE_CASES))
def test_strong_convergence_does_not_depend_on_scheduling(case, monkeypatch):
    # entries and slope equal the path-by-path loop's bit for bit, whatever
    # the batch cap
    geometry, alpha = CONVERGENCE_CASES[case]
    n_paths = 5
    side = 2 * np.pi if geometry == "torus" else np.pi
    g = sl.make_grid(geometry, 16, 16, side, side)
    s0 = sl.random_state(g, seed=3, max_mode=4, amplitude=0.25)
    kw = dict(alpha=alpha, horizon=0.04, coarse_dt=1e-2, levels=4,
              n_paths=n_paths, seed=2)
    entries, slope = serial_strong_convergence(g, sl.Params(s=0.0), s0,
                                               **kw)
    assert slope is not None
    batches = []
    real_batch_state = ex._batch_state
    monkeypatch.setattr(ex, "_batch_state", lambda states: batches.append(
        len(states)) or real_batch_state(states))
    for cap in (1, 3, n_paths):
        monkeypatch.setattr(ex, "_BATCH_VALUES", cap * g.nx * g.nz)
        batches.clear()
        res = ex.strong_convergence_study(g, sl.Params(s=0.0), s0, **kw)
        assert res.entries == entries, cap
        assert res.slope == slope, cap
        n = 1 if alpha == 0.0 else n_paths
        assert res.n_paths == n
        assert batches == [min(cap, n - first)
                           for first in range(0, n, cap)], cap


def test_strong_convergence_needs_four_levels(tor32):
    with pytest.raises(sl.ConfigError):
        ex.strong_convergence_study(tor32, sl.Params(s=0.0),
                                    sl.zero_state(tor32), alpha=0.5,
                                    horizon=0.1, coarse_dt=1e-2, levels=3)


# ---------------------------------------------------------------------------
# decay-rate regression
# ---------------------------------------------------------------------------

def test_decay_fit_exact_exponential():
    t = np.linspace(0.0, 1.0, 50)
    assert decay_rate_fit(t, np.exp(-3.0 * t)) == pytest.approx(
        3.0, abs=1e-10)


def test_decay_fit_with_jitter():
    t = np.linspace(0.0, 1.0, 50)
    rng = np.random.default_rng(0)
    vals = np.exp(-5.0 * t) * (1.0 + 0.01 * rng.standard_normal(50))
    assert decay_rate_fit(t, vals) == pytest.approx(5.0, rel=0.05)


def test_decay_fit_on_transformed_run(tor32):
    # strong noise, s = 0: the squared-norm decay rate clears the
    # alpha^2/4 - 8 = 1 budget with two grades of margin
    p = sl.Params(s=0.0)
    alpha = 6.0
    dt, n = 2e-3, 125
    path = st.sample_wiener(dt, n, 1, seed=17)
    w = path.w_series()
    s = st.transform_forward(
        sl.random_state(tor32, seed=3, max_mode=3, amplitude=0.01), alpha, 0.0)
    times, vals = [], []
    for i in range(n):
        s = st.step_transformed(s, p, dt, alpha, w[i], w[i + 1])
        times.append((i + 1) * dt)
        vals.append(l2(s.u_s) ** 2 + l2(s.u_t) ** 2 + l2(s.theta_s) ** 2)
    rate = decay_rate_fit(times, vals)
    assert rate >= alpha ** 2 / 4.0 - 8.0


# ---------------------------------------------------------------------------
# mollified-data Cauchy study
# ---------------------------------------------------------------------------

def test_mollifier_distances_decrease(tor32):
    s0 = sl.random_state(tor32, seed=9, max_mode=6, amplitude=0.4)
    table = ex.mollifier_cauchy_study(s0, sl.Params(s=0.0), [8, 16, 32, 64],
                                      horizon=0.25, dt=5e-3)
    ds = [d for _, d in table]
    assert all(b < a for a, b in zip(ds, ds[1:])), ds


def test_mollifier_fixed_point_data_gives_exact_zeros(tor32):
    # mean-mode-only data is bitwise invariant under every smoothing
    # level, so the solves coincide exactly
    n = tor32.nx
    const = sl.make_state(tor32, 0.0, np.zeros((n, n)), np.zeros((n, n)),
                          np.full((n, n), 0.3), np.full((n, n), -0.2))
    table = ex.mollifier_cauchy_study(const, sl.Params(s=0.0), [8, 16, 32],
                                      horizon=0.1, dt=5e-3)
    assert all(d == 0.0 for _, d in table)


def test_mollifier_zero_data(tor32):
    table = ex.mollifier_cauchy_study(sl.zero_state(tor32), sl.Params(s=0.0),
                                      [8, 16, 32], horizon=0.1, dt=5e-3)
    assert all(d == 0.0 for _, d in table)


def test_mollifier_rejects_bad_ladders(tor32):
    s0 = sl.zero_state(tor32)
    with pytest.raises(sl.ConfigError):
        ex.mollifier_cauchy_study(s0, sl.Params(), [8, 16], 0.1, 5e-3)
    with pytest.raises(sl.ConfigError):
        ex.mollifier_cauchy_study(s0, sl.Params(), [8, 16, 24], 0.1, 5e-3)


# ---------------------------------------------------------------------------
# MC global regularity
# ---------------------------------------------------------------------------

def test_mc_global_requires_zero_s(tor16):
    with pytest.raises(sl.ConfigError):
        ex.mc_global_regularity(tor16, sl.Params(), alpha=6.0, r=2.0,
                                amplitude=0.1, n_paths=10, horizon=0.05,
                                dt=5e-3, seed=0)


def test_mc_global_tiny_data_matches_gbm_law(tor16):
    # the GBM monitor is PDE-independent, so the non-hitting fraction
    # tracks the closed form even while the solver runs; the budget at
    # r = 2^16 is 0, so the (harmless) amplitude warning is expected
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ex.AmplitudeBudgetWarning)
        res = ex.mc_global_regularity(
            tor16, sl.Params(s=0.0), alpha=6.0, r=2.0 ** 16, amplitude=1e-10,
            n_paths=40, horizon=0.4, dt=2e-2, seed=4, c_tilde=0.25)
    oracle = ex.gbm_max_oracle(6.0, 2.0 ** 16, 0.4)
    se = math.sqrt(oracle * (1.0 - oracle) / 40)
    non_hit = 1.0 - res.summary.fraction
    assert abs(non_hit - (1.0 - oracle)) <= 3.0 * se
    assert res.n_diverged == 0
    assert res.bounded_fraction == 1.0
    assert res.regular_fraction == 1.0


def test_mc_global_zero_data(tor16):
    res = ex.mc_global_regularity(
        tor16, sl.Params(s=0.0), alpha=6.0, r=4.0, amplitude=0.0,
        n_paths=40, horizon=0.1, dt=5e-3, seed=4, c_tilde=0.25)
    assert res.bounded_fraction == 1.0
    assert res.n_diverged == 0


def test_mc_global_warns_over_budget(tor16):
    with pytest.warns(ex.AmplitudeBudgetWarning):
        res = ex.mc_global_regularity(
            tor16, sl.Params(s=0.0), alpha=6.0, r=2.0, amplitude=0.5,
            n_paths=4, horizon=0.05, dt=5e-3, seed=4, c_tilde=0.25)
    assert not res.amplitude_ok


def test_mc_global_half_threshold_reports_bound(tor16):
    # data at half the budget: the norm-bound fraction is reported, not
    # asserted (analytic constants are set to 1); with this config the
    # measured value is 1.0
    budget = ex.amplitude_threshold(1.0, 2.0, 0.01)
    res = ex.mc_global_regularity(
        tor16, sl.Params(s=0.0), alpha=1.0, r=2.0, amplitude=budget / 2.0,
        n_paths=20, horizon=0.1, dt=5e-3, seed=4, c_tilde=0.01)
    assert res.amplitude_ok
    assert 0.0 <= res.bounded_fraction <= 1.0
    assert len(res.amplitude_records) == 20
    assert len(res.gbm_records) == 20


def test_mc_global_counts_diverged_paths(tor16):
    # absurd data amplitude with a huge step: paths blow up and are
    # counted rather than dropped (one survives at this seed: its
    # negative Brownian excursion shrinks the advection factor faster
    # than the quadratic term grows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = ex.mc_global_regularity(
            tor16, sl.Params(s=0.0), alpha=20.0, r=2.0, amplitude=1e8,
            n_paths=5, horizon=2.0, dt=0.5, seed=4, c_tilde=0.25)
    assert res.n_diverged == 4
    assert len(res.gbm_records) == 5


# low thresholds make paths leave their batch at different steps; the
# diverging case makes batched steps fall back to path-by-path steps
SCHEDULING_CASES = {
    "torus-early-stops": ("torus", dict(
        alpha=6.0, r=1.3, amplitude=0.3, n_paths=10, horizon=0.1, dt=5e-3,
        seed=4, c_tilde=0.25, data_seed=2, max_mode=3)),
    "square-early-stops": ("square", dict(
        alpha=6.0, r=1.3, amplitude=0.3, n_paths=10, horizon=0.1, dt=5e-3,
        seed=5, c_tilde=0.25, data_seed=3, max_mode=3)),
    "torus-diverging": ("torus", dict(
        alpha=20.0, r=2.0, amplitude=1e8, n_paths=5, horizon=2.0, dt=0.5,
        seed=4, c_tilde=0.25)),
    # at this small alpha the transformed Z^{3,2} norms grow: the amplitude
    # monitors (threshold 250) fire after t = 0, at different steps, and
    # one path's GBM monitor stops it first
    "torus-amplitude-monitor": ("torus", dict(
        alpha=0.2, r=1.1, amplitude=141.0, n_paths=8, horizon=0.2, dt=5e-3,
        seed=4, c_tilde=1e-4, data_seed=2, max_mode=3)),
}


@pytest.mark.parametrize("case", sorted(SCHEDULING_CASES))
def test_mc_global_does_not_depend_on_scheduling(case, monkeypatch):
    # every record and every reported number equals the path-by-path loop
    # bit for bit, whatever the batch cap
    geometry, kw = SCHEDULING_CASES[case]
    g = sl.make_grid(geometry, 16, 16, 2 * np.pi, 2 * np.pi)
    params = sl.Params(s=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        serial = serial_mc_global(g, params, **kw)
    amp_want = repr(tuple(p[0] for p in serial))
    gbm_want = repr(tuple(p[1] for p in serial))
    ok = [p for p in serial if not p[2]]
    regular = sum(not (a.triggered and (not b.triggered
                                        or a.trigger_time < b.trigger_time))
                  for a, b, _, _ in ok)
    bounded = sum(p[3] for p in ok)
    n_steps = int(round(kw["horizon"] / kw["dt"]))
    stops = {p[1].trigger_time for p in serial if p[1].triggered}
    amp_stops = {p[0].trigger_time for p in serial if p[0].triggered}
    if case.endswith("early-stops"):
        assert len(stops) > 2 and len(ok) == len(serial)
    elif case.endswith("amplitude-monitor"):
        assert len(amp_stops) >= 2 and min(amp_stops) > 0.0
        assert len(ok) == len(serial) and regular not in (0, len(ok))
    else:
        assert len(ok) not in (0, len(serial))

    calls = []
    monkeypatch.setattr(ex, "step_transformed",
                        lambda *a, **k: calls.append(1) or
                        st.step_transformed(*a, **k))
    for cap in (1, 3, 8, kw["n_paths"]):
        monkeypatch.setattr(ex, "_BATCH_VALUES", cap * g.nx * g.nz)
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = ex.mc_global_regularity(g, params, **kw)
        assert repr(res.amplitude_records) == amp_want, cap
        assert repr(res.gbm_records) == gbm_want, cap
        assert res.n_diverged == len(serial) - len(ok)
        assert res.regular_fraction == (regular / len(ok) if ok else 0.0)
        assert res.bounded_fraction == (bounded / len(ok) if ok else 0.0)
        assert res.summary.hits == sum(p[1].triggered for p in serial)
        if cap == kw["n_paths"] and len(ok) == len(serial):
            assert len(calls) <= n_steps  # one batch: one call per step


@pytest.mark.parametrize("n, width", [(16, 64), (32, 16), (64, 4),
                                      (128, 1), (256, 1)])
def test_batch_width_is_about_l2_sized(n, width):
    # 16384 values per field: 64, 16 and 4 paths at 16^2, 32^2 and 64^2,
    # one path from 128^2 up
    g = sl.make_grid("torus", n, n, 2 * np.pi, 2 * np.pi)
    assert ex._batch_width(g) == width


def test_benchmark_sized_mc_global_is_one_batch(monkeypatch):
    # 8 paths at 32^2, the benchmark's mc-global: one step_transformed
    # call per step of the longest path, at the cap as it stands
    g = sl.make_grid("torus", 32, 32, 2 * np.pi, 2 * np.pi)
    calls = []
    monkeypatch.setattr(ex, "step_transformed",
                        lambda *a, **k: calls.append(np.size(a[4])) or
                        st.step_transformed(*a, **k))
    dt, n_steps = 5e-4, 32
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = ex.mc_global_regularity(
            g, sl.Params(s=0.0), alpha=20.0, r=1e4, amplitude=0.5,
            n_paths=8, horizon=n_steps * dt, dt=dt, seed=3, c_tilde=1.0,
            data_seed=3)
    assert res.n_diverged == 0
    assert calls[0] == 8
    longest = max(round(rec.trigger_time / dt) if rec.triggered else n_steps
                  for rec in res.gbm_records)
    assert len(calls) == longest


def test_amplitude_monitor_matches_the_quadrature_oracle(monkeypatch):
    # the monitor norms by discrete Parseval on the states' coefficients
    # against the same run monitored by quadrature on the values: the same
    # trigger steps, values within 1e-13
    import slicelab.norms
    from helpers import quadrature_field_norm
    geometry, kw = SCHEDULING_CASES["torus-amplitude-monitor"]
    g = sl.make_grid(geometry, 16, 16, 2 * np.pi, 2 * np.pi)

    def quadrature_component_norms(state, spec):
        parts = [quadrature_field_norm(c, spec) for c in (
            [state.u_s.x, state.u_s.z], [state.u_t], [state.theta_s])]
        return list(zip(*parts)) if state.u_t.values.ndim == 3 else parts

    runs = []
    for component_norms in (slicelab.norms.state_component_norms,
                            quadrature_component_norms):
        for module in (slicelab.norms, ex):
            monkeypatch.setattr(module, "state_component_norms",
                                component_norms)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            runs.append(ex.mc_global_regularity(g, sl.Params(s=0.0), **kw))
    got, want = runs
    assert len({r.trigger_time for r in got.amplitude_records
                if r.triggered}) >= 2
    for a, b in zip(got.amplitude_records, want.amplitude_records):
        assert (a.triggered, a.trigger_time) == (b.triggered, b.trigger_time)
        assert abs(a.trigger_value - b.trigger_value) <= \
            1e-13 * b.trigger_value
    assert repr(got.gbm_records) == repr(want.gbm_records)


def test_mc_global_takes_one_norm_pass_per_batch_step(tor16, monkeypatch):
    # a single batch: after the data's and the start's norms, each step is
    # followed by exactly one state norm (3 Parseval sums, one per
    # component) for all its paths
    import slicelab.norms
    events = []
    real_norm = slicelab.norms._parseval
    monkeypatch.setattr(slicelab.norms, "_parseval",
                        lambda *a: events.append("N") or real_norm(*a))
    monkeypatch.setattr(ex, "step_transformed",
                        lambda *a, **k: events.append("S") or
                        st.step_transformed(*a, **k))
    monkeypatch.setattr(ex, "_BATCH_VALUES", 8 * tor16.nx * tor16.nz)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = ex.mc_global_regularity(
            tor16, sl.Params(s=0.0), alpha=6.0, r=1.3, amplitude=0.3,
            n_paths=8, horizon=0.05, dt=5e-3, seed=4, c_tilde=0.25,
            data_seed=2, max_mode=3)
    assert res.n_diverged == 0
    trace = "".join(events)
    n_steps = trace.count("S")
    assert n_steps >= 2
    assert trace == "NNN" * 2 + "SNNN" * n_steps
