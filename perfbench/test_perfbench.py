"""Self-tests of the benchmark: every output check passes on real output of
a small run of its workload and rejects a doctored copy of it, and traced
runs count the same work twice.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import LAYER_UNITS, run_once  # noqa: E402
from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS, gbm_record, render  # noqa: E402

SEED = 4


def small_run(tmp_path, name, traced=False, index=0):
    w = WORKLOADS[name]
    cfg = w.config(SEED, True)
    (tmp_path / "run.cfg").write_text(render(cfg))
    rec, out_dir = run_once(w, cfg, str(tmp_path), index, traced)
    assert rec is not None, "the child run failed"
    return w, cfg, out_dir, rec["status"], rec


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    runs = {}
    for name in WORKLOADS:
        runs[name] = small_run(tmp_path_factory.mktemp(name), name)
    return runs


def doctored(outputs, name, tmp_path):
    w, cfg, out_dir, status, _ = outputs[name]
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    return w, cfg, copy, status


def edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh, skipinitialspace=True))
    head = [h.strip() for h in rows[0]]
    body = [dict(zip(head, r)) for r in rows[1:] if r]
    edit(body)
    with open(path, "w") as fh:
        fh.write(", ".join(head) + "\n")
        for r in body:
            fh.write(",".join(r[h] for h in head) + "\n")


def edit_summary(path, **changes):
    lines = []
    for line in path.read_text().splitlines():
        key = line.partition("=")[0].strip()
        lines.append(f"{key} = {changes[key]}" if key in changes else line)
    path.write_text("\n".join(lines) + "\n")


def failed(w, cfg, out_dir, status):
    return w.check(cfg, str(out_dir), status)[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_pass_on_real_output(outputs, name):
    w, cfg, out_dir, status, _ = outputs[name]
    ops, bad, reasons = w.check(cfg, out_dir, status)
    assert ops >= 1 and bad == 0, reasons


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_unexpected_exit_status_fails(outputs, name):
    w, cfg, out_dir, _, _ = outputs[name]
    ops, bad, _ = w.check(cfg, out_dir, 2)
    assert bad == ops


def _scale_row(column, row_index, factor):
    def edit(rows):
        rows[row_index][column] = repr(float(rows[row_index][column])
                                       * factor)
    return edit


@pytest.mark.parametrize("column,row,factor", [
    ("energy", -1, 1.0 + 1e-5),      # energy no longer conserved
    ("cutoff_ut", 2, 0.5),           # a cut-off left the plateau
    ("t", 3, 1.01),                  # time off the k dt grid
    ("max_div", 1, 1e6),             # divergence far from machine zero
])
def test_sim_det_rejects_doctored_rows(outputs, tmp_path, column, row,
                                       factor):
    w, cfg, out, status = doctored(outputs, "sim-det-square", tmp_path)
    edit_csv(out / "diagnostics.csv", _scale_row(column, row, factor))
    assert failed(w, cfg, out, status) == 1


def test_sim_sde_rejects_perturbed_w(outputs, tmp_path):
    w, cfg, out, status = doctored(outputs, "sim-sde-torus", tmp_path)

    def edit(rows):
        rows[2]["w_t"] = repr(float(rows[2]["w_t"]) + 1e-3)
    edit_csv(out / "diagnostics.csv", edit)
    assert failed(w, cfg, out, status) == 1


@pytest.mark.parametrize("factor,messages", [
    (math.sqrt(1e-3), ["regenerated"]),   # sd dt instead of sqrt(dt)
    (100.0, ["regenerated", "N(0, dt)"]),
])
def test_sim_sde_rejects_wrongly_scaled_increments(outputs, tmp_path, factor,
                                                   messages):
    # lambda stays consistent with the doctored w_t: increments drawn with
    # the wrong standard deviation must be caught by the path itself
    w, cfg, out, status = doctored(outputs, "sim-sde-torus", tmp_path)
    alpha = cfg["noise"]["alpha"]

    def edit(rows):
        for r in rows:
            wt = float(r["w_t"]) * factor
            r["w_t"] = repr(wt)
            r["lambda"] = repr(math.exp(alpha * wt - alpha * alpha / 32.0
                                        * float(r["t"])))
    edit_csv(out / "diagnostics.csv", edit)
    ops, bad, reasons = w.check(cfg, str(out), status)
    assert bad == 1, reasons
    for m in messages:
        assert any(m in r for r in reasons), reasons


@pytest.mark.parametrize("column,value", [
    ("gbm_peak", lambda v: repr(float(v) * (1.0 + 1e-9))),
    ("gbm_triggered", lambda v: "0" if v == "1" else "1"),
])
def test_mc_global_rejects_a_doctored_path(outputs, tmp_path, column, value):
    w, cfg, out, status = doctored(outputs, "mc-global", tmp_path)

    def edit(rows):
        rows[1][column] = value(rows[1][column])
    edit_csv(out / "paths.csv", edit)
    # a flipped trigger also breaks gbm_hits, which fails the whole run
    assert failed(w, cfg, out, status) >= 1


@pytest.mark.parametrize("changes", [{"n_diverged": 1},
                                     {"regular_fraction": 1.5},
                                     {"gbm_hits": 99}])
def test_mc_global_rejects_doctored_summary(outputs, tmp_path, changes):
    w, cfg, out, status = doctored(outputs, "mc-global", tmp_path)
    edit_summary(out / "summary.txt", **changes)
    assert failed(w, cfg, out, status) == cfg["mc"]["n_paths"]


def test_mc_global_small_config_triggers():
    # the small config uses r = 2 so that the crossing branch is checked
    cfg = WORKLOADS["mc-global"].config(SEED, True)
    steps = int(round(cfg["time"]["t_final"] / cfg["time"]["dt"]))
    trig = [gbm_record(SEED, i, cfg["noise"]["alpha"],
                       cfg["monitor"]["threshold"], cfg["time"]["dt"],
                       steps)[0] for i in range(cfg["mc"]["n_paths"])]
    assert any(trig) and not all(trig)


def test_mc_hitting_rejects_a_doctored_hit_count(outputs, tmp_path):
    w, cfg, out, status = doctored(outputs, "mc-hitting", tmp_path)
    n = cfg["mc"]["n_paths"]
    s = dict(line.split(" = ") for line in
             (out / "summary.txt").read_text().splitlines())
    hits = int(s["hits"]) + n // 3
    edit_summary(out / "summary.txt", hits=hits, fraction=repr(hits / n))
    ops, bad, reasons = w.check(cfg, str(out), status)
    assert bad == 1 and any("standard errors" in r for r in reasons), reasons


@pytest.mark.parametrize("changes", [{"hits": 1}, {"oracle": "0.5"}])
def test_mc_hitting_rejects_doctored_summary(outputs, tmp_path, changes):
    w, cfg, out, status = doctored(outputs, "mc-hitting", tmp_path)
    edit_summary(out / "summary.txt", **changes)
    assert failed(w, cfg, out, status) == 1


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

COUNTS = [k for k, unit in LAYER_UNITS.items() if unit in ("count", "bytes")]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat(tmp_path, name):
    counts = []
    for index in (1, 2):
        _, _, out_dir, _, rec = small_run(tmp_path, name, True, index)
        m = layer_metrics(str(tmp_path / f"record{index}.spans"), out_dir,
                          rec["import_s"])
        counts.append({k: m[k] for k in COUNTS + ["norms.distinct_ratio"]})
    assert counts[0] == counts[1]
    # every per-layer metric of BENCHMARK.json is produced, and no other
    assert set(m) | {"trace.overhead"} == set(LAYER_UNITS)


def test_reference_transform_counts(tmp_path):
    # 24 transforms per plain tendency, 36 per truncated one, 100 per RK4
    # step of the transformed system, 40 per Z^{3,2} state norm
    _, _, out_dir, _, rec = small_run(tmp_path, "sim-det-square", True, 1)
    det = layer_metrics(str(tmp_path / "record1.spans"), out_dir,
                        rec["import_s"])
    assert det["grid.transforms_per_rhs"] == 36
    assert det["grid.transforms_per_step"] == 4 * 36 + 4
    _, _, out_dir, _, rec = small_run(tmp_path, "mc-global", True, 2)
    prefix = str(tmp_path / "record2.spans")
    mcg = layer_metrics(prefix, out_dir, rec["import_s"])
    assert mcg["grid.transforms_per_rhs"] == 24
    assert mcg["grid.transforms_per_step"] == 100
    # mc-global takes only Z^{3,2} norms: 3 field norms per state norm
    with np.load(prefix + ".npz") as z:
        sid, parent = z["span_name"], z["parent"]
    names = json.loads(open(prefix + ".json").read())["names"]
    norm_id = names.index("norms.field_norm")
    in_norm = np.isin(parent, np.nonzero(sid == norm_id)[0])
    transforms = np.sum(in_norm & (sid == names.index("grid.transform")))
    assert transforms / (mcg["norms.norm_calls"] / 3) == 40


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-hitting",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
