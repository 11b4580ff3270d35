"""slicelab benchmark: real CLI runs, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round runs ``slicelab <mode> --config ... --out-dir ...`` once, in a
child process of its own with one thread and a fresh output directory, and
checks the outputs.  Rounds repeat until ``--seconds`` have passed (the
last one started is finished).  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` operations, and the
metrics, medians over the rounds.

--trace 0: end-to-end metrics run_s, setup_s and peak_rss_mb.
--trace 1: per-layer metrics from spans recorded around calls into the
layers (perfbench/spans.py); rounds alternate untraced and traced, and
trace.overhead is the traced over the untraced median run_s.

Inputs depend on --seed only; the program must be present as src/slicelab
in the checkout that holds this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS, render  # noqa: E402

WORK_ROOT = os.path.join(ROOT, ".perfbench")
CHILD_TIMEOUT_S = 150.0
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_once(workload, cfg, work_dir, index, traced):
    """One child CLI run.  Returns (record, out_dir); record is None when
    the child itself failed."""
    out_dir = os.path.join(work_dir, f"round{index}")
    prefix = os.path.join(work_dir, f"record{index}")
    cfg_path = os.path.join(work_dir, "run.cfg")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), prefix,
           "1" if traced else "0", workload.mode, "--config", cfg_path,
           "--out-dir", out_dir]
    spawn = time.perf_counter()
    with open(prefix + ".stderr", "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                env=child_env(), cwd=work_dir)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    try:
        with open(prefix + ".json", encoding="ascii") as fh:
            rec = json.load(fh)
    except OSError:
        rec = None
    if code != 0 or rec is None or "setup_end" not in rec:
        with open(prefix + ".stderr", encoding="utf-8",
                  errors="replace") as fh:
            tail = fh.read()[-2000:]
        print(f"perfbench: child exit {code} on {workload.name}:\n{tail}",
              file=sys.stderr)
        return None, out_dir
    rec["setup_s"] = rec["setup_end"] - spawn
    rec["run_s"] = rec["end"] - rec["setup_end"]
    return rec, out_dir


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "slicelab", "cli.py")):
        print(f"perfbench: no slicelab sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cfg = workload.config(args.seed, False)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        return measure(workload, cfg, work_dir, args)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it


def measure(workload, cfg, work_dir, args) -> int:
    with open(os.path.join(work_dir, "run.cfg"), "w", encoding="ascii") as fh:
        fh.write(render(cfg))
    deadline = time.perf_counter() + args.seconds
    attempted = failed = 0
    plain, traced, layers = [], [], []
    index = 0
    # trace 1 alternates untraced and traced rounds, at least one of each
    while time.perf_counter() < deadline or index < 1 + args.trace:
        use_trace = bool(args.trace) and index % 2 == 1
        rec, out_dir = run_once(workload, cfg, work_dir, index, use_trace)
        index += 1
        if rec is None:
            ops = workload.check(cfg, out_dir, -1)[0]
            attempted += ops
            failed += ops
            continue
        ops, bad, reasons = workload.check(cfg, out_dir, rec["status"])
        attempted += ops
        failed += bad
        for why in reasons[:10]:
            print(f"perfbench: {workload.name}: {why}", file=sys.stderr)
        (traced if use_trace else plain).append(rec)
        if use_trace:
            layers.append(layer_metrics(
                os.path.join(work_dir, f"record{index - 1}.spans"),
                out_dir, rec["import_s"]))
        shutil.rmtree(out_dir, ignore_errors=True)

    if not plain or (args.trace and not traced):
        print("perfbench: no successful run", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {k: statistics.median(m[k] for m in layers)
                   for k in layers[0]}
        metrics["trace.overhead"] = (
            statistics.median(r["run_s"] for r in traced)
            / statistics.median(r["run_s"] for r in plain))
        units = LAYER_UNITS
    else:
        metrics = {k: statistics.median(r[k] for r in plain)
                   for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    print(f"perfbench: {workload.name}: run_s of {len(plain)} untraced "
          f"rounds {[round(r['run_s'], 3) for r in plain]}, "
          f"{len(traced)} traced", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
