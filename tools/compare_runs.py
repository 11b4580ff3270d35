"""Run the same CLI configurations at two revisions and compare their files.

    python3 tools/compare_runs.py REV_A REV_B

Each revision is extracted with ``git archive`` into a temporary directory
and every run imports slicelab from that tree's ``src``.  The runs are the
four ``perfbench/workloads.py`` configurations (imported from this checkout,
read-only) at seeds 1 and 2, plus a truncated square ``sim-sde`` with a
loop and stride 3, a truncated torus ``sim-det`` with a loop and stride 2
that its radius stops off the stride, a torus ``sim-transform`` with a
loop, a square ``convergence`` run, a square ``mc-global`` run and a torus
one whose low threshold stops paths at different steps (all three at 32^2,
16 paths to a batch, with a part-filled last batch of paths), a torus
``mc-global`` run monitoring W^{1,inf} and a square one monitoring
W^{2,3}, an ``mc-hitting`` run at alpha < 0 whose paths first cross in 19
of its 20 blocks (the short last one among them) or never, and a ``diag``
run with a ``[grid]`` section on the ``sim-sde`` checkpoint.  Every run works in the same relative directory under its
tree's run root, so the configs and echoes of the two revisions name the
same paths.

Prints one line per output file: ``same``, ``DIFFERS`` or ``ONLY A``/``ONLY
B``, ignoring the ``out_dir`` line of ``config.txt``, and one line per run
with its exit status at both revisions (``STATUS`` when they differ).  Under
a ``DIFFERS`` line of a CSV file or a ``key = value`` file it prints each
differing column or key with the largest relative difference of its cells,
|a - b| / max(|a|, |b|), or, for ``max_div``, whose cells are roundoff, the
largest absolute difference |a - b|; ``inf`` marks cells that are not both
numbers, or columns whose lengths differ.  Under a ``DIFFERS`` line of a
``checkpoint.bin`` it prints the largest relative difference of the value
arrays that each revision's own ``read_checkpoint`` decodes, per array
max |a - b| / max(max |a|, max |b|), so a changed layout with the same
state reads as a small number; ``inf`` marks a file that a revision cannot
decode or arrays whose shapes differ.
Then prints each revision's size: the line count of ``src/slicelab/*.py``
(as ``wc -l`` counts) and the length of ``slicelab.__all__``, and under
those the names in one revision's ``__all__`` and not the other's, as
``exports only A: ...`` and ``exports only B: ...`` (``none`` when there
are none).  Exits 0 when every status and every file agree.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import WORKLOADS, render  # noqa: E402

# name -> (mode, config); each runs in <run root>/<name>
EXTRA_RUNS = {
    "sim-sde-square-loop": ("sim-sde", {
        "": {"seed": 4},
        "grid": {"geometry": "square", "nx": 32},
        "params": {"s": 0.5},
        "noise": {"alpha": 0.6},
        "time": {"dt": 2e-3, "t_final": 0.04},
        "monitor": {"radius": 1.1},  # stops at step 16, off the stride
        "data": {"seed": 5, "amplitude": 0.4, "max_mode": 3},
        "output": {"stride": 3, "loop_radius": 0.5},
    }),
    # the truncated tendency and the row pass on the torus: every state is
    # monitored, every second one gets a row, and the W^{1,inf} norm grows
    # past the radius at step 13
    "sim-det-torus-loop": ("sim-det", {
        "grid": {"geometry": "torus", "nx": 32},
        "params": {"s": 0.5},
        "time": {"dt": 2e-3, "t_final": 0.04},
        "monitor": {"radius": 1.109},
        "data": {"seed": 19, "amplitude": 0.4, "max_mode": 3},
        "output": {"stride": 2, "loop_radius": 1.0},
    }),
    "sim-transform-torus-loop": ("sim-transform", {
        "": {"seed": 6},
        "grid": {"geometry": "torus", "nx": 32},
        "params": {"s": 0.5},
        "noise": {"alpha": 0.8},
        "time": {"dt": 2e-3, "t_final": 0.04},
        "data": {"seed": 7, "amplitude": 0.3, "max_mode": 3},
        "output": {"stride": 2, "loop_radius": 1.0},
    }),
    # the ensemble harnesses step paths in batches of 16 at 32^2: 18 and 20
    # paths leave part-filled last batches, and the low torus threshold
    # makes paths leave their batch at different steps
    "convergence-square": ("convergence", {
        "": {"seed": 8},
        "grid": {"geometry": "square", "nx": 32},
        "params": {"s": 0.0},
        "noise": {"alpha": 0.5},
        "time": {"dt": 2e-2, "t_final": 0.04},
        "data": {"seed": 9, "amplitude": 0.25, "max_mode": 3},
        "mc": {"n_paths": 18, "levels": 4},
    }),
    "mc-global-square": ("mc-global", {
        "": {"seed": 10},
        "grid": {"geometry": "square", "nx": 32},
        "params": {"s": 0.0},
        "noise": {"alpha": 20.0},
        "time": {"dt": 5e-4, "t_final": 4e-3},
        "monitor": {"threshold": 3.0, "c_tilde": 1.0},
        "data": {"seed": 11, "amplitude": 0.5, "max_mode": 2},
        "mc": {"n_paths": 20},
    }),
    "mc-global-torus-low-threshold": ("mc-global", {
        "": {"seed": 12},
        "grid": {"geometry": "torus", "nx": 32},
        "params": {"s": 0.0},
        "noise": {"alpha": 20.0},
        "time": {"dt": 5e-4, "t_final": 1.2e-2},
        "monitor": {"threshold": 1.5, "c_tilde": 1.0},
        "data": {"seed": 13, "amplitude": 0.5, "max_mode": 2},
        "mc": {"n_paths": 20},
    }),
    # the stacked monitor norms' two reductions, max for p = inf and the
    # power sum for finite p; at this small alpha the norms grow, so each
    # path's amp_peak is taken after t = 0
    "mc-global-torus-w1inf": ("mc-global", {
        "": {"seed": 14},
        "grid": {"geometry": "torus", "nx": 32},
        "params": {"s": 0.0},
        "noise": {"alpha": 0.2},
        "time": {"dt": 5e-4, "t_final": 5e-2},
        "monitor": {"threshold": 1.02, "c_tilde": 1e-4, "k": 1, "p": math.inf},
        "data": {"seed": 15, "amplitude": 5.0, "max_mode": 2},
        "mc": {"n_paths": 9},
    }),
    "mc-global-square-w23": ("mc-global", {
        "": {"seed": 16},
        "grid": {"geometry": "square", "nx": 32},
        "params": {"s": 0.0},
        "noise": {"alpha": 0.2},
        "time": {"dt": 5e-4, "t_final": 5e-2},
        "monitor": {"threshold": 1.02, "c_tilde": 1e-4, "k": 2, "p": 3.0},
        "data": {"seed": 17, "amplitude": 20.0, "max_mode": 2},
        "mc": {"n_paths": 6},
    }),
    # 5000 steps in 19 blocks of 256 and one of 136 at alpha < 0: of the
    # 200 paths, 84 never cross, and the others first cross in 19 of the
    # 20 blocks (48 in the first three, 2 in the short last one)
    "mc-hitting-blocks": ("mc-hitting", {
        "": {"seed": 21},
        "noise": {"alpha": -1.0},
        "time": {"dt": 0.01, "t_final": 50.0},
        "monitor": {"threshold": math.exp(3.0)},
        "mc": {"n_paths": 200},
    }),
    # runs after the sim-sde run above, whose checkpoint it reads
    "diag-square-grid": ("diag", {
        "grid": {"geometry": "square", "nx": 32},
        "time": {"restart": "sim-sde-square-loop/checkpoint.bin"},
        "output": {"loop_radius": 0.5},
    }),
}


def runs():
    out = []
    for name, w in WORKLOADS.items():
        out.extend((f"{name}-s{seed}", w.mode, w.config(seed, False))
                   for seed in (1, 2))
    out.extend((name, mode, cfg) for name, (mode, cfg) in EXTRA_RUNS.items())
    return out


def extract(rev: str, dest: str):
    archive = dest + ".tar"
    subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", "-o",
                    archive, rev], check=True)
    os.makedirs(dest)
    subprocess.run(["tar", "-xf", archive, "-C", dest], check=True)


def _env(tree: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
                OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                MKL_NUM_THREADS="1")


def run_all(tree: str, work: str) -> dict:
    """Exit status of every run, with its outputs under `work`/<name>."""
    env = _env(tree)
    status = {}
    for name, mode, cfg in runs():
        cfg_path = os.path.join(work, f"{name}.cfg")
        with open(cfg_path, "w", encoding="ascii") as fh:
            fh.write(render(cfg))
        status[name] = subprocess.run(
            [sys.executable, "-m", "slicelab", mode, "--config", cfg_path,
             "--out-dir", name], cwd=work, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return status


def tree_size(tree: str) -> tuple:
    """(lines of src/slicelab/*.py, sorted names in slicelab.__all__) of a
    tree."""
    pkg = os.path.join(tree, "src", "slicelab")
    lines = 0
    for name in os.listdir(pkg):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                lines += fh.read().count(b"\n")
    script = "import slicelab; print(*sorted(slicelab.__all__))"
    exports = subprocess.run([sys.executable, "-c", script], env=_env(tree),
                             capture_output=True, text=True,
                             check=True).stdout
    return lines, exports.split()


def print_sizes(revs, sizes) -> None:
    """The size line of each revision, then the exports only one has."""
    for label, rev, (lines, exports) in zip("AB", revs, sizes):
        print(f"size     {label} {rev}: {lines} lines in src/slicelab/*.py, "
              f"{len(exports)} exports")
    (_, names_a), (_, names_b) = sizes
    for label, only in (("A", set(names_a) - set(names_b)),
                        ("B", set(names_b) - set(names_a))):
        print(f"exports only {label}: {', '.join(sorted(only)) or 'none'}")


def _files(top: str) -> set:
    return {os.path.relpath(os.path.join(d, f), top)
            for d, _, names in os.walk(top) for f in names}


def _content(path: str) -> bytes:
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "config.txt":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"out_dir ="))
    return data


def _table(path: str):
    """{column: cells} of a CSV file, {key: [value]} of a ``key = value``
    file, or None for any other file."""
    lines = _content(path).decode("ascii", "replace").splitlines()
    if path.endswith(".csv") and lines:
        rows = [line.split(",") for line in lines[1:]]
        return {col.strip(): [r[i].strip() if i < len(r) else "" for r in rows]
                for i, col in enumerate(lines[0].split(","))}
    if lines and all(" = " in line for line in lines):
        return {k: [v] for k, v in (line.split(" = ", 1) for line in lines)}
    return None


#: columns that are roundoff by construction: compared absolutely
ABSOLUTE = {"max_div"}


def _largest_difference(cells_a: list, cells_b: list,
                        absolute: bool = False) -> float:
    if len(cells_a) != len(cells_b):
        return math.inf
    worst = 0.0
    for x, y in zip(cells_a, cells_b):
        if x == y:
            continue
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            return math.inf
        scale = 1.0 if absolute else max(abs(fx), abs(fy))
        rel = abs(fx - fy) / scale if scale else 0.0
        worst = max(worst, math.inf if math.isnan(rel) else rel)
    return worst


def where_differs(path_a: str, path_b: str) -> list:
    """(column or key, largest difference) for each column or key that
    differs between two CSV or ``key = value`` files: relative, or
    absolute for the columns in `ABSOLUTE`."""
    table_a, table_b = _table(path_a), _table(path_b)
    if table_a is None or table_b is None:
        return []
    keys = list(table_a) + [k for k in table_b if k not in table_a]
    return [(k, _largest_difference(table_a.get(k, []), table_b.get(k, []),
                                     k in ABSOLUTE)
             if k in table_a and k in table_b else math.inf)
            for k in keys if table_a.get(k) != table_b.get(k)]


_DECODE = ("import sys, numpy as np\n"
           "from slicelab.checkpoint import read_checkpoint\n"
           "np.save(sys.argv[2], np.stack("
           "read_checkpoint(sys.argv[1])[0].values))\n")


def decoded_values(tree: str, path: str):
    """The value arrays of a checkpoint as `tree`'s own slicelab decodes
    them, stacked; None when it cannot."""
    with tempfile.TemporaryDirectory(prefix="decode_") as tmp:
        out = os.path.join(tmp, "values.npy")
        done = subprocess.run([sys.executable, "-c", _DECODE, path, out],
                              env=_env(tree), stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode == 0
        return np.load(out) if done else None


def values_difference(values_a, values_b) -> float:
    """Largest relative difference of two stacks of value arrays, per
    array max |a - b| / max(max |a|, max |b|)."""
    if values_a is None or values_b is None or \
            values_a.shape != values_b.shape:
        return math.inf
    worst = 0.0
    for a, b in zip(values_a, values_b):
        scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
        diff = float(np.max(np.abs(a - b)))
        worst = max(worst, diff / scale if scale else diff)
    return math.inf if math.isnan(worst) else worst


def compare(work_a: str, work_b: str, status_a: dict, status_b: dict,
            tree_a: str, tree_b: str) -> int:
    differences = 0
    for name, _, _ in runs():
        same = status_a[name] == status_b[name]
        differences += not same
        print(f"{'same' if same else 'STATUS':8} {name}: exit "
              f"{status_a[name]} vs {status_b[name]}")
        top_a, top_b = (os.path.join(w, name) for w in (work_a, work_b))
        files_a, files_b = _files(top_a), _files(top_b)
        for rel in sorted(files_a | files_b):
            path = os.path.join(name, rel)
            if rel not in files_b:
                verdict = "ONLY A"
            elif rel not in files_a:
                verdict = "ONLY B"
            elif _content(os.path.join(top_a, rel)) == _content(
                    os.path.join(top_b, rel)):
                print(f"same     {path}")
                continue
            else:
                verdict = "DIFFERS"
            differences += 1
            print(f"{verdict:8} {path}")
            if verdict != "DIFFERS":
                continue
            file_a, file_b = (os.path.join(top, rel) for top in (top_a, top_b))
            if os.path.basename(rel) == "checkpoint.bin":
                worst = values_difference(decoded_values(tree_a, file_a),
                                          decoded_values(tree_b, file_b))
                print(f"{'':8}   decoded values: largest relative "
                      f"difference {worst:.3g}")
            for key, worst in where_differs(file_a, file_b):
                kind = "absolute" if key in ABSOLUTE else "relative"
                print(f"{'':8}   {key}: largest {kind} difference "
                      f"{worst:.3g}")
    return differences


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare_runs_") as tmp:
        statuses, works, trees, sizes = [], [], [], []
        for label, rev in zip("AB", argv):
            tree, work = (os.path.join(tmp, label, d) for d in ("tree", "run"))
            os.makedirs(work)
            extract(rev, tree)
            statuses.append(run_all(tree, work))
            works.append(work)
            trees.append(tree)
            sizes.append(tree_size(tree))
        differences = compare(*works, *statuses, *trees)
    print_sizes(argv, sizes)
    print(f"{differences} difference(s) between {argv[0]} and {argv[1]}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
