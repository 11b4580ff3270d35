import importlib.util
import math
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "compare_runs", os.path.join(ROOT, "tools", "compare_runs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path, text):
    path.write_text(text, encoding="ascii")
    return str(path)


def test_where_differs_names_columns_and_keys(tmp_path):
    where = _tool().where_differs
    a = _write(tmp_path / "a.csv", "t, zkp, note\n0.0,2.0,x\n0.5,4.0,y\n")
    b = _write(tmp_path / "b.csv", "t, zkp, note\n0.0,2.0,x\n0.5,4.4,z\n")
    (key, rel), (note, inf) = where(a, b)
    assert key == "zkp" and math.isclose(rel, 0.4 / 4.4)
    assert note == "note" and inf == math.inf
    assert where(a, a) == []
    a = _write(tmp_path / "a.txt", "hits = 3\nfraction = 0.5\n")
    b = _write(tmp_path / "b.txt", "hits = 3\nfraction = 0.25\nextra = 1\n")
    assert where(a, b) == [("fraction", 0.5), ("extra", math.inf)]
    # a file that is neither gives no detail
    c = _write(tmp_path / "c.bin", "\x00\x01")
    assert where(c, c) == []


def test_max_div_differs_absolutely(tmp_path):
    # max_div is roundoff: 1e-14 against 1.3e-14 is no relative 0.23
    where = _tool().where_differs
    a = _write(tmp_path / "a.csv", "t, max_div\n0.0,1e-14\n")
    b = _write(tmp_path / "b.csv", "t, max_div\n0.0,1.3e-14\n")
    ((key, diff),) = where(a, b)
    assert key == "max_div" and math.isclose(diff, 3e-15)


def test_checkpoints_compare_by_their_decoded_values(tmp_path):
    import numpy as np
    import slicelab as sl
    tool = _tool()
    g = sl.make_grid("torus", 16, 16, 2 * np.pi, 2 * np.pi)
    born = sl.random_state(g, seed=3)
    stepped = sl.step_rk4(born, sl.Params(), 1e-3)
    paths = []
    for name, st in (("a", born), ("b", stepped)):
        paths.append(str(tmp_path / f"{name}.bin"))
        sl.write_checkpoint(st, sl.Params(), paths[-1])
    a, b = (tool.decoded_values(ROOT, p) for p in paths)
    assert a.shape == (4, 16, 16)
    assert a.tobytes() == np.stack([born.values]).tobytes()
    want = max(np.max(np.abs(x - y)) / max(np.max(np.abs(x)),
                                           np.max(np.abs(y)))
               for x, y in zip(born.values, stepped.values))
    assert want > 0.0 and tool.values_difference(a, b) == want
    assert tool.values_difference(a, a) == 0.0
    missing = str(tmp_path / "missing.bin")
    assert tool.values_difference(a, tool.decoded_values(ROOT, missing)) \
        == math.inf
