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
