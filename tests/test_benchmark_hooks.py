"""The functions perfbench/spans.py and perfbench/child.py patch from
outside still exist, so a refactor that would break a traced benchmark run
fails here, not only under ``pytest perfbench``."""

import importlib
import importlib.util
import inspect
import os

import pytest

_spec = importlib.util.spec_from_file_location("perfbench_spans", os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "spans.py"))
_spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_spans)
TARGETS = sorted({t for ts in _spans.LAYERS.values() for t in ts} | {
    ("norms", "_field_norm"), ("runner", "_initial_state"),
    ("experiments", "_path_rng")})


@pytest.mark.parametrize("module,attr", TARGETS)
def test_traced_function_exists(module, attr):
    mod = importlib.import_module(f"slicelab.{module}")
    assert inspect.isfunction(getattr(mod, attr, None))


def test_traced_signatures():
    from slicelab.norms import _field_norm
    from slicelab.stochastic import OnlineMonitor
    assert list(inspect.signature(_field_norm).parameters) == [
        "components", "spec"]
    assert inspect.isfunction(OnlineMonitor.update)
