"""Diagnostics CSV and stopping-record files.

The CSV schema is fixed: one header, seventeen columns, absent quantities
as empty fields, floats in shortest round-trip decimal so re-parsing
reproduces every bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .errors import DiagnosticsFormatError
from .stochastic import StoppingRecord

@dataclass(frozen=True)
class DiagnosticsRecord:
    """One monitored-step row; None marks a quantity that does not apply."""

    t: float
    energy: float
    l2_us: float
    l2_ut: float
    l2_th: float
    w1inf_us: float
    w1inf_ut: float
    w1inf_th: float
    zkp: float
    max_div: float
    enstrophy_q2: float
    circulation: float | None = None
    lambda_: float | None = None
    w_t: float | None = None
    cutoff_us: float | None = None
    cutoff_ut: float | None = None
    cutoff_th: float | None = None


_FIELDS = tuple(f.name for f in fields(DiagnosticsRecord))
#: the record's fields in order, `lambda_` written as `lambda`
CSV_HEADER = ", ".join(name.rstrip("_") for name in _FIELDS)


def format_row(rec: DiagnosticsRecord) -> str:
    parts = []
    for name in _FIELDS:
        v = getattr(rec, name)
        parts.append("" if v is None else repr(float(v)))
    return ",".join(parts)


def _check_header(fh, path) -> None:
    head = fh.readline().rstrip("\n")
    if head != CSV_HEADER:
        raise DiagnosticsFormatError(f"header mismatch in {path}: {head!r}")


def _open_diagnostics(path):
    """The CSV opened for appending rows, flushed line by line; the header
    is written to a new or empty file and checked on an existing one."""
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    if not fresh:
        with open(path, "r", encoding="ascii") as fh:
            _check_header(fh, path)
    fh = open(path, "a", encoding="ascii", buffering=1)
    if fresh:
        fh.write(CSV_HEADER + "\n")
    return fh


def append_diagnostics(rec: DiagnosticsRecord, fh) -> None:
    """Append one row to a file from `_open_diagnostics`."""
    fh.write(format_row(rec) + "\n")


def write_stopping_record(rec: StoppingRecord, path) -> None:
    time = ([] if rec.trigger_time is None
            else [("trigger_time", rec.trigger_time)])
    write_key_values([("kind", rec.kind), ("threshold", rec.threshold),
                      ("triggered", "yes" if rec.triggered else "no")]
                     + time + [("trigger_value", rec.trigger_value)], path)


def write_key_values(pairs, path) -> None:
    # summary files for the MC and convergence modes share this shape
    with open(path, "w", encoding="ascii") as fh:
        for key, value in pairs:
            if isinstance(value, float):
                fh.write(f"{key} = {value!r}\n")
            else:
                fh.write(f"{key} = {value}\n")
