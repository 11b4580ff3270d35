"""Config parsing, checkpoint format, CSV schema, runner statuses, CLI."""

import math
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

import slicelab as sl
from slicelab.checkpoint import RunStamp, read_checkpoint, write_checkpoint
from slicelab.cli import build_parser, main as cli_main
from slicelab.config import MODES, parse_config, render_config
from slicelab.errors import DiagnosticsFormatError
from slicelab.runio import (DiagnosticsRecord, _open_diagnostics,
                            append_diagnostics, format_row)
from slicelab.runner import run
from slicelab.state import SimState

from helpers import (read_diagnostics, read_stopping_record,
                     state_max_abs_diff)


def _sim_text(out, *, extra="", t_final="0.05", dt="5e-3", s="0",
              amplitude="0.3"):
    return (f"[grid]\nnx = 16\n[params]\ns = {s}\n"
            f"[time]\ndt = {dt}\nt_final = {t_final}\n"
            f"[data]\namplitude = {amplitude}\nseed = 7\n"
            f"[output]\nout_dir = {out}\n" + extra)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_minimal_config_gets_paper_defaults():
    cfg = parse_config("[grid]\nnx = 16\n[time]\ndt = 1e-2\nt_final = 0.1\n",
                       mode="sim-det")
    assert cfg.f == cfg.g == cfg.theta0 == cfg.s == 1.0
    assert cfg.nz == 16 and cfg.lx == 2 * math.pi and cfg.lz == 2 * math.pi
    assert cfg.geometry == "torus" and cfg.seed == 0


def test_square_default_extent():
    cfg = parse_config("[grid]\ngeometry = square\nnx = 16\n"
                       "[time]\ndt = 1e-2\nt_final = 0.1\n", mode="sim-det")
    assert cfg.lx == math.pi and cfg.lz == math.pi


def test_config_echo_round_trips():
    cfg = parse_config("seed = 11\n[grid]\nnx = 32\nnz = 16\n[noise]\n"
                       "alpha = 0.5\n[time]\ndt = 1e-2\nt_final = 0.5\n"
                       "[monitor]\nradius = 2.5\n", mode="sim-sde")
    assert parse_config(render_config(cfg)) == cfg


# a value other than the default for every (section, key)
_EVERY_KEY = {
    ("", "mode"): "mc-global", ("", "seed"): 5,
    ("grid", "geometry"): "square", ("grid", "nx"): 16, ("grid", "nz"): 32,
    ("grid", "lx"): 2.0, ("grid", "lz"): 3.0,
    ("params", "f"): 0.5, ("params", "g"): 2.0, ("params", "theta0"): 1.5,
    ("params", "s"): 0.0,
    ("noise", "alpha"): 20.0,
    ("time", "dt"): 0.01, ("time", "t_final"): 0.05,
    ("time", "restart"): "ck.bin",
    ("monitor", "radius"): 2.5, ("monitor", "threshold"): 3.0,
    ("monitor", "c_tilde"): 0.5, ("monitor", "k"): 2, ("monitor", "p"): 3.0,
    ("data", "amplitude"): 0.2, ("data", "seed"): 9,
    ("data", "max_mode"): 3,
    ("mc", "n_paths"): 8, ("mc", "levels"): 3,
    ("output", "out_dir"): "out", ("output", "stride"): 2,
    ("output", "loop_radius"): 0.4, ("output", "loop_cx"): 1.0,
    ("output", "loop_cz"): 1.2, ("output", "loop_points"): 64,
}


def test_every_key_round_trips_with_its_field_type():
    import dataclasses
    import typing
    from slicelab.config import _SCHEMA, RunConfig
    assert set(_EVERY_KEY) == {(s, k) for s, keys in _SCHEMA.items()
                               for k in keys}
    text = "\n".join(f"{'[' + s + ']' if s else ''}\n{k} = {v}"
                     for (s, k), v in _EVERY_KEY.items())
    cfg = parse_config(text)
    assert parse_config(render_config(cfg)) == cfg
    got = {("data_seed" if (s, k) == ("data", "seed") else k): v
           for (s, k), v in _EVERY_KEY.items()}
    hints = typing.get_type_hints(RunConfig)
    for field in dataclasses.fields(RunConfig):
        value = getattr(cfg, field.name)
        assert value == got[field.name] != field.default, field.name
        assert type(value) in typing.get_args(hints[field.name]) + (
            hints[field.name],), field.name


def test_power_of_two_rule_names_key_and_line():
    with pytest.raises(sl.ConfigError, match=r"nx = 7 at line 2.*power"):
        parse_config("[grid]\nnx = 7\n[time]\ndt = 1e-2\nt_final = 0.1\n",
                     mode="sim-det")


def test_duplicate_key_cites_both_lines():
    with pytest.raises(sl.ConfigError, match=r"duplicate key 'nx'.*2 and 3"):
        parse_config("[grid]\nnx = 16\nnx = 32\n", mode="sim-det")


def test_unknown_key_and_section_errors():
    with pytest.raises(sl.ConfigError, match=r"unknown key 'wat' at line 1"):
        parse_config("wat = 3\n", mode="sim-det")
    with pytest.raises(sl.ConfigError, match=r"unknown section \[nope\]"):
        parse_config("[nope]\nx = 1\n", mode="sim-det")


def test_type_mismatch_names_key():
    with pytest.raises(sl.ConfigError, match=r"'nx' at line 2"):
        parse_config("[grid]\nnx = hello\n", mode="sim-det")
    with pytest.raises(sl.ConfigError, match=r"'dt' at line 2"):
        parse_config("[time]\ndt = fast\n[grid]\nnx = 16\n", mode="sim-det")


def test_missing_required_key_names_it():
    with pytest.raises(sl.ConfigError, match=r"\[time\] dt"):
        parse_config("[grid]\nnx = 16\n[time]\nt_final = 1.0\n",
                     mode="sim-det")
    with pytest.raises(sl.ConfigError, match=r"\[grid\] nx"):
        parse_config("[time]\ndt = 1e-2\nt_final = 1.0\n", mode="sim-det")


def test_mode_conflict_is_an_error():
    with pytest.raises(sl.ConfigError, match="conflicts"):
        parse_config("mode = sim-det\n[grid]\nnx = 16\n[time]\ndt = 1e-2\n"
                     "t_final = 0.1\n", mode="sim-sde")


def test_mc_global_refuses_nonzero_s():
    text = ("[grid]\nnx = 16\n[noise]\nalpha = 20\n[time]\ndt = 1e-2\n"
            "t_final = 0.1\n[monitor]\nthreshold = 2\n")
    with pytest.raises(sl.ConfigError, match="s = 0"):
        parse_config(text, mode="mc-global")
    # and the same text passes once s is zeroed
    cfg = parse_config(text + "[params]\ns = 0\n", mode="mc-global")
    assert cfg.mode == "mc-global"


def test_t_final_must_sit_on_the_dt_grid():
    with pytest.raises(sl.ConfigError, match="integer multiple"):
        parse_config("[grid]\nnx = 16\n[time]\ndt = 3e-3\nt_final = 0.01\n",
                     mode="sim-det")


def test_overrides_apply():
    cfg = parse_config("[grid]\nnx = 16\n[time]\ndt = 1e-2\nt_final = 0.1\n",
                       mode="sim-det", seed=99, out_dir="/tmp/elsewhere")
    assert cfg.seed == 99 and cfg.out_dir == "/tmp/elsewhere"


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tor16():
    return sl.make_grid("torus", 16, 16, 2 * np.pi, 2 * np.pi)


def test_checkpoint_round_trip_bit_exact(tor16, tmp_path):
    st = sl.random_state(tor16, seed=5, max_mode=3, amplitude=0.7)
    p = sl.Params(f=2.0, g=0.5, theta0=1.5, s=0.0)
    path = tmp_path / "a.bin"
    stamp = RunStamp("sim-transform", 11, 5e-3, 7, -0.25)
    write_checkpoint(st, p, path, alpha=0.25, stamp=stamp)
    st2, p2, a2, stamp2 = read_checkpoint(path)
    assert state_max_abs_diff(st, st2) == 0.0
    assert [c.tobytes() for c in st2.coefs] == [c.tobytes() for c in st.coefs]
    assert st2.t == st.t and p2 == p and a2 == 0.25 and stamp2 == stamp


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_checkpoint_of_a_stepped_state_holds_its_coefficients(tmp_path,
                                                             geometry):
    g = sl.make_grid(geometry, 16, 8, 2 * np.pi, np.pi)
    st = sl.step_rk4(sl.random_state(g, seed=5), sl.Params(), 1e-3)
    path = tmp_path / "c.bin"
    write_checkpoint(st, sl.Params(), path)
    st2 = read_checkpoint(path)[0]
    assert st2.t == st.t and path.read_bytes()[129] == 1
    assert [c.tobytes() for c in st2.coefs] == [
        c.tobytes() for c in st.coefs]
    # torus coefficients are the complex half spectrum, 16 bytes a slot
    slots = 8 * (16 // 2 + 1) * 16 if geometry == "torus" else 8 * 16 * 8
    assert len(path.read_bytes()) == 134 + 4 * slots


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_a_read_back_initial_state_steps_as_the_original(tmp_path, geometry):
    # a state made from values is written as its coefficients too, so a
    # run restarted from its step-0 checkpoint steps as the run would have
    g = sl.make_grid(geometry, 16, 8, 2 * np.pi, np.pi)
    st = sl.random_state(g, seed=5)
    path = tmp_path / "i.bin"
    write_checkpoint(st, sl.Params(), path)
    back = read_checkpoint(path)[0]
    assert path.read_bytes()[129] == 1
    for step in (lambda s: sl.step_rk4(s, sl.Params(), 1e-3),
                 lambda s: sl.step_em(s, sl.Params(), 1e-3, 0.02,
                                      sl.LinearMultiplicative(0.5))):
        assert [c.tobytes() for c in step(back).coefs] == [
            c.tobytes() for c in step(st).coefs]


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_a_values_checkpoint_is_refused(tmp_path, geometry):
    # payload kind 0, as an older build wrote a state made from values: the
    # header packed by hand, then the four value blocks
    g = sl.make_grid(geometry, 16, 8, 2 * np.pi, np.pi)
    arrays = sl.random_state(g, seed=5).values
    blob = (struct.pack("<4sIBII", b"ISMC", 2, geometry == "square", 16, 8)
            + struct.pack("<8d", g.lx, g.lz, 0.5, 1.0, 1.0, 1.0, 1.0, 0.0)
            + struct.pack("<16sqdQdBI", b"sim-det", 7, 1e-3, 3, 0.0, 0, 0)
            + b"".join(np.asarray(a, "<f8").tobytes() for a in arrays))
    path = tmp_path / "v.bin"
    path.write_bytes(blob)
    with pytest.raises(sl.CheckpointFormatError,
                       match="unsupported payload kind 0") as err:
        read_checkpoint(path)
    assert err.value.offset == 129


def test_checkpoint_layout(tor16, tmp_path):
    st = sl.zero_state(tor16)
    path = tmp_path / "z.bin"
    write_checkpoint(st, sl.Params(), path,
                     stamp=RunStamp("sim-sde", -3, 0.5, 9, 1.25))
    blob = path.read_bytes()
    assert blob[:4] == b"ISMC"
    assert int.from_bytes(blob[4:8], "little") == 2
    assert blob[8] == 0  # torus
    assert int.from_bytes(blob[9:13], "little") == 16
    assert blob[81:97] == b"sim-sde" + bytes(9)
    assert struct.unpack("<qdQd", blob[97:129]) == (-3, 0.5, 9, 1.25)
    assert blob[129] == 1  # a coefficients payload
    assert int.from_bytes(blob[130:134], "little") == 0  # no loop points
    assert len(blob) == 134 + 4 * 16 * (16 // 2 + 1) * 16


def test_checkpoint_bad_magic_offset_zero(tor16, tmp_path):
    path = tmp_path / "a.bin"
    write_checkpoint(sl.zero_state(tor16), sl.Params(), path)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXX" + path.read_bytes()[4:])
    with pytest.raises(sl.CheckpointFormatError) as err:
        read_checkpoint(bad)
    assert err.value.offset == 0


def test_checkpoint_bad_version_and_truncation(tor16, tmp_path):
    path = tmp_path / "a.bin"
    write_checkpoint(sl.zero_state(tor16), sl.Params(), path)
    blob = path.read_bytes()
    wrongver = tmp_path / "v.bin"
    wrongver.write_bytes(blob[:4] + (9).to_bytes(4, "little") + blob[8:])
    with pytest.raises(sl.CheckpointFormatError) as err:
        read_checkpoint(wrongver)
    assert err.value.offset == 4
    for cut in (100, 1000):
        trunc = tmp_path / "t.bin"
        trunc.write_bytes(blob[:cut])
        with pytest.raises(sl.CheckpointFormatError, match="16x16"):
            read_checkpoint(trunc)


def test_version_1_checkpoint_is_refused_by_name(tor16, tmp_path):
    # the version-1 layout: the version-2 header without its run block
    path = tmp_path / "a.bin"
    write_checkpoint(sl.random_state(tor16, seed=5), sl.Params(), path)
    blob = path.read_bytes()
    old = tmp_path / "v1.bin"
    old.write_bytes(blob[:4] + (1).to_bytes(4, "little") + blob[8:81]
                    + blob[134:])
    with pytest.raises(sl.CheckpointFormatError,
                       match="checkpoint version 1") as err:
        read_checkpoint(old)
    assert err.value.offset == 4
    cfg = tmp_path / "dg.cfg"
    cfg.write_text(f"[time]\nrestart = {old}\n")
    assert cli_main(["diag", "--config", str(cfg), "--out-dir",
                     str(tmp_path / "dg")]) != 0


def test_failed_checkpoint_write_keeps_previous(tor16, tmp_path):
    st = sl.random_state(tor16, seed=5, max_mode=3, amplitude=0.7)
    path = tmp_path / "checkpoint.bin"
    write_checkpoint(st, sl.Params(), path, alpha=0.25)
    good = path.read_bytes()

    class Failing:
        # a payload block whose bytes cannot be had: the write fails
        # after the header
        def __array__(self, *args, **kwargs):
            raise OSError("disk full")
    zero = sl.zero_state(tor16)
    broken = SimState(tor16, 0.0, (*zero.coefs[:3], Failing()))
    with pytest.raises(OSError, match="disk full"):
        write_checkpoint(broken, sl.Params(), path)
    assert path.read_bytes() == good
    assert [q.name for q in tmp_path.iterdir()] == ["checkpoint.bin"]
    st2, _, alpha, _ = read_checkpoint(path)
    assert state_max_abs_diff(st, st2) == 0.0 and alpha == 0.25


def test_checkpoint_geometry_mismatch(tor16, tmp_path):
    path = tmp_path / "a.bin"
    write_checkpoint(sl.zero_state(tor16), sl.Params(), path)
    square = sl.make_grid("square", 16, 16, np.pi, np.pi)
    with pytest.raises(sl.ConfigError, match="geometry mismatch"):
        read_checkpoint(path, expect_grid=square)


# ---------------------------------------------------------------------------
# diagnostics CSV
# ---------------------------------------------------------------------------

def test_header_written_exactly(tmp_path):
    path = tmp_path / "d.csv"
    rec = DiagnosticsRecord(0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                            0.0, 1.0)
    with _open_diagnostics(path) as fh:
        append_diagnostics(rec, fh)
    first = path.read_text().splitlines()[0]
    assert first == ("t, energy, l2_us, l2_ut, l2_th, w1inf_us, w1inf_ut, "
                     "w1inf_th, zkp, max_div, enstrophy_q2, circulation, "
                     "lambda, w_t, cutoff_us, cutoff_ut, cutoff_th")


def test_absent_quantities_are_empty_fields(tmp_path):
    rec = DiagnosticsRecord(0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                            0.0, 1.0)
    row = format_row(rec)
    fields = row.split(",")
    assert len(fields) == 17
    assert fields[11] == "" and fields[12] == "" and fields[13] == ""
    assert fields[14] == fields[15] == fields[16] == ""


def test_append_header_mismatch_errors(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("t, energy\n0.0,1.0\n")
    rec = DiagnosticsRecord(0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                            0.0, 1.0)
    with pytest.raises(DiagnosticsFormatError, match="header mismatch"):
        with _open_diagnostics(path) as fh:
            append_diagnostics(rec, fh)


def test_read_non_numeric_cell_errors(tmp_path):
    path = tmp_path / "d.csv"
    cells = ["0.5"] * len(sl.CSV_HEADER.split(","))
    path.write_text(sl.CSV_HEADER + "\n" + ",".join(cells) + "\n"
                    + ",".join(["abc"] + cells[1:]) + "\n")
    with pytest.raises(DiagnosticsFormatError,
                       match="row at line 3 has a non-numeric field"):
        read_diagnostics(path)


_finite = hst.floats(allow_nan=False, allow_infinity=False, width=64)


@given(hst.lists(_finite, min_size=11, max_size=11),
       hst.lists(hst.one_of(hst.none(), _finite), min_size=6, max_size=6))
def test_rows_roundtrip_to_full_precision(required, optional):
    rec = DiagnosticsRecord(*required, *optional)
    with tempfile.TemporaryDirectory() as d:
        path = d + "/r.csv"
        with _open_diagnostics(path) as fh:
            append_diagnostics(rec, fh)
        back = read_diagnostics(path)[0]
    assert back == rec  # repr round trip is exact for binary64


# ---------------------------------------------------------------------------
# runner statuses and invariants
# ---------------------------------------------------------------------------

def test_sim_det_completes_with_row_at_t_final(tmp_path):
    out = tmp_path / "det"
    cfg = parse_config(_sim_text(out, extra="loop_radius = 1.0\n"),
                       mode="sim-det")
    res = run(cfg)
    assert res.status == 0
    rows = read_diagnostics(out / "diagnostics.csv")
    assert len(rows) == 11
    assert rows[-1].t == pytest.approx(0.05, abs=1e-12)
    assert rows[0].lambda_ is None and rows[0].w_t is None
    assert rows[0].circulation is not None
    assert (out / "config.txt").exists()
    assert (out / "checkpoint.bin").exists()


def test_restart_matches_uninterrupted_run(tmp_path):
    full, half, rest = (tmp_path / d for d in ("full", "half", "rest"))
    run(parse_config(_sim_text(full, t_final="0.1"), mode="sim-det"))
    run(parse_config(_sim_text(half, t_final="0.05"), mode="sim-det"))
    ck = half / "checkpoint.bin"
    run(parse_config(_sim_text(rest, t_final="0.05",
                               extra=f"[time]\nrestart = {ck}\n"),
                     mode="sim-det"))
    full_rows = (full / "diagnostics.csv").read_text().splitlines()
    rest_rows = (rest / "diagnostics.csv").read_text().splitlines()
    # the restarted rows reproduce the uninterrupted tail byte for byte
    assert rest_rows[1:] == full_rows[11:]
    assert (full / "checkpoint.bin").read_bytes() == \
        (rest / "checkpoint.bin").read_bytes()


@pytest.mark.parametrize("mode", ["sim-sde", "sim-transform"])
def test_stochastic_restart_matches_uninterrupted_run(tmp_path, mode):
    # the restarted segment continues the run's own Wiener path
    def sim(out, t_final, extra=""):
        run(parse_config(
            f"[grid]\nnx = 32\n[params]\ns = 0\n[noise]\nalpha = 0.7\n"
            f"[time]\ndt = 5e-3\nt_final = {t_final}\n{extra}"
            f"[data]\namplitude = 0.3\nseed = 7\n"
            f"[output]\nout_dir = {out}\n", mode=mode, seed=11))
    full, half, rest = (tmp_path / d for d in ("full", "half", "rest"))
    sim(full, "0.1")
    sim(half, "0.05")
    sim(rest, "0.05", extra=f"restart = {half / 'checkpoint.bin'}\n")
    full_rows = (full / "diagnostics.csv").read_text().splitlines()
    rest_rows = (rest / "diagnostics.csv").read_text().splitlines()
    assert rest_rows[1:] == full_rows[11:]
    assert (full / "checkpoint.bin").read_bytes() == \
        (rest / "checkpoint.bin").read_bytes()


def _truncated_sim(out, t_final, geometry="square", extra=""):
    # truncated sim-det with a loop and a row at every state: each step
    # takes its first stage from the first-derivative pass of its row
    return parse_config(
        f"[grid]\ngeometry = {geometry}\nnx = 16\n[params]\ns = 0.5\n"
        f"[time]\ndt = 5e-3\nt_final = {t_final}\n{extra}"
        f"[monitor]\nradius = 50\n[data]\namplitude = 0.3\nseed = 7\n"
        f"[output]\nout_dir = {out}\nstride = 1\nloop_radius = 0.5\n",
        mode="sim-det")


def test_truncated_square_restart_matches_uninterrupted_run(tmp_path):
    full, half, rest = (tmp_path / d for d in ("full", "half", "rest"))
    run(_truncated_sim(full, "0.1"))
    run(_truncated_sim(half, "0.05"))
    run(_truncated_sim(rest, "0.05",
                       extra=f"restart = {half / 'checkpoint.bin'}\n"))
    full_rows = (full / "diagnostics.csv").read_text().splitlines()
    rest_rows = (rest / "diagnostics.csv").read_text().splitlines()
    assert len(full_rows) == 22
    assert rest_rows[1:] == full_rows[11:]
    assert (full / "checkpoint.bin").read_bytes() == \
        (rest / "checkpoint.bin").read_bytes()


@pytest.mark.filterwarnings(
    "ignore::slicelab.diagnostics.EnergyAccountingWarning")
@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_a_run_hands_each_step_its_own_state_pass(tmp_path, geometry):
    # the run's states are the stepper's own, taken without handing
    cfg = _truncated_sim(tmp_path, "0.05", geometry)
    res = run(cfg)
    assert res.status == 0
    state = sl.random_state(cfg.grid(), seed=7, max_mode=cfg.max_mode,
                            amplitude=0.3)
    for _ in range(10):
        state = sl.step_rk4(state, cfg.params, 5e-3, radius=50.0)
    assert [a.tobytes() for a in res.final_state.values] == [
        a.tobytes() for a in state.values]


def _restart_config(out, mode, geometry, t_final, extra=""):
    # s != 0 on the square; sim-det is truncated at a radius that its
    # W^{1,inf} norm crosses after the restart point (step 19 on the
    # torus, 15 on the square), so the run stops by its monitor
    noise = "" if mode == "sim-det" else "[noise]\nalpha = 0.7\n"
    monitor = "[monitor]\nradius = 0.95\n" if mode == "sim-det" else ""
    return parse_config(
        f"[grid]\ngeometry = {geometry}\nnx = 16\n[params]\ns = 0.5\n"
        f"{noise}[time]\ndt = 5e-3\nt_final = {t_final}\n{extra}{monitor}"
        f"[data]\namplitude = 0.3\nseed = 7\nmax_mode = 3\n[output]\n"
        f"out_dir = {out}\nstride = 2\nloop_radius = 0.5\n", mode=mode,
        seed=11)


@pytest.mark.filterwarnings(
    "ignore::slicelab.diagnostics.EnergyAccountingWarning")
@pytest.mark.parametrize("geometry", ["torus", "square"])
@pytest.mark.parametrize("mode", ["sim-det", "sim-sde", "sim-transform"])
def test_restart_from_a_stepped_state_continues_bit_for_bit(
        tmp_path, mode, geometry):
    # the checkpoint holds the state's coefficients, so the
    # restarted run's rows, stop and final checkpoint are the
    # uninterrupted run's, byte for byte
    full, half, rest = (tmp_path / d for d in ("full", "half", "rest"))
    status = run(_restart_config(full, mode, geometry, "0.1")).status
    assert status == (2 if mode == "sim-det" else 0)
    assert run(_restart_config(half, mode, geometry, "0.05")).status == 0
    ck = half / "checkpoint.bin"
    assert ck.read_bytes()[129] == 1
    assert run(_restart_config(rest, mode, geometry, "0.05",
                               f"restart = {ck}\n")).status == status
    full_rows = (full / "diagnostics.csv").read_text().splitlines()
    rest_rows = (rest / "diagnostics.csv").read_text().splitlines()
    assert len(rest_rows) > 2 and rest_rows[1:] == full_rows[6:]
    for name in ("checkpoint.bin", "stopping.txt"):
        assert (full / name).exists() == (rest / name).exists()
        if (full / name).exists():
            assert (full / name).read_bytes() == (rest / name).read_bytes()


@pytest.mark.filterwarnings(
    "ignore::slicelab.diagnostics.EnergyAccountingWarning")
@pytest.mark.parametrize("key,mode,seed,dt", [
    ("mode", "sim-sde", 11, "5e-3"),
    ("seed", "sim-transform", 12, "5e-3"),
    ("dt", "sim-transform", 11, "2.5e-3")])
def test_cli_refuses_a_restart_of_another_run(tmp_path, capsys, key, mode,
                                              seed, dt):
    # a sim-transform checkpoint holds v = e^{-alpha W} u on the run's own
    # Wiener path: another mode, seed or dt would take it as something else
    half = tmp_path / "half"
    run(_restart_config(half, "sim-transform", "torus", "0.05"))
    cfg = tmp_path / "rs.cfg"
    cfg.write_text(render_config(_restart_config(
        tmp_path / "rest", mode, "torus", "0.05",
        f"restart = {half / 'checkpoint.bin'}\n")).replace(
        "dt = 0.005", f"dt = {dt}"))
    assert cli_main([mode, "--config", str(cfg), "--seed", str(seed)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"slicelab: restart mismatch: checkpoint has "
                          f"{key} = ")
    assert not (tmp_path / "rest" / "diagnostics.csv").exists()


def test_restart_param_mismatch_refused(tmp_path):
    half = tmp_path / "half"
    run(parse_config(_sim_text(half, t_final="0.05"), mode="sim-det"))
    ck = half / "checkpoint.bin"
    bad = parse_config(_sim_text(tmp_path / "bad", t_final="0.05", s="0",
                                 extra=f"[time]\nrestart = {ck}\n")
                       .replace("s = 0", "s = 0.5"), mode="sim-det")
    with pytest.raises(sl.ConfigError, match="restart mismatch"):
        run(bad)


def test_rerun_replaces_diagnostics(tmp_path):
    once, twice = tmp_path / "once", tmp_path / "twice"
    run(parse_config(_sim_text(once), mode="sim-det"))
    for _ in range(2):
        run(parse_config(_sim_text(twice), mode="sim-det"))
    csv = (twice / "diagnostics.csv").read_bytes()
    assert csv == (once / "diagnostics.csv").read_bytes()
    assert len(read_diagnostics(twice / "diagnostics.csv")) == 11


def test_sim_opens_its_diagnostics_once(tmp_path, monkeypatch):
    # one open per run; its bytes are those of row-by-row appends by path
    import slicelab.runner
    opened = []
    real = slicelab.runner._open_diagnostics
    monkeypatch.setattr(slicelab.runner, "_open_diagnostics",
                        lambda path: opened.append(path) or real(path))
    out = tmp_path / "det"
    run(parse_config(_sim_text(out, extra="loop_radius = 1.0\n"),
                     mode="sim-det"))
    assert opened == [str(out / "diagnostics.csv")]
    rows = read_diagnostics(out / "diagnostics.csv")
    assert len(rows) == 11
    for rec in rows:
        with _open_diagnostics(tmp_path / "by_path.csv") as fh:
            append_diagnostics(rec, fh)
    assert ((tmp_path / "by_path.csv").read_bytes()
            == (out / "diagnostics.csv").read_bytes())


def test_rerun_that_completes_drops_an_old_stopping_record(tmp_path):
    out = tmp_path / "run"
    for radius, status in (("1e-6", 2), ("1e9", 0)):
        assert run(parse_config(_sde_text(out, radius),
                                mode="sim-sde")).status == status
    assert not (out / "stopping.txt").exists()


def _sde_text(out, radius, alpha="0.4"):
    return (f"[grid]\nnx = 16\n[params]\ns = 0\n[noise]\nalpha = {alpha}\n"
            f"[time]\ndt = 5e-3\nt_final = 0.05\n[monitor]\n"
            f"radius = {radius}\n[data]\namplitude = 0.3\nseed = 7\n"
            f"[output]\nout_dir = {out}\n")


def test_sde_tiny_radius_stops_with_record(tmp_path):
    out = tmp_path / "stop"
    res = run(parse_config(_sde_text(out, "1e-6"), mode="sim-sde"))
    assert res.status == 2
    rec = read_stopping_record(out / "stopping.txt")
    assert rec.triggered and rec.kind == "norm_threshold"
    assert (out / "checkpoint.bin").exists()


def test_sde_monitor_fires_mid_run(tmp_path):
    # radius just above the initial running norm: the noise pushes the
    # solution over it after a couple of steps
    out = tmp_path / "cross"
    text = (f"[grid]\nnx = 16\n[params]\ns = 0\n[noise]\nalpha = 1.5\n"
            f"[time]\ndt = 5e-3\nt_final = 0.5\n[monitor]\nradius = 0.99\n"
            f"[data]\namplitude = 0.3\nseed = 7\nmax_mode = 3\n"
            f"[output]\nout_dir = {out}\n")
    res = run(parse_config(text, mode="sim-sde", seed=11))
    assert res.status == 2
    rec = read_stopping_record(out / "stopping.txt")
    assert rec.triggered and rec.trigger_time > 0.0
    assert rec.trigger_value >= 0.99


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_huge_dt_diverges_with_last_valid_checkpoint(tmp_path):
    out = tmp_path / "div"
    cfg = parse_config(_sim_text(out, dt="50.0", t_final="200.0",
                                 amplitude="5.0"), mode="sim-det")
    res = run(cfg)
    assert res.status == 3
    st = read_checkpoint(out / "checkpoint.bin")[0]
    from slicelab.state import state_is_finite
    assert state_is_finite(st)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stage_blow_up_checkpoints_the_state_before_the_step(tmp_path):
    # the overflow first shows inside the first step's RK4 stages; the
    # checkpoint is the finite initial state, not a half-step stage
    out = tmp_path / "div"
    cfg = parse_config(_sim_text(out, dt="1e-3", t_final="0.01",
                                 amplitude="1e100"), mode="sim-det")
    assert run(cfg).status == 3
    st = read_checkpoint(out / "checkpoint.bin")[0]
    from slicelab.state import state_is_finite
    assert st.t == 0.0
    assert state_is_finite(st)


@pytest.mark.parametrize("mode,alpha,radius,status", [
    ("sim-det", "0", "1.0", 0),       # inside the plateau throughout
    ("sim-det", "0", "0.6", 2),       # the norm grows past the radius
    ("sim-det", "0", "0.3", 2),       # the first row's cut-offs are < 1
    ("sim-sde", "1.5", "0.7", 2),     # noise carries it over
])
def test_row_cutoffs_and_stop_value_come_from_the_row_norms(
        tmp_path, mode, alpha, radius, status):
    out, r = tmp_path / "run", float(radius)
    text = _sde_text(out, radius, alpha).replace("t_final = 0.05",
                                                  "t_final = 0.5")
    assert run(parse_config(text, mode=mode, seed=11)).status == status
    rows = read_diagnostics(out / "diagnostics.csv")
    for row in rows:
        n_us, n_ut, n_th = row.w1inf_us, row.w1inf_ut, row.w1inf_th
        assert (row.cutoff_us, row.cutoff_ut, row.cutoff_th) == (
            sl.cutoff(n_us, r), sl.cutoff(max(n_us, n_ut), r),
            sl.cutoff(max(n_us, n_th), r))
    if status == 2:
        last, rec = rows[-1], read_stopping_record(out / "stopping.txt")
        assert (rec.trigger_time, rec.trigger_value) == (last.t, max(
            last.w1inf_us, last.w1inf_ut, last.w1inf_th))


def test_sde_outputs_deterministic_for_fixed_seed(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run(parse_config(_sde_text(out, "1e9"), mode="sim-sde"))
        outs.append((out / "diagnostics.csv").read_bytes())
    assert outs[0] == outs[1]
    rows = read_diagnostics(tmp_path / "a" / "diagnostics.csv")
    assert rows[1].lambda_ is not None and rows[1].w_t is not None
    assert rows[1].cutoff_us == 1.0  # far inside the cutoff plateau


def test_transform_mode_runs(tmp_path):
    out = tmp_path / "tr"
    res = run(parse_config(_sde_text(out, "1e9"), mode="sim-transform"))
    assert res.status == 0
    rows = read_diagnostics(out / "diagnostics.csv")
    # Lambda = exp(alpha W - alpha^2 t / 32) along the run's own path
    assert rows[0].lambda_ == 1.0 and rows[0].w_t == 0.0
    for row in rows:
        assert row.lambda_ == pytest.approx(
            math.exp(0.4 * row.w_t - 0.4 ** 2 / 32.0 * row.t), rel=1e-14)
    assert len({row.w_t for row in rows}) > 2


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_mc_hitting(tmp_path):
    cfg = tmp_path / "mh.cfg"
    cfg.write_text("[noise]\nalpha = 1.0\n[time]\ndt = 0.05\n"
                   "t_final = 10.0\n[monitor]\nthreshold = 2.0\n"
                   "[mc]\nn_paths = 200\n")
    out = tmp_path / "mh"
    code = cli_main(["mc-hitting", "--config", str(cfg), "--seed", "3",
                     "--out-dir", str(out)])
    assert code == 0
    summary = (out / "summary.txt").read_text()
    kv = dict(line.split(" = ") for line in summary.splitlines())
    assert kv["n_paths"] == "200"
    assert 0.0 < float(kv["fraction"]) < 1.0
    assert float(kv["oracle"]) < float(kv["oracle_infinite_horizon"])


def test_cli_diag_reads_checkpoint(tmp_path):
    simdir = tmp_path / "sim"
    run(parse_config(_sim_text(simdir), mode="sim-det"))
    cfg = tmp_path / "dg.cfg"
    cfg.write_text(f"[time]\nrestart = {simdir / 'checkpoint.bin'}\n")
    out = tmp_path / "dg"
    code = cli_main(["diag", "--config", str(cfg), "--out-dir", str(out)])
    assert code == 0
    rows = read_diagnostics(out / "diagnostics.csv")
    assert rows[0].t == pytest.approx(0.05, abs=1e-12)


def test_diag_without_grid_takes_the_checkpoint_domain(tmp_path):
    # the default loop centre is the centre of the checkpoint's square, not
    # of the default torus, and the echo names that domain
    sim = tmp_path / "sim"
    run(parse_config("[grid]\ngeometry = square\nnx = 16\n[time]\n"
                     "dt = 5e-3\nt_final = 0.05\n[output]\n"
                     f"out_dir = {sim}\nloop_radius = 0.5\n",
                     mode="sim-det"))
    cfg = tmp_path / "dg.cfg"
    cfg.write_text(f"[time]\nrestart = {sim / 'checkpoint.bin'}\n"
                   "[output]\nloop_radius = 0.5\n")
    out = tmp_path / "dg"
    assert cli_main(["diag", "--config", str(cfg), "--out-dir",
                     str(out)]) == 0
    (row,) = read_diagnostics(out / "diagnostics.csv")
    last = read_diagnostics(sim / "diagnostics.csv")[-1]
    assert row.circulation == last.circulation
    echo = parse_config((out / "config.txt").read_text())
    assert (echo.geometry, echo.nx, echo.nz, echo.lx, echo.lz) == \
        ("square", 16, 16, math.pi, math.pi)
    assert echo.loop_cx == echo.loop_cz == 0.5 * math.pi


def test_diag_echo_names_the_checkpoint_parameters(tmp_path):
    # the row is computed with the checkpoint's f, g, theta0, s and alpha,
    # so the echo must say those, not the defaults of a config without
    # [params]
    sim = tmp_path / "sim"
    run(parse_config("[grid]\ngeometry = square\nnx = 16\n[params]\n"
                     "f = 0.5\ns = 0\n[time]\ndt = 5e-3\nt_final = 0.05\n"
                     f"[output]\nout_dir = {sim}\n", mode="sim-det"))
    cfg = tmp_path / "dg.cfg"
    cfg.write_text(f"[time]\nrestart = {sim / 'checkpoint.bin'}\n")
    out = tmp_path / "dg"
    assert cli_main(["diag", "--config", str(cfg), "--out-dir",
                     str(out)]) == 0
    (row,) = read_diagnostics(out / "diagnostics.csv")
    last = read_diagnostics(sim / "diagnostics.csv")[-1]
    assert row.enstrophy_q2 == last.enstrophy_q2
    echo = parse_config((out / "config.txt").read_text())
    assert (echo.f, echo.g, echo.theta0, echo.s, echo.alpha) == \
        (0.5, 1.0, 1.0, 0.0, 0.0)


def test_cli_missing_config_is_usage_error(tmp_path):
    assert cli_main(["sim-det", "--config",
                     str(tmp_path / "nope.cfg")]) == 1


def test_cli_bad_config_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[grid]\nnx = 7\n")
    assert cli_main(["sim-det", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("mode,max_mode", [("mc-global", 0),
                                           ("mc-global", -2),
                                           ("sim-det", 0)])
def test_cli_max_mode_below_one_is_usage_error(tmp_path, capsys, mode,
                                               max_mode):
    # no band of modes means no initial data: mc-global would divide by
    # its zero norm, and a sim-* run would start from rest
    cfg = tmp_path / "mm.cfg"
    cfg.write_text("[grid]\nnx = 16\n[params]\ns = 0\n[noise]\n"
                   "alpha = 20\n[time]\ndt = 1e-2\nt_final = 0.02\n"
                   "[monitor]\nthreshold = 2\n[mc]\nn_paths = 2\n"
                   f"[data]\namplitude = 0.1\nmax_mode = {max_mode}\n")
    code = cli_main([mode, "--config", str(cfg), "--out-dir",
                     str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("slicelab: ") and "[data] max_mode" in err


@pytest.mark.parametrize("mode", ["sim-det", "diag"])
def test_cli_unreadable_restart_is_usage_error(tmp_path, capsys, mode):
    missing = tmp_path / "no-such" / "checkpoint.bin"
    cfg = tmp_path / "rs.cfg"
    cfg.write_text(_sim_text(tmp_path / "out",
                             extra=f"[time]\nrestart = {missing}\n"))
    assert cli_main([mode, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("slicelab: cannot read checkpoint")
    assert err.count("\n") == 1


def test_cli_unwritable_out_dir_is_usage_error(tmp_path, capsys):
    # the output directory would sit below a file: no directory can be made
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(_sim_text(tmp_path / "out"))
    assert cli_main(["sim-det", "--config", str(cfg), "--out-dir",
                     str(blocker / "sub")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("slicelab: cannot write to output directory")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("mode,seed,extra,key", [
    ("mc-hitting", "-1", "", "seed"),
    ("sim-det", None, "[data]\nseed = -2\n", "[data] seed"),
    ("sim-det", str(2 ** 63), "", "seed")])
def test_cli_seed_out_of_range_is_usage_error(tmp_path, capsys, mode, seed,
                                              extra, key):
    # numpy refuses a negative seed at the first stream, and a seed of
    # 2^63 or more would run to the end and then not fit the checkpoint
    out = tmp_path / "out"
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("[grid]\nnx = 16\n[params]\ns = 0\n[time]\ndt = 1e-2\n"
                   "t_final = 0.02\n[monitor]\nthreshold = 2\n" + extra)
    argv = [mode, "--config", str(cfg), "--out-dir", str(out)]
    assert cli_main(argv + (["--seed", seed] if seed else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"slicelab: {key} must be ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_cli_infinite_extent_is_usage_error(tmp_path, capsys):
    # an infinite domain has no grid spacing: the run wrote nan and inf rows
    out = tmp_path / "out"
    cfg = tmp_path / "lx.cfg"
    cfg.write_text("[grid]\nnx = 16\nlx = inf\n[time]\ndt = 1e-2\n"
                   "t_final = 0.02\n")
    assert cli_main(["sim-det", "--config", str(cfg), "--out-dir",
                     str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("slicelab: domain extents must be finite and "
                          "positive (got inf, ")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("mode", ["mc-global", "mc-hitting"])
def test_cli_infinite_alpha_is_usage_error(tmp_path, capsys, mode):
    # mc-global ran every path to divergence and mc-hitting would draw its
    # paths from inf times a normal
    out = tmp_path / "out"
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text("[grid]\nnx = 16\n[params]\ns = 0\n[noise]\n"
                   "alpha = inf\n[time]\ndt = 1e-2\nt_final = 0.02\n"
                   "[monitor]\nthreshold = 2\n[mc]\nn_paths = 100\n"
                   "[data]\namplitude = 0.1\n")
    assert cli_main([mode, "--config", str(cfg), "--out-dir",
                     str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("slicelab: [noise] alpha must be finite, got inf")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("mode,extra,key", [
    ("mc-hitting", "[monitor]\nthreshold = 2\n[mc]\nn_paths = 50\n",
     "[mc] n_paths"),
    ("convergence", "[mc]\nlevels = 2\n", "[mc] levels"),
    ("mc-global", "[noise]\nalpha = 10\n[monitor]\nthreshold = 2\n"
                  "c_tilde = 1\n", "[noise] alpha, [monitor] c_tilde")],
    ids=["mc-hitting", "convergence", "mc-global"])
def test_cli_harness_floor_is_usage_error(tmp_path, capsys, mode, extra,
                                          key):
    # the harnesses refused these only after the run had made its output
    # directory and written its config echo there
    out = tmp_path / "out"
    cfg = tmp_path / "floor.cfg"
    cfg.write_text("[grid]\nnx = 16\n[params]\ns = 0\n[time]\ndt = 1e-2\n"
                   "t_final = 0.02\n" + extra)
    assert cli_main([mode, "--config", str(cfg), "--out-dir",
                     str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("slicelab: ") and f"({key})" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_cli_convergence_writes_table(tmp_path):
    cfg = tmp_path / "cv.cfg"
    cfg.write_text("[grid]\nnx = 16\n[params]\ns = 0\n[noise]\n"
                   "alpha = 0.5\n[time]\ndt = 2e-2\nt_final = 0.1\n"
                   "[data]\namplitude = 0.25\nseed = 3\nmax_mode = 3\n"
                   "[mc]\nn_paths = 3\n")
    out = tmp_path / "cv"
    code = cli_main(["convergence", "--config", str(cfg), "--seed", "2",
                     "--out-dir", str(out)])
    assert code == 0
    table = (out / "convergence.csv").read_text().splitlines()
    assert table[0] == "level, dt, rms_error"
    assert len(table) == 5
    assert "slope = " in (out / "summary.txt").read_text()


def test_cli_mode_list_matches_modes():
    # each documented subcommand parses; an unknown one does not
    parser = build_parser()
    for mode in MODES:
        ns = parser.parse_args([mode, "--config", "x"])
        assert ns.mode == mode
    with pytest.raises(SystemExit):
        parser.parse_args(["sim-nope", "--config", "x"])


def test_runners_and_subcommands_name_exactly_the_modes():
    import argparse
    from slicelab.config import MODE_TABLE
    from slicelab.runner import _RUNNERS
    sub, = (a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == MODES == tuple(MODE_TABLE)
    assert set(_RUNNERS) == set(MODES) and len(_RUNNERS) == len(MODES)
    assert MODES == ("sim-det", "sim-sde", "sim-transform", "mc-hitting",
                     "mc-global", "convergence", "diag")
