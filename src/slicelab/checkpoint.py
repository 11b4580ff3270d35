"""Flat binary checkpoints.

Layout (version 2), all little-endian:

    bytes 0..3     magic `ISMC`
    bytes 4..7     u32 version (= 2)
    byte  8        geometry (0 torus, 1 square)
    bytes 9..16    u32 nx, u32 nz
    bytes 17..80   f64 lx, lz, t, f, g, theta0, s, alpha
    bytes 81..96   the run's mode, ASCII, NUL-padded
    bytes 97..104  i64 seed
    bytes 105..128 f64 dt, u64 step index, f64 W(t)
    byte  129      payload kind (0 values, 1 coefficients)
    bytes 130..133 u32 loop-point count, then that many (x, z) f64 pairs
    then the payload, four blocks u_S.x, u_S.z, u_T, theta_S in their
    `STATE_BASES`, row-major x-fastest: nx*nz f64 each for values and for
    square coefficients, nz*(nx/2+1) complex128 for torus coefficients
    (the rfft2 half spectrum).

A stepped state is written as the coefficients it carries, so a restart
continues bit for bit.  Version 1 (no run block, values only) is refused:
it records neither the mode nor the seed nor dt that a restart must match.

A checkpoint is written to `<path>.tmp` and renamed over `path`, so a write
that fails or is killed leaves the previous checkpoint in place.
"""

from __future__ import annotations

import os
import struct
from collections import namedtuple

import numpy as np

from .errors import CheckpointFormatError, ConfigError
from .grid import Geometry, Grid, make_grid
from .state import Params, SimState, make_state

MAGIC = b"ISMC"
VERSION = 2

_HEAD = struct.Struct("<4sIBII")
_REALS = struct.Struct("<8d")
_RUN = struct.Struct("<16sqdQdBI")


#: what a checkpoint records of the run that wrote it
RunStamp = namedtuple("RunStamp", "mode seed dt step w",
                      defaults=("", 0, 0.0, 0, 0.0))


def write_checkpoint(state: SimState, params: Params, path,
                     alpha: float = 0.0, stamp: RunStamp = RunStamp()) -> None:
    g = state.grid
    geom = 0 if g.geometry is Geometry.TORUS else 1
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEAD.pack(MAGIC, VERSION, geom, g.nx, g.nz))
            fh.write(_REALS.pack(g.lx, g.lz, state.t, params.f, params.g,
                                 params.theta0, params.s, alpha))
            fh.write(_RUN.pack(stamp.mode.encode("ascii"), *stamp[1:],
                               state.carried, 0))
            for block in state.payload:
                kind = "<c16" if np.iscomplexobj(block) else "<f8"
                fh.write(np.ascontiguousarray(block, dtype=kind).tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_checkpoint(path, expect_grid: Grid | None = None):
    """Load ``(state, params, alpha, stamp)``; validates against
    ``expect_grid``."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read checkpoint: {err}") from None
    if len(data) < _HEAD.size:
        raise CheckpointFormatError(
            f"truncated header ({len(data)} of {_HEAD.size} bytes)",
            offset=len(data))
    magic, version, geom, nx, nz = _HEAD.unpack_from(data, 0)
    if magic != MAGIC:
        raise CheckpointFormatError(f"bad magic {magic!r}", offset=0)
    if version != VERSION:
        raise CheckpointFormatError(
            f"unsupported checkpoint version {version} (this build reads "
            f"version {VERSION})", offset=4)
    if geom not in (0, 1):
        raise CheckpointFormatError(f"bad geometry byte {geom}", offset=8)

    off = _HEAD.size + _REALS.size + _RUN.size
    if len(data) < off:
        raise CheckpointFormatError(
            f"truncated header of a {nx}x{nz} checkpoint ({len(data)} "
            f"bytes)", offset=len(data))
    lx, lz, t, f, gparam, theta0, s, alpha = _REALS.unpack_from(
        data, _HEAD.size)
    mode, seed, dt, step, w, carried, n_loop = _RUN.unpack_from(
        data, _HEAD.size + _REALS.size)
    if carried not in (0, 1):
        raise CheckpointFormatError(f"bad payload kind {carried}",
                                    offset=off - 5)
    off += 16 * n_loop  # loop points: none is written yet

    dtype, shape = (("<c16", (nz, nx // 2 + 1))
                    if carried and geom == 0 else ("<f8", (nz, nx)))
    need = off + 4 * np.dtype(dtype).itemsize * shape[0] * shape[1]
    if len(data) != need:
        raise CheckpointFormatError(
            f"expected {need} bytes for {nx}x{nz} fields, "
            f"got {len(data)}", offset=min(len(data), need))

    grid = make_grid(Geometry.TORUS if geom == 0 else Geometry.SQUARE, nx,
                     nz, lx, lz)
    if expect_grid is not None:
        if grid != expect_grid:
            raise ConfigError(
                f"geometry mismatch: checkpoint holds a {grid.geometry.value} "
                f"{nx}x{nz} run (lx={lx!r}, lz={lz!r}), configured grid is "
                f"{expect_grid.geometry.value} "
                f"{expect_grid.nx}x{expect_grid.nz}")
        grid = expect_grid

    blocks = np.frombuffer(data, dtype=dtype, offset=off).reshape(
        4, *shape).astype(dtype[1:])
    state = make_state(grid, t, *blocks, carried=bool(carried))
    stamp = RunStamp(mode.rstrip(b"\0").decode("ascii", "replace"), seed, dt,
                     step, w)
    return state, Params(f=f, g=gparam, theta0=theta0, s=s), alpha, stamp
