"""Flat binary checkpoints.

Layout, all little-endian:

    bytes 0..3   magic `ISMC`
    bytes 4..7   u32 version (= 1)
    byte  8      geometry (0 torus, 1 square)
    bytes 9..16  u32 nx, u32 nz
    bytes 17..80 f64 lx, lz, t, f, g, theta0, s, alpha
    then four nx*nz f64 blocks, row-major x-fastest:
    u_S.x, u_S.z, u_T, theta_S

A checkpoint is written to `<path>.tmp` and renamed over `path`, so a write
that fails or is killed leaves the previous checkpoint in place.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import CheckpointFormatError, ConfigError
from .grid import Geometry, Grid, make_grid
from .state import Params, SimState, make_state, state_arrays

MAGIC = b"ISMC"
VERSION = 1

_HEAD = struct.Struct("<4sIBII")
_REALS = struct.Struct("<8d")


def write_checkpoint(state: SimState, params: Params, path,
                     alpha: float = 0.0) -> None:
    g = state.grid
    geom = 0 if g.geometry is Geometry.TORUS else 1
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEAD.pack(MAGIC, VERSION, geom, g.nx, g.nz))
            fh.write(_REALS.pack(g.lx, g.lz, state.t, params.f, params.g,
                                 params.theta0, params.s, alpha))
            for block in state_arrays(state):
                fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_checkpoint(path, expect_grid: Grid | None = None):
    """Load ``(state, params, alpha)``; validates against ``expect_grid``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEAD.size:
        raise CheckpointFormatError(
            f"truncated header ({len(data)} of {_HEAD.size} bytes)",
            offset=len(data))
    magic, version, geom, nx, nz = _HEAD.unpack_from(data, 0)
    if magic != MAGIC:
        raise CheckpointFormatError(f"bad magic {magic!r}", offset=0)
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported version {version}",
                                    offset=4)
    if geom not in (0, 1):
        raise CheckpointFormatError(f"bad geometry byte {geom}", offset=8)

    off = _HEAD.size
    if len(data) < off + _REALS.size:
        raise CheckpointFormatError(
            f"truncated parameter block ({len(data)} bytes)",
            offset=len(data))
    lx, lz, t, f, gparam, theta0, s, alpha = _REALS.unpack_from(data, off)
    off += _REALS.size

    need = off + 4 * nx * nz * 8
    if len(data) != need:
        raise CheckpointFormatError(
            f"expected {need} bytes for {nx}x{nz} fields, "
            f"got {len(data)}", offset=min(len(data), need))

    geometry = Geometry.TORUS if geom == 0 else Geometry.SQUARE
    if expect_grid is not None:
        same = (expect_grid.geometry is geometry and expect_grid.nx == nx
                and expect_grid.nz == nz and expect_grid.lx == lx
                and expect_grid.lz == lz)
        if not same:
            raise ConfigError(
                f"geometry mismatch: checkpoint holds a {geometry.value} "
                f"{nx}x{nz} run (lx={lx!r}, lz={lz!r}), configured grid is "
                f"{expect_grid.geometry.value} "
                f"{expect_grid.nx}x{expect_grid.nz}")
        grid = expect_grid
    else:
        grid = make_grid(geometry, nx, nz, lx, lz)

    blocks = []
    for _ in range(4):
        arr = np.frombuffer(data, dtype="<f8", count=nx * nz,
                            offset=off).reshape(nz, nx).copy()
        blocks.append(arr)
        off += nx * nz * 8
    state = make_state(grid, t, *blocks)
    return state, Params(f=f, g=gparam, theta0=theta0, s=s), alpha
