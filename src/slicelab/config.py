"""Run configuration: a small `key = value` format with bracketed sections.

Every key is validated against the schema below; unknown or duplicated keys
are errors that name the offending line, so a typo cannot silently fall back
to a default.  ``render_config`` emits the fully resolved configuration in
the same format, and the runner drops that echo next to every output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .diagnostics import MaterialLoop, circle_loop
from .errors import ConfigError
from .grid import Grid, make_grid
from .norms import NormSpec
from .state import Params

#: mode -> (CLI help, integrates the PDE on a grid, needs [time] dt and
#: t_final); `diag` takes its grid from the checkpoint unless one is given
MODE_TABLE = {
    "sim-det": ("deterministic RK4 run", True, True),
    "sim-sde": ("Euler-Maruyama run with multiplicative noise", True, True),
    "sim-transform": ("transformed-variable run on one Brownian path",
                      True, True),
    "mc-hitting": ("scalar geometric-Brownian hitting-frequency study",
                   False, True),
    "mc-global": ("Monte Carlo global-regularity study (needs s = 0)",
                  True, True),
    "convergence": ("strong-order study against a transformed reference",
                    True, True),
    "diag": ("diagnostics of a stored checkpoint", False, False),
}
MODES = tuple(MODE_TABLE)


@dataclass(frozen=True)
class RunConfig:
    mode: str
    seed: int = 0
    geometry: str = "torus"
    nx: int | None = None
    nz: int | None = None
    lx: float | None = None
    lz: float | None = None
    f: float = 1.0
    g: float = 1.0
    theta0: float = 1.0
    s: float = 1.0
    alpha: float = 0.0
    dt: float | None = None
    t_final: float | None = None
    restart: str | None = None
    radius: float = math.inf
    threshold: float = math.inf
    c_tilde: float = 1.0
    k: int = 3
    p: float = 2.0
    n_paths: int = 1000
    amplitude: float = 0.1
    data_seed: int = 0
    max_mode: int = 2
    levels: int = 4
    out_dir: str = "."
    stride: int = 1
    loop_radius: float | None = None
    loop_cx: float | None = None
    loop_cz: float | None = None
    loop_points: int = 256

    @property
    def params(self) -> Params:
        return Params(f=self.f, g=self.g, theta0=self.theta0, s=self.s)

    @property
    def norm_spec(self) -> NormSpec:
        return NormSpec(k=self.k, p=self.p)

    def grid(self) -> Grid:
        if self.nx is None:
            raise ConfigError("grid requested but nx was never configured")
        return make_grid(self.geometry, self.nx, self.nz, self.lx, self.lz)

    def loop(self) -> MaterialLoop | None:
        if self.loop_radius is None:
            return None
        return circle_loop(self.loop_cx, self.loop_cz, self.loop_radius,
                           self.loop_points)

    def n_steps(self) -> int:
        return step_count(self.t_final, self.dt, "t_final")


def step_count(span: float, dt: float, name: str) -> int:
    """The steps of dt in the time span `name`, a positive whole number of
    them within a relative 1e-9."""
    if not (dt > 0 and math.isfinite(dt)) or not (
            span > 0 and math.isfinite(span)):
        raise ConfigError(f"bad time grid: dt={dt}, {name}={span}")
    n = int(round(span / dt))
    if n < 1 or abs(n * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ConfigError(f"{name} = {span} is not a positive integer "
                          f"multiple of dt = {dt}")
    return n


# (section, key) -> (python type, attribute name)
_SCHEMA = {
    ("", "mode"): (str, "mode"),
    ("", "seed"): (int, "seed"),
    ("grid", "geometry"): (str, "geometry"),
    ("grid", "nx"): (int, "nx"),
    ("grid", "nz"): (int, "nz"),
    ("grid", "lx"): (float, "lx"),
    ("grid", "lz"): (float, "lz"),
    ("params", "f"): (float, "f"),
    ("params", "g"): (float, "g"),
    ("params", "theta0"): (float, "theta0"),
    ("params", "s"): (float, "s"),
    ("noise", "alpha"): (float, "alpha"),
    ("time", "dt"): (float, "dt"),
    ("time", "t_final"): (float, "t_final"),
    ("time", "restart"): (str, "restart"),
    ("monitor", "radius"): (float, "radius"),
    ("monitor", "threshold"): (float, "threshold"),
    ("monitor", "c_tilde"): (float, "c_tilde"),
    ("monitor", "k"): (int, "k"),
    ("monitor", "p"): (float, "p"),
    ("data", "amplitude"): (float, "amplitude"),
    ("data", "seed"): (int, "data_seed"),
    ("data", "max_mode"): (int, "max_mode"),
    ("mc", "n_paths"): (int, "n_paths"),
    ("mc", "levels"): (int, "levels"),
    ("output", "out_dir"): (str, "out_dir"),
    ("output", "stride"): (int, "stride"),
    ("output", "loop_radius"): (float, "loop_radius"),
    ("output", "loop_cx"): (float, "loop_cx"),
    ("output", "loop_cz"): (float, "loop_cz"),
    ("output", "loop_points"): (int, "loop_points"),
}

_SECTIONS = tuple(dict.fromkeys(s for s, _ in _SCHEMA))


def _parse_lines(text: str):
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header at line "
                                  f"{lineno}: {raw.strip()!r}")
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(
                    f"unknown section [{section}] at line {lineno}")
            continue
        if "=" not in line:
            raise ConfigError(
                f"expected `key = value` at line {lineno}: {raw.strip()!r}")
        key, _, value = line.partition("=")
        yield section, key.strip().lower(), value.strip(), lineno


def _coerce(section, key, value, lineno, typ):
    try:
        if typ is int:
            return int(value)
        if typ is float:
            v = float(value)
            if math.isnan(v):
                raise ValueError("nan")
            return v
        return value
    except ValueError:
        raise ConfigError(
            f"bad value for {key!r} at line {lineno}: {value!r} is not "
            f"{'an integer' if typ is int else 'a number'}") from None


def parse_config(text: str, *, mode: str | None = None,
                 seed: int | None = None,
                 out_dir: str | None = None) -> RunConfig:
    """Parse and fully validate configuration text.

    ``mode``, ``seed``, and ``out_dir`` are command-line overrides; an
    explicit ``mode`` key in the text must agree with the subcommand.
    """
    seen: dict[tuple[str, str], tuple[str, int]] = {}
    for section, key, value, lineno in _parse_lines(text):
        if (section, key) not in _SCHEMA:
            where = f"[{section}] " if section else ""
            raise ConfigError(
                f"unknown key {where}{key!r} at line {lineno}")
        if (section, key) in seen:
            first = seen[(section, key)][1]
            raise ConfigError(f"duplicate key {key!r}: lines {first} "
                              f"and {lineno}")
        seen[(section, key)] = (value, lineno)

    fields = {}
    for (section, key), (value, lineno) in seen.items():
        typ, attr = _SCHEMA[(section, key)]
        fields[attr] = _coerce(section, key, value, lineno, typ)
        if key in ("nx", "nz"):
            n = fields[attr]
            if n < 8 or n & (n - 1):
                raise ConfigError(
                    f"{key} = {n} at line {lineno}: grid sizes must be "
                    f"powers of two >= 8")

    file_mode = fields.pop("mode", None)
    if file_mode is not None and mode is not None and file_mode != mode:
        raise ConfigError(f"mode = {file_mode!r} in the config conflicts "
                          f"with the {mode!r} subcommand")
    eff_mode = mode or file_mode
    if eff_mode is None:
        raise ConfigError("missing required key: mode (or run via a "
                          "subcommand)")
    if eff_mode not in MODES:
        raise ConfigError(f"unknown mode {eff_mode!r}; expected one of "
                          f"{', '.join(MODES)}")

    cfg = RunConfig(mode=eff_mode, **fields)
    if seed is not None:
        cfg = replace(cfg, seed=int(seed))
    if out_dir is not None:
        cfg = replace(cfg, out_dir=str(out_dir))
    return _validate(_apply_defaults(cfg))


def _apply_defaults(cfg: RunConfig) -> RunConfig:
    if cfg.mode == "diag" and cfg.nx is None:
        return cfg  # the checkpoint's grid sets the domain: see `with_grid`
    updates = {}
    if cfg.nx is not None and cfg.nz is None:
        updates["nz"] = cfg.nx
    if cfg.lx is None:
        updates["lx"] = 2.0 * math.pi if cfg.geometry == "torus" else math.pi
    if cfg.lz is None:
        updates["lz"] = updates.get("lx", cfg.lx)
    if cfg.loop_radius is not None:
        lx = updates.get("lx", cfg.lx)
        lz = updates.get("lz", cfg.lz)
        if cfg.loop_cx is None:
            updates["loop_cx"] = 0.5 * lx
        if cfg.loop_cz is None:
            updates["loop_cz"] = 0.5 * lz
    return replace(cfg, **updates) if updates else cfg


def with_grid(cfg: RunConfig, grid: Grid) -> RunConfig:
    """`cfg` on the domain of `grid`, with the defaults that depend on it."""
    return _apply_defaults(replace(cfg, geometry=grid.geometry.value,
                                   nx=grid.nx, nz=grid.nz, lx=grid.lx,
                                   lz=grid.lz))


def _require(cfg: RunConfig, attr: str, key: str):
    if getattr(cfg, attr) is None:
        raise ConfigError(f"missing required key for mode "
                          f"{cfg.mode!r}: {key}")


def _validate(cfg: RunConfig) -> RunConfig:
    if cfg.geometry not in ("torus", "square"):
        raise ConfigError(f"geometry must be torus or square, "
                          f"got {cfg.geometry!r}")
    _, needs_grid, needs_time = MODE_TABLE[cfg.mode]
    if needs_grid or (cfg.mode == "diag" and cfg.nx is not None):
        if cfg.mode != "diag":
            _require(cfg, "nx", "[grid] nx")
        cfg.grid()  # extent validation
    if needs_time:
        _require(cfg, "dt", "[time] dt")
        _require(cfg, "t_final", "[time] t_final")
        if cfg.dt <= 0 or not math.isfinite(cfg.dt):
            raise ConfigError(f"dt must be positive and finite, got {cfg.dt}")
        if cfg.t_final <= 0 or not math.isfinite(cfg.t_final):
            raise ConfigError(f"t_final must be positive and finite, "
                              f"got {cfg.t_final}")
        cfg.n_steps()
    if cfg.mode == "diag" and cfg.restart is None:
        raise ConfigError("diag mode needs [time] restart pointing at a "
                          "checkpoint")
    if cfg.mode in ("mc-hitting", "mc-global"):
        if not math.isfinite(cfg.threshold):
            raise ConfigError(f"{cfg.mode} needs a finite [monitor] "
                              f"threshold")
        if cfg.threshold < 1.0:
            raise ConfigError(f"threshold must be >= 1, "
                              f"got {cfg.threshold}")
    if cfg.mode == "mc-global" and cfg.s != 0.0:
        raise ConfigError("mc-global requires s = 0 (the regularization "
                          "statement assumes no steady shear source); set "
                          "[params] s = 0")
    if cfg.radius <= 0:
        raise ConfigError(f"radius must be positive, got {cfg.radius}")
    if cfg.c_tilde <= 0:
        raise ConfigError(f"c_tilde must be positive, got {cfg.c_tilde}")
    if cfg.n_paths < 1:
        raise ConfigError(f"n_paths must be positive, got {cfg.n_paths}")
    if cfg.stride < 1:
        raise ConfigError(f"stride must be positive, got {cfg.stride}")
    if cfg.amplitude < 0:
        raise ConfigError(f"amplitude must be nonnegative, "
                          f"got {cfg.amplitude}")
    if cfg.max_mode < 1:
        raise ConfigError(f"[data] max_mode must be >= 1, "
                          f"got {cfg.max_mode}")
    cfg.params  # range checks live in Params
    cfg.norm_spec
    if cfg.loop_radius is not None and cfg.loop_radius <= 0:
        raise ConfigError(f"loop_radius must be positive, "
                          f"got {cfg.loop_radius}")
    return cfg


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(cfg: RunConfig) -> str:
    """The resolved configuration, parseable by :func:`parse_config`."""
    out = [f"mode = {cfg.mode}", f"seed = {cfg.seed}"]
    by_section: dict[str, list[str]] = {}
    for (section, key), (_, attr) in _SCHEMA.items():
        if not section:
            continue
        value = getattr(cfg, attr)
        if value is None:
            continue
        by_section.setdefault(section, []).append(
            f"{key} = {_fmt(value)}")
    for section in _SECTIONS:
        if section in by_section:
            out.append("")
            out.append(f"[{section}]")
            out.extend(by_section[section])
    return "\n".join(out) + "\n"
