"""Grids, fields, fast trigonometric transforms, differentiation, dealiasing.

Two desk-scale geometries stand in for a smooth bounded domain:

* a periodic torus [0,Lx) x [0,Lz), handled with the real half spectrum
  of a 2D FFT on the lattice x_i = i*Lx/nx, z_j = j*Lz/nz;
* a free-slip square [0,Lx] x [0,Lz], handled with sine/cosine bases on the
  cell-centred lattice x_i = (i+1/2)*Lx/nx so that no sample sits on a wall
  and both parities share one set of nodes.

Square fields carry a per-axis parity tag ("sin" or "cos").  The velocity
components use the mixed bases forced by the free-slip condition u.n = 0:
u_x is sine-in-x/cosine-in-z (vanishes on the x-walls), u_z is
cosine-in-x/sine-in-z (vanishes on the z-walls).  Scalars default to
sine products, pressure-like fields to cosine products.

Values arrays have shape (nz, nx) -- row-major with x fastest, so
flattening gives index iz*nx + ix.  A stack of fields of shape
(B, nz, nx) is B independent fields: the transforms, derivatives, dealias
and projection act on the last two axes only, bit for bit as on each
slice alone, which is how the Monte Carlo harness steps its paths
together.  Both geometries transform with scipy's compiled pocketfft,
loaded with the first grid; no run imports scipy.fft or numpy.fft.
Square coefficients live in the raw DST-II/DCT-II layout, shape (nz, nx).
Torus coefficients are the rfft2 half spectrum, shape (nz, nx//2 + 1):
rows are the signed z modes 0..nz/2-1, -nz/2..-1 and columns the x modes
0..nx/2.  The columns of negative x modes are not stored: for real
fields, mode (-m_z, -m_x) is the complex conjugate of mode (m_z, m_x).
The Nyquist mode of each axis (x column nx/2, z row -nz/2) is its own
conjugate partner, so its sampled odd derivatives are zero.

This module owns these layouts: every other module reaches them through
the per-basis tables of `Grid`, built once per grid and basis.  A basis is
an (x-parity, z-parity) pair; the torus ignores it.

* `modes(basis)`: the integer mode number of each slot (square: sine slot
  m-1 holds mode m, cosine slot m holds mode m);
* `wavenumbers(basis, odd)`: the angular wavenumbers, with the torus
  Nyquist k = 0 for odd derivatives;
* `k2(basis, odd)`: |k|^2; with odd, the symbol of div.grad;
* `laplacian_symbol(basis)`: the symbol of div.grad, -|k|^2 with odd
  wavenumbers and inf where it vanishes, the divisor that inverts div.grad
  off its null modes;
* `keep(basis)`: the 2/3-rule mask, 1s and 0s in the coefficients' dtype;
* `sobolev_weight(basis, k)`: the discrete Parseval weights of W^{k,2};
* `sup_weight(basis)`: per-axis sup weights, which bound a field's and its
  first derivatives' max norms from its coefficients;
* `derivative_factor(axis, order)`: the torus (i*k)^order.

The coefficient-space maps never need the analytic normalisation factors.
"""

from __future__ import annotations

import enum
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError

#: scipy's compiled pocketfft extension, loaded with the first Grid, for
#: both geometries' transforms: never the scipy.fft package around it,
#: whose import would about double a run's set-up, nor numpy.fft, whose
#: per-line wrappers make a 2-D transform two passes.
pocketfft = None


def _load_pocketfft():
    """scipy's ``fft/_pocketfft/pypocketfft`` extension, loaded by file
    path as ``slicelab.grid.pypocketfft`` and kept out of sys.modules: no
    code of the scipy package runs.  There is no other source of the
    kernels, so a missing file raises ImportError naming its path."""
    spec = importlib.util.find_spec("scipy")  # locates it, imports nothing
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("slicelab's transforms need scipy's pocketfft, "
                          "and scipy is not installed", name="scipy")
    path = os.path.join(spec.submodule_search_locations[0], "fft",
                        "_pocketfft", "pypocketfft"
                        + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"slicelab's transforms need scipy's compiled "
                          f"pocketfft, and there is no {path}", path=path)
    # the extension's init function is named after the last component
    spec = importlib.util.spec_from_file_location(f"{__name__}.pypocketfft",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

SIN = "sin"
COS = "cos"

#: Default square bases by role: scalars (u_T, theta_S, psi, omega) are
#: sine products; the velocity components are the mixed bases that make
#: u.n = 0 structural; pressure-like fields are cosine products so the
#: homogeneous Neumann condition holds termwise.
SCALAR_BASIS = (SIN, SIN)
VX_BASIS = (SIN, COS)
VZ_BASIS = (COS, SIN)
NEUMANN_BASIS = (COS, COS)


class Geometry(enum.Enum):
    TORUS = "torus"
    SQUARE = "square"


def check_size(name: str, n: int, where: str = "") -> None:
    """The grid-size rule: `n` points on an axis are a power of two, at
    least 8 (fast-transform friendliness); `where` places a refused size."""
    if n < 8 or n & (n - 1):
        raise ConfigError(f"{name} = {n}{where} is not a power of two >= 8")


@dataclass(frozen=True)
class Grid:
    """Geometry, resolution, extents, and cached spectral tables."""

    geometry: Geometry
    nx: int
    nz: int
    lx: float
    lz: float

    def __post_init__(self):
        global pocketfft
        if pocketfft is None:
            pocketfft = _load_pocketfft()

    # -- sample coordinates -------------------------------------------------
    @cached_property
    def x(self) -> np.ndarray:
        h = self.lx / self.nx
        if self.geometry is Geometry.TORUS:
            return h * np.arange(self.nx)
        return h * (np.arange(self.nx) + 0.5)

    @cached_property
    def z(self) -> np.ndarray:
        h = self.lz / self.nz
        if self.geometry is Geometry.TORUS:
            return h * np.arange(self.nz)
        return h * (np.arange(self.nz) + 0.5)

    @cached_property
    def x_mesh(self) -> np.ndarray:
        return np.broadcast_to(self.x[None, :], (self.nz, self.nx))

    @cached_property
    def z_mesh(self) -> np.ndarray:
        return np.broadcast_to(self.z[:, None], (self.nz, self.nx))

    @cached_property
    def z_weight(self) -> np.ndarray:
        """The z coordinate as the model sees it.

        Square: the L2 projection of the ramp onto the resolved sine-z
        modes, sum of 2 Lz (-1)^(l+1)/(l pi) sin(l pi z/Lz).  Against any
        sine-z-band-limited field this weight integrates z exactly under
        the midpoint sum, and using the same weight in the z-dependent
        source makes the energy exchange cancel identically.  Torus: the
        raw ramp (no compatible projection exists; torus accounting is
        restricted anyway).
        """
        if self.geometry is Geometry.TORUS:
            return self.z_mesh
        ell = np.arange(1, self.nz + 1)
        coef = 2.0 * self.lz * np.where(ell % 2 == 1, 1.0, -1.0) / (ell * np.pi)
        ramp = np.sin(np.pi * np.outer(self.z, ell) / self.lz) @ coef
        return np.broadcast_to(ramp[:, None], (self.nz, self.nx))

    @cached_property
    def z_weight_modes(self) -> np.ndarray:
        # z_weight in u_T's basis, the x-velocity's: the tendency's z s source
        return to_modes(self, self.z_weight, VX_BASIS)

    @property
    def cell_area(self) -> float:
        return (self.lx / self.nx) * (self.lz / self.nz)

    # -- per-basis coefficient tables (see the module docstring) -------------
    @cached_property
    def _tables(self) -> dict:
        return {}

    def _cached(self, key, build):
        tables = self._tables
        if key not in tables:
            tables[key] = build()
        return tables[key]

    def _parities(self, basis) -> tuple:
        if self.geometry is Geometry.TORUS:
            return None, None
        return tuple(basis)

    def modes(self, basis) -> tuple[np.ndarray, np.ndarray]:
        """Integer mode numbers (m_x, m_z) of the coefficient slots.

        Torus: the half-spectrum columns 0..nx/2 and the signed rows.
        Square: sine slot m-1 holds mode m, cosine slot m holds mode m.
        """
        px, pz = self._parities(basis)

        def build():
            if self.geometry is Geometry.TORUS:
                return (np.arange(self.nx // 2 + 1),
                        np.r_[0:self.nz // 2, -(self.nz // 2):0])
            return tuple(np.arange(1, n + 1) if p == SIN else np.arange(n)
                         for n, p in ((self.nx, px), (self.nz, pz)))
        return self._cached(("modes", px, pz), build)

    def wavenumbers(self, basis, odd: bool = False):
        """Angular wavenumbers (k_x, k_z): 2*pi*m/L on the torus, pi*m/L on
        the square.

        odd: the first-derivative wavenumbers.  The torus Nyquist mode (x
        column +nx/2, z row -nz/2) is its own conjugate partner and its
        sampled odd derivatives vanish, so it gets k = 0 (even orders keep
        the full k; cos(n x/2) does have a sampled second derivative).  The
        square's odd derivatives shift slots instead, so odd changes nothing
        there.
        """
        px, pz = self._parities(basis)
        odd = odd and self.geometry is Geometry.TORUS

        def build():
            mx, mz = self.modes(basis)
            scale = 2.0 * np.pi if self.geometry is Geometry.TORUS else np.pi
            kx, kz = scale * mx / self.lx, scale * mz / self.lz
            if odd:
                kx = np.where(mx == self.nx // 2, 0.0, kx)
                kz = np.where(mz == -self.nz // 2, 0.0, kz)
            return kx, kz
        return self._cached(("k", px, pz, odd), build)

    def k2(self, basis, odd: bool = False) -> np.ndarray:
        """|k|^2 over the coefficient slots; odd: the symbol of div.grad."""
        def build():
            kx, kz = self.wavenumbers(basis, odd)
            return kx[None, :] ** 2 + kz[:, None] ** 2
        return self._cached(("k2", *self._parities(basis), odd), build)

    def laplacian_symbol(self, basis) -> np.ndarray:
        """The symbol of div.grad, -|k|^2 of `k2(basis, odd=True)`, with +inf
        where it vanishes: dividing coefficients by it inverts div.grad and
        zeroes its null modes."""
        def build():
            k2 = self.k2(basis, True)
            return np.where(k2 > 0, -k2, np.inf)
        return self._cached(("lap", *self._parities(basis)), build)

    def keep(self, basis) -> np.ndarray:
        """2/3-rule keep-mask: 1 where |m_x| <= nx/3 and |m_z| <= nz/3,
        else 0, in the coefficients' dtype (complex on the torus): a
        product with it has the bits of one with the bool mask, without
        casting the mask on each call."""
        def build():
            mx, mz = self.modes(basis)
            mask = ((np.abs(mz) <= self.nz / 3.0)[:, None]
                    & (np.abs(mx) <= self.nx / 3.0)[None, :])
            return mask.astype(complex if self.geometry is Geometry.TORUS
                               else float)
        return self._cached(("keep", *self._parities(basis)), build)

    def _outside_band(self, basis) -> np.ndarray:
        """True where `keep` is 0, cached for the out-of-band `where=`."""
        return self._cached(("outside", *self._parities(basis)),
                            lambda: self.keep(basis) == 0)

    def sobolev_weight(self, basis, k: int) -> np.ndarray:
        """Parseval weights: sum(weight * |c|^2) is the sum over |a| <= k
        of |d^a|^2 at the nodes.  Per axis, order a weighs w k^(2a): torus
        w = 1/n, 2/nx off the x columns 0 and nx/2; square w = 1/(2n), halved
        at cosine mode 0 and the top sine slot, 0 there when a is odd."""
        px, pz = self._parities(basis)

        def axis(i, a):
            n, parity = ((self.nx, px), (self.nz, pz))[i]
            w = self.wavenumbers(basis, a % 2 == 1)[i] ** (2 * a) / n
            if parity is not None:
                w *= 0.5
                w[0 if parity == COS else -1] *= (
                    0.0 if parity == SIN and a % 2 else 0.5)
            elif i == 0:
                w[1:-1] *= 2.0
            return w
        return self._cached(("sobolev", px, pz, k), lambda: sum(
            axis(1, az)[:, None] * axis(0, ax)[None, :]
            for ax in range(k + 1) for az in range(k + 1 - ax)))

    def sup_weight(self, basis) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis weights (wz, wx), each of shape (2, n): row a weighs
        each slot by the sup of the order-a derivative of its basis
        function as `from_modes` scales it, so the sum over the slots of
        wz[a_z] x wx[a_x] x abs(coef) bounds the sup of d_z^a_z d_x^a_x of
        the field (sum |c_k| sup|phi_k|).  Row 0: torus 1/n, doubled off
        the x columns 0 and nx/2; square 1/n, halved at cosine mode 0 and
        the top sine slot.  Row 1 is row 0 times |k| (the odd
        wavenumbers), 0 at the top sine slot, whose derivative the
        transform drops."""
        px, pz = self._parities(basis)

        def axis(i):
            n, parity = ((self.nx, px), (self.nz, pz))[i]
            k = self.wavenumbers(basis, True)[i]
            w = np.full(k.shape, 1.0 / n)
            if parity is not None:
                w[0 if parity == COS else -1] = 0.5 / n
            elif i == 0:
                w[1:-1] *= 2.0
            dw = np.abs(k) * w
            if parity == SIN:
                dw[-1] = 0.0
            return np.stack([w, dw])
        return self._cached(("sup", px, pz), lambda: (axis(1), axis(0)))

    def derivative_factor(self, axis: str, order: int) -> np.ndarray:
        """Torus (i*k)^order along `axis`, broadcast over the half spectrum."""
        def build():
            kx, kz = self.wavenumbers(None, order % 2 == 1)
            k = kx[None, :] if axis == "x" else kz[:, None]
            return (1j * k) ** order
        return self._cached(("d", axis, order), build)

    def __repr__(self) -> str:  # keep dataclass repr free of cached arrays
        return (f"Grid({self.geometry.value}, {self.nx}x{self.nz}, "
                f"Lx={self.lx:g}, Lz={self.lz:g})")


def make_grid(geometry: Geometry | str, nx: int, nz: int,
              lx: float, lz: float) -> Grid:
    """Validate and build a grid.

    nx, nz must pass `check_size`; extents must be positive.
    """
    if isinstance(geometry, str):
        try:
            geometry = Geometry(geometry)
        except ValueError:
            raise ConfigError(f"unknown geometry {geometry!r}") from None
    check_size("nx", nx)
    check_size("nz", nz)
    if not (lx > 0 and lz > 0):
        raise ConfigError(f"domain extents must be positive (got {lx}, {lz})")
    return Grid(geometry, int(nx), int(nz), float(lx), float(lz))


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarField:
    grid: Grid
    values: np.ndarray
    basis: tuple[str, str] | None = None  # (x-parity, z-parity); None on torus

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        # one field, or a stack of fields along a leading path axis
        if vals.ndim not in (2, 3) or vals.shape[-2:] != (self.grid.nz,
                                                         self.grid.nx):
            raise ConfigError(
                f"field shape {vals.shape} does not match grid "
                f"({self.grid.nz}, {self.grid.nx})")
        object.__setattr__(self, "values", vals)
        if self.grid.geometry is Geometry.SQUARE:
            if self.basis is None:
                object.__setattr__(self, "basis", SCALAR_BASIS)
            elif self.basis[0] not in (SIN, COS) or self.basis[1] not in (SIN, COS):
                raise ConfigError(f"bad square basis {self.basis!r}")
        else:
            object.__setattr__(self, "basis", None)


@dataclass(frozen=True)
class VectorField:
    x: ScalarField
    z: ScalarField

    def __post_init__(self):
        if self.x.grid is not self.z.grid and self.x.grid != self.z.grid:
            raise ConfigError("vector components on different grids")
        # a square velocity is wall-tangent: its components are in the u.n = 0
        # bases, which every vector operator assumes
        if self.grid.geometry is Geometry.SQUARE and (
                self.x.basis, self.z.basis) != (VX_BASIS, VZ_BASIS):
            raise ConfigError(
                f"square vector components must be in the bases "
                f"{VX_BASIS!r}, {VZ_BASIS!r}, got {self.x.basis!r}, "
                f"{self.z.basis!r}")

    @property
    def grid(self) -> Grid:
        return self.x.grid


def vector_field(grid: Grid, x_values, z_values) -> VectorField:
    """Velocity-like vector field; square components get the u.n = 0 bases."""
    return VectorField(ScalarField(grid, x_values, VX_BASIS),
                       ScalarField(grid, z_values, VZ_BASIS))


# ---------------------------------------------------------------------------
# transforms (raw coefficient layout; torus: rfft2 half spectrum)
# ---------------------------------------------------------------------------
# Both geometries call pocketfft's kernels with the arguments scipy.fft
# passes them, so the bits are scipy's: the torus's rfft2 half spectrum by
# r2c(values, axes, forward, norm, out, workers) over both axes, back by
# c2r(coef, axes, nx, ...); the square's DST-II/DCT-II by dst/dct(values,
# type, axes, norm, out, workers) per axis, forward type 2 with norm 0,
# inverse type 3 with norm 2 (1/N, scipy's "backward").  Out is None: the
# output is new and C-ordered, and the argument, which may be a state's
# coefficients, is never written.  The kernels take native float64 or
# complex128 only, so other inputs are cast first, as scipy does.

def to_modes(grid: Grid, values: np.ndarray, basis) -> np.ndarray:
    coef = np.asarray(values, dtype=np.float64)
    if grid.geometry is Geometry.TORUS:
        return pocketfft.r2c(coef, (-2, -1), True, 0, None, 1)
    # the last axis is x, the one before it z; any leading axes are batch
    for axis, parity in ((-1, basis[0]), (-2, basis[1])):
        kernel = pocketfft.dst if parity == SIN else pocketfft.dct
        coef = kernel(coef, 2, (axis,), 0, None, 1)
    return coef


def from_modes(grid: Grid, coef: np.ndarray, basis) -> np.ndarray:
    if grid.geometry is Geometry.TORUS:
        return pocketfft.c2r(np.asarray(coef, dtype=np.complex128), (-2, -1),
                             grid.nx, False, 2, None, 1)
    vals = np.asarray(coef, dtype=np.float64)
    for axis, parity in ((-2, basis[1]), (-1, basis[0])):
        kernel = pocketfft.dst if parity == SIN else pocketfft.dct
        vals = kernel(vals, 3, (axis,), 2, None, 1)
    return vals


def _flip(parity: str) -> str:
    return COS if parity == SIN else SIN


def axis_derivative_modes(grid: Grid, coef: np.ndarray, basis, axis: str,
                          order: int = 1):
    """d^order/d(axis)^order in coefficient space.

    Returns (coef, basis).  Torus: multiply by (i*k)^order.  Square: an even
    order is diagonal, (-k^2)^(order/2) in the current parity; an odd order
    additionally shifts slots by one and flips the parity (sine slot m-1
    holds mode m, cosine slot m holds mode m).  The top mode falling outside
    the flipped basis is dropped; dealiased fields never populate it.
    """
    if grid.geometry is Geometry.TORUS:
        return coef * grid.derivative_factor(axis, order), basis

    on_x = axis == "x"                # arrays are [..., z, x]
    bi = 0 if on_x else 1             # basis-tuple slot (tuples are (x, z))
    parity = basis[bi]
    ksin = grid.wavenumbers(SCALAR_BASIS)[bi]
    kcos = grid.wavenumbers(NEUMANN_BASIS)[bi]

    def along(vec):
        return vec[None, :] if on_x else vec[:, None]

    def slots(start, stop):
        return ((..., slice(start, stop)) if on_x
                else (..., slice(start, stop), slice(None)))

    half, rem = divmod(order, 2)
    out = coef
    if half:
        k = ksin if parity == SIN else kcos
        out = out * along((-(k ** 2)) ** half)
    if rem:
        # the products are written in place, and the one slot left empty
        # is zeroed
        shifted = np.empty_like(out)
        if parity == SIN:
            # sin mode m -> +k_m * cos mode m: cos slot m <- sin slot m-1
            shifted[slots(0, 1)] = 0.0
            np.multiply(along(kcos[1:]), out[slots(None, -1)],
                        out=shifted[slots(1, None)])
        else:
            # cos mode m -> -k_m * sin mode m: sin slot m-1 <- cos slot m
            shifted[slots(-1, None)] = 0.0
            np.multiply(-along(ksin[:-1]), out[slots(1, None)],
                        out=shifted[slots(None, -1)])
        out = shifted
        parity = _flip(parity)
    new_basis = (parity, basis[1]) if bi == 0 else (basis[0], parity)
    return out, new_basis


def derivative_values(grid: Grid, coef: np.ndarray, basis, order_x: int,
                      order_z: int):
    """Mixed derivative d^order_x/dx d^order_z/dz of the field with raw
    coefficients `coef`, as (values, basis): one inverse transform."""
    if order_x:
        coef, basis = axis_derivative_modes(grid, coef, basis, "x", order_x)
    if order_z:
        coef, basis = axis_derivative_modes(grid, coef, basis, "z", order_z)
    return from_modes(grid, coef, basis), basis


def gradient_values(grid: Grid, coef: np.ndarray, basis):
    """(d_x, d_z) values of the field with raw coefficients `coef`."""
    return (derivative_values(grid, coef, basis, 1, 0)[0],
            derivative_values(grid, coef, basis, 0, 1)[0])


def differentiate(field: ScalarField, axis: str) -> ScalarField:
    """Spectral first derivative along "x" or "z"."""
    if axis not in ("x", "z"):
        raise ConfigError(f"axis must be 'x' or 'z', got {axis!r}")
    g = field.grid
    coef = to_modes(g, field.values, field.basis)
    order_x = int(axis == "x")
    values, basis = derivative_values(g, coef, field.basis, order_x,
                                      1 - order_x)
    return ScalarField(g, values, basis)


def dealias(field: ScalarField) -> ScalarField:
    """2/3-rule truncation: zero every mode with |m_x| > nx/3 or |m_z| > nz/3."""
    g, b = field.grid, field.basis
    return ScalarField(g, from_modes(g, to_modes(g, field.values, b)
                                     * g.keep(b), b), b)


def integrate(grid: Grid, values: np.ndarray) -> float:
    """Domain integral by uniform cell-weight quadrature."""
    return float(values.sum()) * grid.cell_area
