import importlib.machinery
import importlib.metadata
import importlib.util

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given
from hypothesis import strategies as st

import slicelab.grid as grid_module
from slicelab.dynamics import mollify
from slicelab.errors import ConfigError
from slicelab.grid import (COS, SIN, Geometry, ScalarField, dealias,
                           derivative_values, differentiate, from_modes,
                           integrate, make_grid, to_modes, vector_field)
from slicelab.incompressible import project_values
from slicelab.state import STATE_BASES, make_state, random_scalar_values

from helpers import (l2, leray_project, oracle_dealias,
                     oracle_gaussian_lowpass, oracle_project_values)

PI = np.pi
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def random_field(grid, seed, max_mode=8, basis=None):
    rng = np.random.default_rng(seed)
    if grid.geometry is Geometry.SQUARE and basis is None:
        basis = ("sin", "sin")
    vals = random_scalar_values(grid, rng, max_mode, 1.0, basis=basis)
    return ScalarField(grid, vals, basis)


# -- construction -----------------------------------------------------------

BASES = [(SIN, SIN), (SIN, COS), (COS, SIN), (COS, COS)]


def _tables(g, basis):
    return (*g.modes(basis), *g.wavenumbers(basis),
            *g.wavenumbers(basis, odd=True), g.k2(basis),
            g.k2(basis, odd=True), g.keep(basis))


def test_torus_wavenumbers():
    g = make_grid("torus", 64, 64, 2 * PI, 2 * PI)
    mx, mz = g.modes(None)
    assert list(mx) == list(range(0, 33))
    assert set(mz) == set(range(-32, 32))
    kx, kz = g.wavenumbers(None)
    assert np.allclose(kx, np.arange(0, 33))
    assert np.allclose(np.sort(kz), np.arange(-32, 32))
    # odd orders: the Nyquist column +32 and row -32 have wavenumber 0
    kx_d, kz_d = g.wavenumbers(None, odd=True)
    assert np.array_equal(kx_d, np.where(mx == 32, 0.0, kx))
    assert np.array_equal(kz_d, np.where(mz == -32, 0.0, kz))
    assert np.array_equal(g.k2(None), kx[None, :] ** 2 + kz[:, None] ** 2)
    assert np.array_equal(g.k2(None, odd=True),
                          kx_d[None, :] ** 2 + kz_d[:, None] ** 2)
    assert np.array_equal(g.keep(None), (np.abs(mz) <= 64 / 3)[:, None]
                          & (np.abs(mx) <= 64 / 3)[None, :])
    # the torus tables ignore the basis
    for basis in BASES:
        for got, want in zip(_tables(g, basis), _tables(g, None)):
            assert np.array_equal(got, want), basis


def test_square_wavenumbers():
    for nx, nz, lx, lz in [(32, 32, PI, PI), (16, 8, 2 * PI, 0.5 * PI)]:
        g = make_grid("square", nx, nz, lx, lz)
        for basis in BASES:
            mx, mz = g.modes(basis)
            # sine slot m-1 holds mode m, cosine slot m holds mode m
            for m, n, parity in ((mx, nx, basis[0]), (mz, nz, basis[1])):
                assert list(m) == list(range(1, n + 1) if parity == SIN
                                       else range(n))
            kx, kz = g.wavenumbers(basis)
            assert np.allclose(kx, PI * mx / lx)
            assert np.allclose(kz, PI * mz / lz)
            # odd derivatives shift slots, so no wavenumber is dropped
            for got, want in zip(g.wavenumbers(basis, odd=True), (kx, kz)):
                assert np.array_equal(got, want)
            assert np.allclose(g.k2(basis),
                               kx[None, :] ** 2 + kz[:, None] ** 2)
            # 2/3 rule in each axis's slot layout: slot + (1 if sine) <= n/3
            keep_x = np.arange(nx) + (basis[0] == SIN) <= nx / 3.0
            keep_z = np.arange(nz) + (basis[1] == SIN) <= nz / 3.0
            assert np.array_equal(g.keep(basis),
                                  keep_z[:, None] & keep_x[None, :])
    g = make_grid("square", 32, 32, PI, PI)
    assert list(g.modes((SIN, SIN))[0]) == list(range(1, 33))
    assert np.allclose(g.wavenumbers((SIN, SIN))[0], np.arange(1, 33))


@pytest.mark.parametrize("nx,nz", [(7, 64), (64, 48), (4, 64)])
def test_non_power_of_two_rejected(nx, nz):
    with pytest.raises(ConfigError):
        make_grid("torus", nx, nz, 2 * PI, 2 * PI)


def test_nonpositive_extent_rejected():
    with pytest.raises(ConfigError):
        make_grid("square", 32, 32, -1.0, PI)


# -- transforms -------------------------------------------------------------

@given(seeds)
def test_round_trip_torus(seed):
    g = make_grid("torus", 32, 32, 2 * PI, 2 * PI)
    vals = np.random.default_rng(seed).standard_normal((32, 32))
    back = from_modes(g, to_modes(g, vals, None), None)
    assert np.max(np.abs(back - vals)) <= 1e-12 * max(1.0, np.max(np.abs(vals)))


@given(seeds, st.sampled_from([(SIN, SIN), (SIN, COS), (COS, SIN), (COS, COS)]))
def test_round_trip_square(seed, basis):
    g = make_grid("square", 32, 32, PI, PI)
    vals = np.random.default_rng(seed).standard_normal((32, 32))
    back = from_modes(g, to_modes(g, vals, basis), basis)
    assert np.max(np.abs(back - vals)) <= 1e-12 * max(1.0, np.max(np.abs(vals)))


# -- derivatives ------------------------------------------------------------

def test_derivative_sin_torus(tor64):
    f = ScalarField(tor64, np.sin(tor64.x_mesh))
    df = differentiate(f, "x")
    assert np.max(np.abs(df.values - np.cos(tor64.x_mesh))) <= 1e-12


def test_derivative_constant(any_grid):
    basis = ("cos", "cos") if any_grid.geometry is Geometry.SQUARE else None
    f = ScalarField(any_grid, np.full((any_grid.nz, any_grid.nx), 3.7), basis)
    for ax in ("x", "z"):
        assert np.max(np.abs(differentiate(f, ax).values)) <= 1e-12


def test_derivative_mixed_torus(tor64):
    X, Z = tor64.x_mesh, tor64.z_mesh
    f = ScalarField(tor64, np.sin(2 * X) * np.cos(3 * Z))
    df = differentiate(f, "z")
    assert np.max(np.abs(df.values + 3 * np.sin(2 * X) * np.sin(3 * Z))) <= 1e-11


def test_derivative_square_parity_flip(sq64):
    X, Z = sq64.x_mesh, sq64.z_mesh
    f = ScalarField(sq64, np.sin(2 * X) * np.sin(3 * Z), (SIN, SIN))
    dx = differentiate(f, "x")
    assert dx.basis == (COS, SIN)
    assert np.max(np.abs(dx.values - 2 * np.cos(2 * X) * np.sin(3 * Z))) <= 1e-11


def test_derivative_multi_square(sq64):
    X, Z = sq64.x_mesh, sq64.z_mesh
    f = ScalarField(sq64, np.sin(2 * X) * np.sin(3 * Z), (SIN, SIN))
    d, _ = derivative_values(sq64, to_modes(sq64, f.values, f.basis),
                             f.basis, 1, 2)
    want = 2 * np.cos(2 * X) * (-9) * np.sin(3 * Z)
    assert np.max(np.abs(d - want)) <= 1e-10


def test_invalid_axis(tor64):
    f = ScalarField(tor64, np.zeros((64, 64)))
    with pytest.raises(ConfigError):
        differentiate(f, "y")


# -- dealias ----------------------------------------------------------------

def test_dealias_keeps_low_modes(any_grid):
    f = random_field(any_grid, 5, max_mode=any_grid.nx // 3 - 1)
    d = dealias(f)
    assert np.max(np.abs(d.values - f.values)) <= 1e-14 * max(1.0, np.max(np.abs(f.values)))


def test_dealias_kills_nyquist(tor64):
    coef = np.zeros((64, 64), dtype=complex)
    coef[0, 32] = 1.0  # mode k_x = nx/2
    f = ScalarField(tor64, np.real(np.fft.ifft2(coef) * 64 * 64))
    assert np.max(np.abs(dealias(f).values)) <= 1e-13


@given(seeds)
def test_dealias_idempotent(seed):
    g = make_grid("torus", 32, 32, 2 * PI, 2 * PI)
    f = ScalarField(g, np.random.default_rng(seed).standard_normal((32, 32)))
    once = dealias(f)
    twice = dealias(once)
    assert np.max(np.abs(twice.values - once.values)) <= 1e-13


@given(seeds)
def test_dealias_commutes_with_derivative(seed):
    g = make_grid("square", 32, 32, PI, PI)
    f = random_field(g, seed, max_mode=14)
    a = dealias(differentiate(f, "x"))
    b = differentiate(dealias(f), "x")
    assert l2(ScalarField(g, a.values - b.values, a.basis)) <= 1e-12 * max(1.0, l2(f))


# -- smoothing and quadrature -----------------------------------------------

def oracle_mollify(grid, values, j):
    # each array low-passed in its state basis, then u_S projected
    ux, uz, ut, th = (oracle_gaussian_lowpass(grid, v, b, j)
                      for v, b in zip(values, STATE_BASES))
    return (*oracle_project_values(grid, ux, uz), ut, th)


def test_gaussian_lowpass_single_mode(tor64):
    # mollify low-passes a state: one |k| = 1 mode per array, u_S =
    # (sin z, sin x) divergence-free
    sx, sz = np.sin(tor64.x_mesh), np.sin(tor64.z_mesh)
    fields = (sz, sx, sx, sz)
    st = make_state(tor64, 0.0, *fields)
    for j in (2, 8):
        got = mollify(st, j).values
        for m, f in zip(got, fields):
            assert np.max(np.abs(m - np.exp(-1.0 / j**2) * f)) <= 1e-13


def test_integrate_sin_squared(tor64):
    val = integrate(tor64, np.sin(tor64.x_mesh) ** 2)
    assert abs(val - 2 * PI**2) <= 1e-10


def test_parseval_torus(tor64):
    f = random_field(tor64, 11)
    coef = to_modes(tor64, f.values, None)
    phys = integrate(tor64, f.values**2)
    # half spectrum: columns 1..nx/2-1 stand for themselves and their
    # conjugate partners
    weight = np.ones(coef.shape[1])
    weight[1:-1] = 2.0
    spec = np.sum(weight * np.abs(coef) ** 2) / (64 * 64) * tor64.cell_area
    assert abs(phys - spec) <= 1e-10 * max(1.0, phys)


# -- torus half spectrum against a full-spectrum reference ------------------

def _close_to(got, want):
    # white-noise inputs: the tolerance scales with the compared output
    return np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("nx,nz,lz", [(32, 16, 3.0), (64, 64, 2 * PI)])
def test_torus_half_spectrum_matches_full_fft(nx, nz, lz):
    g = make_grid("torus", nx, nz, 2 * PI, lz)
    # full-spectrum reference: signed modes with the Nyquist mode at -n/2
    fwd, inv = np.fft.fft2, (lambda c: np.fft.ifft2(c).real)
    mx = np.rint(np.fft.fftfreq(nx) * nx)[None, :]
    mz = np.rint(np.fft.fftfreq(nz) * nz)[:, None]
    kx, kz = mx, 2 * PI * mz / lz  # lx = 2 pi
    kx_d = np.where(mx == -nx // 2, 0.0, kx)
    kz_d = np.where(mz == -nz // 2, 0.0, kz)
    rng = np.random.default_rng(nx + nz)
    # white noise fills every mode, the Nyquist row and column included
    f, a, b = (rng.standard_normal((nz, nx)) for _ in range(3))
    F, A, B = fwd(f), fwd(a), fwd(b)
    assert np.max(np.abs(F[nz // 2, :])) > 1 and np.max(np.abs(F[:, nx // 2])) > 1

    for ox, oz in [(1, 0), (0, 1), (2, 0), (0, 2)]:
        sym = ((1j * (kx_d if ox % 2 else kx)) ** ox
               * (1j * (kz_d if oz % 2 else kz)) ** oz)
        got, _ = derivative_values(g, to_modes(g, f, None), None, ox, oz)
        assert _close_to(got, inv(F * sym)), (ox, oz)

    keep = (np.abs(mx) <= nx / 3) & (np.abs(mz) <= nz / 3)
    assert _close_to(dealias(ScalarField(g, f)).values, inv(F * keep))

    k2_d = kx_d ** 2 + kz_d ** 2
    dot = (kx_d * A + kz_d * B) / np.where(k2_d > 0, k2_d, 1.0)
    p = leray_project(vector_field(g, a, b))
    assert _close_to(p.x.values, inv(A - kx_d * dot))
    assert _close_to(p.z.values, inv(B - kz_d * dot))

    # mollify: every mode times exp(-|k|^2/25), then u_S projected
    k2 = kx ** 2 + kz ** 2
    low = np.exp(-k2 / 25.0)
    smooth = mollify(make_state(g, 0.0, a, b, f, f), 5.0)
    dot = (kx_d * A + kz_d * B) * low / np.where(k2_d > 0, k2_d, 1.0)
    assert _close_to(smooth.u_s.x.values, inv(A * low - kx_d * dot))
    assert _close_to(smooth.u_s.z.values, inv(B * low - kz_d * dot))
    assert _close_to(smooth.u_t.values, inv(F * low))
    assert _close_to(smooth.theta_s.values, inv(F * low))


@pytest.mark.parametrize("nz,nx", [(8, 64), (64, 8), (256, 256)])
@pytest.mark.parametrize("batch", [None, 3])
def test_torus_transforms_equal_scipy_rfft2_bitwise(nz, nx, batch):
    # pocketfft's r2c/c2r, called directly, against scipy.fft's public
    # rfft2/irfft2 (scipy.fft is only this test's oracle): same bits,
    # C-ordered outputs, whatever the input's memory order, and the
    # argument left as it was
    g = make_grid("torus", nx, nz, 2 * PI, 1.0)
    lead = () if batch is None else (batch,)
    rng = np.random.default_rng([nz, nx, batch or 0])
    inputs = {
        "c-ordered": rng.standard_normal(lead + (nz, nx)),
        "transposed": rng.standard_normal(lead + (nx, nz)).swapaxes(-1, -2),
        "zero-stride": np.broadcast_to(g.z_mesh, lead + (nz, nx)),
        "x-mesh": np.broadcast_to(g.x_mesh, lead + (nz, nx)),
    }
    for name, values in inputs.items():
        before = values.copy()
        coef = to_modes(g, values, None)
        want = sfft.rfft2(values)
        assert coef.tobytes() == want.tobytes(), name
        assert coef.flags.c_contiguous, name
        assert np.array_equal(values, before), name
        for c in (coef, np.asfortranarray(coef),
                  np.broadcast_to(coef[..., :1, :], coef.shape)):
            c_before = c.copy()
            back = from_modes(g, c, None)
            assert back.tobytes() == sfft.irfft2(c, s=(nz, nx)).tobytes(), name
            assert back.flags.c_contiguous, name
            assert np.array_equal(c, c_before), name


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("batch", [None, 3])
def test_square_transforms_equal_scipy_dst_dct_bitwise(basis, batch):
    # pocketfft's kernels, called directly, against scipy.fft's public
    # dst/dct/idst/idct (scipy.fft is only this test's oracle): same bits
    # whatever the input's memory order or dtype, the argument left as it
    # was
    nz, nx = 16, 32
    g = make_grid("square", nx, nz, PI, 1.0)
    lead = () if batch is None else (batch,)
    rng = np.random.default_rng([nz, nx, batch or 0])
    fwd = {SIN: sfft.dst, COS: sfft.dct}
    inv = {SIN: sfft.idst, COS: sfft.idct}
    inputs = {
        "c-ordered": rng.standard_normal(lead + (nz, nx)),
        "transposed": rng.standard_normal(lead + (nx, nz)).swapaxes(-1, -2),
        "zero-stride": np.broadcast_to(g.z_weight, lead + (nz, nx)),
        "x-mesh": np.broadcast_to(g.x_mesh, lead + (nz, nx)),
    }
    for name, values in inputs.items():
        before = values.copy()
        coef = to_modes(g, values, basis)
        want = fwd[basis[1]](fwd[basis[0]](values, type=2, axis=-1),
                             type=2, axis=-2)
        assert coef.tobytes() == want.tobytes(), name
        assert np.array_equal(values, before), name
        for c in (coef, np.asfortranarray(coef),
                  np.broadcast_to(coef[..., :1, :], coef.shape)):
            c_before = c.copy()
            back = from_modes(g, c, basis)
            want = inv[basis[0]](inv[basis[1]](c, type=2, axis=-2),
                                 type=2, axis=-1)
            assert back.tobytes() == want.tobytes(), name
            assert np.array_equal(c, c_before), name
    # the kernels take native float64 only: other dtypes are cast first
    for other in (rng.integers(-9, 9, lead + (nz, nx)),
                  inputs["c-ordered"].astype(">f8")):
        cast = other.astype(np.float64)
        assert (to_modes(g, other, basis).tobytes()
                == to_modes(g, cast, basis).tobytes()), other.dtype
        assert (from_modes(g, other, basis).tobytes()
                == from_modes(g, cast, basis).tobytes()), other.dtype


@pytest.mark.parametrize("geometry", ["torus", "square"])
def test_grid_without_pocketfft_raises(monkeypatch, tmp_path, geometry):
    # the kernels have no other source: with scipy's directory empty, the
    # first grid of either geometry fails, naming the file it looked for
    # there
    find_spec = importlib.util.find_spec

    def empty_scipy(name, *args):
        if name != "scipy":
            return find_spec(name, *args)
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations.append(str(tmp_path))
        return spec
    monkeypatch.setattr(importlib.util, "find_spec", empty_scipy)
    monkeypatch.setattr(grid_module, "pocketfft", None)
    with pytest.raises(ImportError) as err:
        make_grid(geometry, 8, 8, 1.0, 1.0)
    assert err.value.path.startswith(str(tmp_path / "fft" / "_pocketfft"
                                         / "pypocketfft"))
    assert err.value.path in str(err.value)
    assert grid_module.pocketfft is None


@pytest.mark.parametrize("kernel", ["r2c", "c2r", "dst", "dct", "c2c"])
def test_grid_with_misnormalised_pocketfft_raises(monkeypatch, kernel):
    # a build that reads the normalisation code otherwise would mis-scale
    # every transform: the first grid refuses it, naming scipy's version,
    # the extension's path and the kernel
    real = grid_module._load_pocketfft()
    at = 4 if kernel == "c2r" else 3  # the index of its inorm argument

    class Misnormalised:
        __file__ = real.__file__

        def __getattr__(self, name):
            orig = getattr(real, name)
            if name != kernel:
                return orig

            def call(*args):
                args = list(args)
                args[at] = 2 - args[at]  # no scaling for 1/n, and back
                return orig(*args)
            return call

    monkeypatch.setattr(grid_module, "_load_pocketfft",
                        lambda: Misnormalised())
    monkeypatch.setattr(grid_module, "pocketfft", None)
    with pytest.raises(ImportError) as err:
        make_grid("torus", 8, 8, 1.0, 1.0)
    assert str(err.value).startswith(
        f"scipy {importlib.metadata.version('scipy')}'s compiled pocketfft "
        f"at {real.__file__} ")
    assert f"transforms ({kernel})" in str(err.value)
    assert err.value.path == real.__file__
    assert grid_module.pocketfft is None


def test_odd_x_derivatives_of_nyquist_column_vanish(tor64):
    f = np.cos(32 * tor64.x_mesh)
    coef = to_modes(tor64, f, None)
    for order in (1, 3):
        d, _ = derivative_values(tor64, coef, None, order, 0)
        assert np.all(d == 0.0), order


# -- one body for both geometries against the per-geometry oracles ----------

@pytest.mark.parametrize("geometry", ["torus", "square"])
@pytest.mark.parametrize("nx,nz,lx,lz", [
    (16, 16, 2 * PI, 2 * PI), (32, 32, PI, PI), (64, 64, 2 * PI, 2 * PI),
    (128, 128, PI, PI), (256, 256, 2 * PI, 2 * PI), (64, 32, 3.0, 1.5)])
def test_operators_match_per_geometry_oracles_bitwise(geometry, nx, nz, lx,
                                                       lz):
    # .tobytes() compares signed zeros and NaN payloads too
    def same(got, want):
        return np.asarray(got).tobytes() == np.asarray(want).tobytes()

    g = make_grid(geometry, nx, nz, lx, lz)
    bases = [None] if geometry == "torus" else BASES
    for seed in (1, 2, 3):
        rng = np.random.default_rng([seed, nx, nz])
        # white noise fills every slot, the Nyquist row and column included
        a, b, f = (rng.standard_normal((nz, nx)) for _ in range(3))
        px, pz = project_values(g, a, b)
        ox, oz = oracle_project_values(g, a, b)
        assert same(px, ox) and same(pz, oz), seed
        # mollify works on coefficients, the oracle on values: roundoff
        got = mollify(make_state(g, 0.0, a, b, f, f), 3).values
        want = oracle_mollify(g, (a, b, f, f), 3)
        assert all(np.max(np.abs(m - o)) <= 1e-13
                   for m, o in zip(got, want)), seed
        for basis in bases:
            field = ScalarField(g, f, basis)
            assert same(dealias(field).values,
                        oracle_dealias(g, f, basis)), basis


# -- a leading path axis: each slice as if alone ------------------------------

@pytest.mark.parametrize("geometry", ["torus", "square"])
@pytest.mark.parametrize("nx,nz", [(16, 16), (32, 32), (64, 32)])
def test_leading_axis_matches_per_slice_calls_bitwise(geometry, nx, nz):
    # the Monte Carlo harness steps (B, nz, nx) stacks of paths; every
    # array-level operator must treat each slice exactly as a 2-D call
    def same(got, want):
        return np.asarray(got).tobytes() == np.asarray(want).tobytes()

    g = make_grid(geometry, nx, nz, 2 * PI, PI)
    rng = np.random.default_rng([nx, nz, len(geometry)])
    n_paths = 5
    a, b = (rng.standard_normal((n_paths, nz, nx)) for _ in range(2))
    bases = [None] if geometry == "torus" else BASES
    for basis in bases:
        coef = to_modes(g, a, basis)
        assert all(same(coef[i], to_modes(g, a[i], basis))
                   for i in range(n_paths)), basis
        assert same(from_modes(g, coef, basis),
                    [from_modes(g, c, basis) for c in coef]), basis
        for orders in ((1, 0), (0, 1), (2, 1), (1, 2), (3, 0), (0, 3)):
            got, got_basis = derivative_values(g, coef, basis, *orders)
            for i in range(n_paths):
                want, want_basis = derivative_values(g, coef[i], basis,
                                                     *orders)
                assert got_basis == want_basis
                assert same(got[i], want), (basis, orders, i)
        assert same(dealias(ScalarField(g, a, basis)).values,
                    [dealias(ScalarField(g, x, basis)).values
                     for x in a]), basis
    px, pz = project_values(g, a, b)
    for i in range(n_paths):
        ox, oz = project_values(g, a[i], b[i])
        assert same(px[i], ox) and same(pz[i], oz), i


@pytest.mark.parametrize("geometry,nx,nz", [("torus", 32, 16),
                                            ("square", 16, 32)])
def test_sobolev_weight_is_the_derivatives_sum_of_squares(geometry, nx, nz):
    # Parseval on every basis, both parities of both axes: the weighted
    # |c|^2 sum is the sum of the squared derivative values over |a| <= k,
    # also for white noise, whose top sine slot odd derivatives drop
    g = make_grid(geometry, nx, nz, 2 * np.pi, 3.0)
    a = np.random.default_rng(5).standard_normal((nz, nx))
    for basis in [None] if geometry == "torus" else BASES:
        coef = to_modes(g, a, basis)
        for k in range(4):
            got = np.sum(g.sobolev_weight(basis, k) * np.abs(coef) ** 2)
            want = sum(np.sum(derivative_values(g, coef, basis, ax, az)[0]
                              ** 2)
                       for ax in range(k + 1) for az in range(k + 1 - ax))
            assert abs(got - want) <= 1e-13 * want, (basis, k)
