import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focalcal import _common
from focalcal._common import (_libm_map, _probe, _probe_args, _reversed, as_simplex, libm,
                              softmax)

# numpy's AVX-512 exp gives 0.9971444573829081 here; libm gives ...908
DRIFT_ARG = -0.0028596274570539502


def math_map(fn, *arrays):
    cols = np.broadcast_arrays(*arrays)
    return np.array([fn(*xs) for xs in zip(*(c.ravel().tolist() for c in cols))],
                    dtype=float).reshape(cols[0].shape)


class TestLibm:
    def test_exp_bitwise(self):
        x = np.append(np.random.default_rng(0).uniform(-30.0, 5.0, size=5000), DRIFT_ARG)
        out = libm(math.exp, x)
        assert out.dtype == np.float64 and out.shape == x.shape
        assert np.array_equal(out, math_map(math.exp, x))
        assert out[-1] == math.exp(DRIFT_ARG) == 0.997144457382908

    def test_log_bitwise(self):
        x = np.random.default_rng(1).uniform(1e-12, 1.0, size=(50, 100))
        assert np.array_equal(libm(math.log, x), math_map(math.log, x))

    def test_pow_bitwise_with_broadcasting(self):
        rng = np.random.default_rng(2)
        base = rng.uniform(0.0, 1.0, size=(200, 3))
        expo = rng.uniform(-3.0, 6.0, size=3)
        assert np.array_equal(libm(math.pow, base, expo), math_map(math.pow, base, expo))
        for gamma in (3.0, 1.5, 0.0, 10.0):
            assert np.array_equal(libm(math.pow, base, gamma),
                                  math_map(math.pow, base, np.float64(gamma)))

    def test_exact_scalar_powers(self):
        # libm's pow(x, 2) is not always x*x; ** uses the exact operation
        x = np.random.default_rng(3).uniform(0.0, 1.0, size=5000)
        assert np.array_equal(libm(math.pow, x, 2.0), x * x)
        assert np.array_equal(libm(math.pow, x, np.asarray(0.5)), np.sqrt(x))
        assert np.array_equal(libm(math.pow, x, -1.0), 1.0 / x)
        # pow(x, 1) is x in libm too, edge values included
        y = np.concatenate([x, -x, [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308]])
        one = libm(math.pow, y, 1.0)
        assert not np.shares_memory(one, y)
        assert one.tobytes() == math_map(math.pow, y, np.float64(1.0)).tobytes() == y.tobytes()

    def test_domain_edges_follow_numpy(self):
        with np.errstate(all="ignore"):
            assert np.array_equal(libm(math.log, np.array([0.0, -1.0, 1.0])),
                                  np.array([-np.inf, np.nan, 0.0]), equal_nan=True)
            assert np.array_equal(libm(math.exp, np.array([1000.0, -np.inf])),
                                  np.array([np.inf, 0.0]))
            assert np.array_equal(libm(math.pow, np.array([0.0, -8.0]), -1.5),
                                  np.array([np.inf, np.nan]), equal_nan=True)

    def test_scalar_input(self):
        out = libm(math.exp, 0.0)
        assert out.shape == () and float(out) == 1.0

    def test_softmax_uses_libm(self):
        z = np.array([[0.0, DRIFT_ARG]])
        e = math.exp(DRIFT_ARG)
        assert np.array_equal(softmax(z), np.array([[1.0 / (1.0 + e), e / (1.0 + e)]]))


def seeded_args(name, rng, n):
    """(math function, arguments) of each case the reversed-stride route serves."""
    if name == "exp":
        return math.exp, (rng.uniform(-40.0, 5.0, n),)
    if name == "log":
        return math.log, (np.exp(rng.uniform(-30.0, 3.0, n)),)
    if name == "pow":
        return math.pow, (rng.uniform(0.0, 1.0, n), rng.uniform(-3.0, 6.0, n))
    return math.pow, (rng.uniform(0.0, 1.0, n), float(rng.choice([3.0, 1.5, 0.7, 5.0, -1.5, 10.0])))


FUNCTIONS = ["exp", "log", "pow", "pow_scalar"]


def assert_libm_bits(fn, args):
    out = libm(fn, *args)
    want = math_map(fn, *map(np.asarray, args))
    assert out.dtype == np.float64 and out.flags.c_contiguous and out.shape == want.shape
    assert np.array_equal(out, want)


class TestReversedRoute:
    @pytest.mark.parametrize("name", FUNCTIONS)
    def test_million_arguments_bitwise(self, name):
        rng = np.random.default_rng(FUNCTIONS.index(name) + 10)
        if name == "pow_scalar":
            for _ in range(8):
                assert_libm_bits(*seeded_args(name, rng, 125_000))
        else:
            assert_libm_bits(*seeded_args(name, rng, 1_000_000))

    @pytest.mark.parametrize("name", FUNCTIONS)
    def test_shapes_and_layouts(self, name):
        fn, args = seeded_args(name, np.random.default_rng(20), 1200)
        grids = [a.reshape(40, 30) if np.ndim(a) else a for a in args]
        for layout in (lambda a: a.reshape(-1),          # 1-D
                       lambda a: a,                      # 2-D, C order
                       np.asfortranarray,
                       lambda a: a.T,
                       lambda a: a[::-1, ::-1],          # negative strides
                       lambda a: a.reshape(-1)[::-1],
                       lambda a: a[:, ::3]):
            assert_libm_bits(fn, [layout(a) if np.ndim(a) else a for a in grids])

    @pytest.mark.parametrize("name", FUNCTIONS)
    def test_views_and_read_only_arrays(self, name):
        # the layouts that reach the ufunc without a copy, each also beside a 0-d exponent
        fn, args = seeded_args(name, np.random.default_rng(25), 4000)

        def read_only(a):
            a = a.copy()
            a.flags.writeable = False
            return a

        for layout in (lambda a: a[3:-37], lambda a: a[::2], read_only):
            views = [layout(a) if np.ndim(a) else np.asarray(a) for a in args]
            cases = [views] + ([[views[0], np.asarray(2.7)]] if fn is math.pow else [])
            for case in cases:
                out = libm(fn, *case)
                assert out.dtype == np.float64 and out.flags.c_contiguous and out.flags.writeable
                assert not any(np.shares_memory(out, a) for a in case)
                assert out.tobytes() == _libm_map(fn, case).tobytes()

    def test_broadcast(self):
        rng = np.random.default_rng(21)
        base, expo = rng.uniform(0.0, 1.0, (500, 3)), rng.uniform(-3.0, 6.0, 3)
        assert_libm_bits(math.pow, (base, expo))
        assert_libm_bits(math.pow, (base.T, expo[:, None]))
        assert_libm_bits(math.exp, (np.broadcast_to(rng.uniform(-9.0, 1.0, 7), (4, 7)),))

    def test_zero_d_operands(self):
        rng = np.random.default_rng(22)
        for x in rng.uniform(-40.0, 5.0, 300):
            assert_libm_bits(math.exp, (np.float64(x),))
        for x, y in rng.uniform(0.0, 3.0, (300, 2)):
            assert_libm_bits(math.log, (np.asarray(x),))
            assert_libm_bits(math.pow, (np.asarray(x), np.asarray(y)))
            # a 0-d base beside an array exponent
            assert_libm_bits(math.pow, (x, rng.uniform(-3.0, 6.0, 17)))

    @pytest.mark.parametrize("name", FUNCTIONS)
    def test_every_length_to_64(self, name):
        rng = np.random.default_rng(23)
        for n in range(1, 65):
            for _ in range(20):
                assert_libm_bits(*seeded_args(name, rng, n))

    def test_map_fallback_gives_the_same_bits(self, monkeypatch):
        rng = np.random.default_rng(24)
        cases = [seeded_args(name, rng, 3000) for name in FUNCTIONS]
        cases += [(math.pow, (rng.uniform(0.0, 1.0, (1000, 3)), rng.uniform(-3.0, 6.0, 3))),
                  (math.log, (np.array([0.0, -1.0, 1.0]),)),
                  (math.exp, (np.array([1000.0, -np.inf]),))]
        strided = [libm(fn, *args) for fn, args in cases]
        monkeypatch.setattr(_common, "_STRIDED", dict.fromkeys(_common._UFUNCS, False))
        for (fn, args), want in zip(cases, strided):
            assert np.array_equal(libm(fn, *args), want, equal_nan=True)

    @pytest.mark.parametrize("strided", [True, False], ids=["reversed route", "map"])
    @pytest.mark.parametrize("name", FUNCTIONS)
    def test_out_gives_the_same_bits(self, monkeypatch, name, strided):
        fn, args = seeded_args(name, np.random.default_rng(26), 1200)
        grids = [a.reshape(40, 30) if np.ndim(a) else a for a in args]
        want = libm(fn, *grids)
        if not strided:
            monkeypatch.setattr(_common, "_STRIDED", dict.fromkeys(_common._UFUNCS, False))
        for out in (np.empty((40, 30)), np.empty((40, 30), order="F")):
            assert libm(fn, *grids, out=out) is out and out.tobytes() == want.tobytes()
        # in place: the first operand is the output
        first = grids[0].copy()
        assert libm(fn, first, *grids[1:], out=first) is first
        assert first.tobytes() == want.tobytes()

    def test_domain_edges_raise_no_warning(self):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            libm(math.log, np.array([0.0, -1.0, 1.0]))
            libm(math.exp, np.array([1000.0, -np.inf]))
            libm(math.pow, np.array([0.0, -8.0]), -1.5)


# ways of writing the route that bring numpy's SIMD loops back; the probe
# must reject each of them
def contiguous(ufunc, *args):
    return ufunc(*args)


def reversed_out_view(ufunc, *args):
    out = np.empty(args[0].shape)
    ufunc(*(a[::-1] if a.ndim else a for a in args), out=out[::-1])
    return out


def last_axis_reversed(ufunc, *args):
    cols = [a.reshape(64, 64)[:, ::-1] if a.ndim else a for a in args]
    return ufunc(*cols)[:, ::-1].reshape(-1)


def one_zero_d_call_each(ufunc, *args):
    n = args[0].shape[0]
    return np.array([ufunc(*(np.asarray(a[i]) if a.ndim else a for a in args))
                     for i in range(n)])


# whether this numpy build runs a loop that is not libm's on contiguous arrays
SIMD = not np.array_equal(np.exp(_probe_args(math.exp)[0][0]),
                          math_map(math.exp, _probe_args(math.exp)[0][0]))


class TestProbe:
    def test_reversed_route_passes(self):
        # if this fails, libm still gives math's bits, through the slow map
        assert all(_common._STRIDED.values())

    def test_one_ulp_fails(self):
        def off_by_one_ulp(ufunc, *args):
            out = _reversed(ufunc, *args)
            out[1234] = np.nextafter(out[1234], np.inf)
            return out
        assert not any(_probe(fn, off_by_one_ulp) for fn in _common._UFUNCS)

    @pytest.mark.skipif(not SIMD, reason="numpy's contiguous exp gives libm's bits here")
    @pytest.mark.parametrize("route", [contiguous, reversed_out_view, last_axis_reversed,
                                       one_zero_d_call_each], ids=lambda r: r.__name__)
    @pytest.mark.parametrize("fn", [math.exp, math.log, math.pow], ids=lambda f: f.__name__)
    def test_sees_simd_loops(self, fn, route):
        assert not _probe(fn, route)


class TestAsSimplex:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), k=st.integers(2, 129),
           digits=st.integers(6, 17))
    def test_matrix_matches_rows_bit_for_bit(self, seed, n, k, digits):
        # rows as a log holds them: floats printed to a few digits, so their
        # mass is off 1 and the renormalization changes bits
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.full(k, rng.uniform(0.05, 5.0)), size=n)
        rows = [[float(f"{v:.{digits}g}") for v in row] for row in p.tolist()]
        got = as_simplex(rows, mass_tol=1e-4, ndim=2)
        want = np.array([as_simplex(row, mass_tol=1e-4) for row in rows])
        assert got.shape == (n, k) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("values, ndim", [([0.5, 0.5], 2), ([[0.5, 0.5]], 1),
                                              ([[np.nan], [2.0]], 2), (0.5, 1)])
    def test_shape_checked_first(self, values, ndim):
        with pytest.raises(ValueError, match="K >= 2 entries"):
            as_simplex(values, ndim=ndim)

    def test_mass_error_names_the_first_bad_row(self):
        rows = [[0.5, 0.5], [0.5, 0.75], [0.5, 0.625]]
        with pytest.raises(ValueError, match="probability mass 1.25 deviates"):
            as_simplex(rows, ndim=2)
