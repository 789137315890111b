"""Truth solver: assembly oracles, Thomas solve, analytic reference, quadrature."""

import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import rbcert as rb
from rbcert import fem
from rbcert.fem import _lift, _thomas

from conftest import (
    TridiagonalArrays,
    analytic_derivative,
    analytic_solution,
    dd_root,
    h1_error_vs_analytic,
    h1_norm,
    h1_norm_lanes,
    lift_in_snapshot_order,
    operator,
    thomas,
    thomas_factor,
    thomas_substitute,
)


def dense(T: TridiagonalArrays) -> np.ndarray:
    A = np.diag(T.diag.copy())
    n = len(T.diag)
    for i in range(n - 1):
        A[i, i + 1] = A[i + 1, i] = T.off[i]
    return A


# --- assembly ------------------------------------------------------------


def test_smallest_mesh_entries():
    # One interior node, h = 1/2: K's row is (-1/h, 2/h) = (-2, 4), M's
    # (h/6, 2h/3) = (1/12, 1/3), Gram's their sum, and F = [h] = [1/2].
    # Each is its closed form rounded once; N = 1 reads no off-diagonal.
    s = rb.assemble(2)
    assert s.n == 1
    assert (s.K.diag, s.K.off) == (4.0, -2.0)
    assert (s.M.diag, s.M.off) == (1.0 / 3.0, 1.0 / 12.0)
    assert (s.Gram.diag, s.Gram.off) == (4.0 + 1.0 / 3.0, -2.0 + 1.0 / 12.0)
    assert s.F.tolist() == [0.5]


def test_assembly_single_rounding_from_closed_form():
    # h itself is one rounding of 1/n_cells; every entry must then be the
    # correctly rounded value of its closed-form expression in that h.
    s = rb.assemble(7)
    h = Fraction(s.h)
    assert s.h == 1.0 / 7
    # Each operator is its one row, so its row is every entry of it.
    assert s.K.diag == float(Fraction(2) / h)
    assert -s.K.off == float(Fraction(1) / h)
    assert s.M.diag == float(Fraction(float(2.0 * s.h)) / 3)
    assert s.M.off == float(h / 6)
    assert s.F.tolist() == [s.h] * s.n
    assert s.Gram.diag == s.K.diag + s.M.diag
    assert s.Gram.off == s.K.off + s.M.off


def test_assemble_rejects_degenerate_mesh():
    with pytest.raises(ValueError):
        rb.assemble(1)


def test_operator_is_affine():
    s = rb.assemble(10)
    mu = 37.5
    A = operator(s, mu)
    K, M = (dense(TridiagonalArrays.of(T, s.n)) for T in (s.K, s.M))
    assert np.allclose(dense(A), K + mu * M, rtol=1e-15, atol=0)


# --- tridiagonal linear algebra -------------------------------------------


def test_matvec_matches_dense():
    rng = np.random.default_rng(3)
    T = TridiagonalArrays(rng.normal(size=9), rng.normal(size=8))
    v = rng.normal(size=9)
    assert np.allclose(T.matvec(v), dense(T) @ v, rtol=1e-14, atol=1e-14)


def hexes(a):
    return list(map(float.hex, np.asarray(a).ravel().tolist()))


def thomas_equal_rows(n, diag, off, rhs, s=None):
    """Columns of n equal rows through the compiled kernel, as solve_truth runs it.

    rhs is one (m,) row every row shares, or (n, m); s as the kernel takes it.
    """
    diag, off, rhs = (np.asarray(a, dtype=float) for a in (diag, off, rhs))
    return _thomas(diag, off, rhs, np.empty((n, diag.size)), s)


def column_oracle(n, diag, off, rhs, j):
    """Column j of :func:`thomas_equal_rows` by the two-pass solve."""
    b = rhs[:, j] if rhs.ndim == 2 else [rhs[j]] * n
    return thomas([diag[j]] * n, [off[j]] * (n - 1), b)


def test_thomas_matches_dense_solve():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 50):
        # Diagonally dominant, so both solvers are stable.
        T = TridiagonalArrays(4.0 + rng.uniform(size=n), rng.normal(size=n - 1))
        rhs = rng.normal(size=n)
        x = thomas(T.diag, T.off, rhs)
        assert np.allclose(x, np.linalg.solve(dense(T), rhs), rtol=1e-12, atol=1e-14)


def test_thomas_raises_on_zero_pivot():
    # A zero pivot in the first row, then in the last row of 2 and of 3.
    for diag in ([0.0, 0.0], [1.0, 1.0], [1.0, 2.0, 1.0]):
        n = len(diag)
        with pytest.raises(np.linalg.LinAlgError):
            thomas(diag, [1.0] * (n - 1), [1.0] * n)


@pytest.mark.parametrize("s", [1, 16])
def test_thomas_kernel_writes_nothing_past_its_buffers(s):
    # The kernel writes X (n rows of m) and one scratch array: the kept
    # pivots of rows 0, s, 2s, ... below n - 1 (ceil((n - 1)/s) rows),
    # then its work rows (s), the sizes _thomas allocates.  Each buffer is
    # passed with NaN guards on both sides, which must survive, while all
    # of X is written.  n = 1..49 spans short last segments (s = 16, n =
    # 20: 16 multipliers, then 3) and segments of one multiplier (s = 1);
    # the back sweep's pivot recurrence stays in its kept row.
    pad = 7
    rng = np.random.default_rng(13)
    for n in range(1, 50):
        for m in (1, 5):
            diag = 4.0 + rng.uniform(size=m)
            off = rng.normal(size=m)
            rhs = rng.normal(size=(n, m) if n % 2 else m)
            sizes = (n * m, (-(-(n - 1) // s) + s) * m)
            X, scratch = (np.full(k + 2 * pad, np.nan) for k in sizes)
            status = fem._lib.thomas(
                n, m, diag.ctypes.data, off.ctypes.data, rhs.ctypes.data, m * (rhs.ndim - 1),
                X[pad:].ctypes.data, s, scratch[pad:].ctypes.data,
            )
            assert status == 0
            for buf, k in zip((X, scratch), sizes):
                assert np.isnan(buf[:pad]).all() and np.isnan(buf[pad + k:]).all(), (n, m)
            X = X[pad:pad + n * m].reshape(n, m)
            for j in range(m):
                assert hexes(X[:, j]) == hexes(column_oracle(n, diag, off, rhs, j)), (n, m, j)


class NoKernel:
    """Stands in for the kernel library and fails any call that reaches it."""

    def __getattr__(self, name):
        raise AssertionError(f"kernel {name} called")


@pytest.mark.parametrize("flaw", ["strided", "float32", "read-only"])
def test_kernels_refuse_arrays_they_cannot_take(flaw, monkeypatch):
    # The kernels take bare addresses, so each entry point checks every
    # array once per call, names the one it refuses, and runs no kernel.
    # A read-only array is refused as an output only.
    def spoil(a):
        if flaw == "strided":
            return np.repeat(a, 2, axis=-1)[..., ::2]
        if flaw == "float32":
            return a.astype(np.float32)
        a = a.copy()
        a.flags.writeable = False
        return a

    sys_ = rb.assemble(6)
    n = sys_.n
    row, v, rows = np.full(3, 4.0), np.linspace(1.0, 2.0, n), np.ones((2, n))
    z = np.ones((2, 2))  # three monomials, weighted by row
    lu, pairs = (np.eye(2), np.arange(2)), np.array([[0, 1], [1, 1]])

    def lift(b=v, a1=v, coefficients=np.ones((5, 2))):
        return fem.lift_norms(sys_, [b, v, v, v, a1], coefficients)

    def error(s1=v, U=np.ones((n, 2)), gamma=np.ones((2, 2))):
        return fem.lift_norms(sys_, [v, s1], gamma, U)

    cases = {
        "X": lambda: _thomas(row, row, row, spoil(np.empty((n, 3)))),
        "W": lambda: fem.tridiagonal_rows(sys_.Gram, rows, spoil(np.empty((2, n)))),
    }
    if flaw != "read-only":
        cases.update({
            "diag": lambda: _thomas(spoil(row), row, row, np.empty((n, 3))),
            "rhs": lambda: _thomas(row, row, spoil(np.ones((n, 3))), np.empty((n, 3))),
            "vectors[1]": lambda: fem.dd_gram_table(sys_, [v, spoil(v)], 0),
            "vectors[0]": lambda: lift(b=spoil(v)),
            "vectors[4]": lambda: lift(a1=spoil(v)),
            "coefficients": lambda: lift(coefficients=spoil(np.ones((5, 2)))),
            "U": lambda: error(U=spoil(np.ones((n, 2)))),
            "ql": lambda: fem.dd_radicands((row, spoil(row)), z),
            "z": lambda: fem.dd_radicands((row, row), spoil(z)),
            "q": lambda: fem.fsum_columns(spoil(row), z),
            "LU": lambda: fem.lu_solve_dots((spoil(lu[0]), lu[1]), pairs, z, row[:2]),
            "v": lambda: fem.lu_solve_dots(lu, pairs, z, spoil(row[:2])),
        })
    with monkeypatch.context() as patch:
        patch.setattr(fem, "_lib", NoKernel())
        for name, call in cases.items():
            with pytest.raises(TypeError, match=re.escape(name)):
                call()
    if flaw == "read-only":
        ones = np.ones(3)
        X = _thomas(spoil(row), spoil(ones), spoil(ones), np.empty((n, 3)))
        assert hexes(X[:, 0]) == hexes(column_oracle(n, row, ones, ones, 0))
        W = fem.tridiagonal_rows(sys_.Gram, spoil(rows))
        assert hexes(W[0]) == hexes(TridiagonalArrays.of(sys_.Gram, n).matvec(rows[0]))
        c = np.array([1.0, 0.5, -2.0, 0.25, 3.0])
        g = lift_in_snapshot_order([v, v, v, v, v], c)
        got = lift(spoil(v), spoil(v), spoil(np.repeat(c[:, None], 2, axis=1)))
        assert hexes(got) == hexes([h1_norm_lanes(sys_, g)] * 2)
        e = v - lift_in_snapshot_order([v, v], np.array([0.5, 0.25]))
        U, gamma = spoil(np.repeat(v[:, None], 2, axis=1)), spoil(np.tile([[0.5], [0.25]], (1, 2)))
        assert hexes(error(spoil(v), U, gamma)) == hexes([h1_norm_lanes(sys_, e)] * 2)
        F = fem.dd_gram_table(sys_, [spoil(v), spoil(2.0 * v)], 1)
        assert hexes(F) == hexes(fem.dd_gram_table(sys_, [v, 2.0 * v], 0)[:, 1:])
        (hi, lo, root), clamps = fem.dd_radicands((spoil(row), spoil(ones)), spoil(z))
        assert hi.tolist() == [15.0, 15.0] and lo.tolist() == [0.0, 0.0]
        assert root.tolist() == dd_root(hi, lo)[0].tolist() and clamps == 0
        assert fem.fsum_columns(spoil(row), spoil(z)).tolist() == [12.0, 12.0]
        got = fem.lu_solve_dots((spoil(lu[0]), spoil(lu[1])), spoil(pairs), spoil(z), spoil(row[:2]))
        assert got.tolist() == [8.0, 8.0]


def test_thomas_leaves_caller_data_unchanged():
    # The two passes only read their lists, and the kernel its (m,) rows of
    # diagonal and off-diagonal and its right-hand side, one (m,) row that
    # every row shares or one row per mesh row.
    rng = np.random.default_rng(12)
    n, m = 9, 4
    diag = (4.0 + rng.uniform(size=n)).tolist()
    off = rng.normal(size=n - 1).tolist()
    rhs = rng.normal(size=n).tolist()
    before = [list(a) for a in (diag, off, rhs)]
    thomas_substitute(off, *thomas_factor(diag, off), rhs)
    assert [diag, off, rhs] == before
    rows = [4.0 + rng.uniform(size=m), rng.normal(size=m), rng.normal(size=m)]
    rows.append(rng.normal(size=(n, m)))
    saved = [r.tobytes() for r in rows]
    thomas_equal_rows(n, *rows[:3])
    thomas_equal_rows(n, *rows[:2], rows[3])
    assert [r.tobytes() for r in rows] == saved


def test_block_thomas_matches_column_solves_bit_for_bit():
    # Column j of the kernel must equal the two-pass solve of its n equal
    # rows.  The kernel keeps the pivot of every s-th row, s = isqrt(n)
    # unless given, and recomputes a segment of multipliers on the way
    # back: n = 1, 2, 3 have one segment at most, and n = t*t - 1, t*t,
    # t*t + 1 end one row short of a segment boundary, on it, and one past
    # it.  s = 2 leaves a short last segment whenever n is even.  The
    # right-hand side is shared by every row (the truth solve) or one per
    # row (the Riesz lift).
    rng = np.random.default_rng(11)
    sizes = [1, 2, 3] + [t * t + k for t in (3, 7) for k in (-1, 0, 1)]
    for n in sizes:
        for m in (1, 5, 100):
            for s in (None, 2):
                for rhs_shape in ((m,), (n, m)):
                    diag = 4.0 + rng.uniform(size=m)
                    off = rng.normal(size=m)
                    rhs = rng.normal(size=rhs_shape)
                    X = thomas_equal_rows(n, diag, off, rhs, s)
                    assert X.shape == (n, m)
                    for j in range(m):
                        ref = column_oracle(n, diag, off, rhs, j)
                        assert hexes(X[:, j]) == hexes(ref), (n, m, s, rhs_shape, j)


def test_fused_thomas_raises_on_zero_pivot():
    # One column, as the one-parameter solve runs the kernel: a zero first
    # pivot, a zero last pivot (1 - 1*1 in the second of two rows), and
    # that second pivot followed by more rows.
    for diag, n in ((0.0, 3), (0.0, 1), (1.0, 2), (1.0, 50)):
        with pytest.raises(np.linalg.LinAlgError):
            thomas_equal_rows(n, [diag], [1.0], [1.0])


@pytest.mark.parametrize("col", [0, 2, 4])
def test_block_thomas_raises_on_zero_pivot_in_one_column(col):
    # In column col only: a zero first pivot, a zero last pivot (1 - 1*1
    # in the second of two rows), and that second pivot followed by more
    # rows, where the next multiplier divides by it.
    diag, off, rhs = np.full(5, 4.0), np.ones(5), np.ones(5)
    for d, n in ((0.0, 3), (1.0, 2), (1.0, 50)):
        diag[col] = d
        with pytest.raises(np.linalg.LinAlgError):
            thomas_equal_rows(n, diag, off, rhs)


# --- the kernel's build cache ------------------------------------------------


def package_copy(tmp_path):
    """A copy of the rbcert package under tmp_path, without its build cache."""
    pkg = os.path.dirname(rb.__file__)
    shutil.copytree(pkg, tmp_path / "rbcert", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "rbcert"


def import_rbcert(path, **env):
    """Start a fresh interpreter that imports rbcert from path."""
    env = dict(os.environ, PYTHONPATH=str(path), **env)
    return subprocess.Popen(
        [sys.executable, "-c", "import rbcert"], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def test_a_second_import_loads_the_cached_kernel():
    # Importing rbcert.fem built the kernel; building it again finds the
    # same library and leaves it as it was.
    lib = fem._build(fem._SOURCE, fem._FLAGS)
    before = os.stat(lib._name).st_mtime_ns
    assert os.path.basename(lib._name).startswith("_rows-")
    again = fem._build(fem._SOURCE, fem._FLAGS)
    assert again._name == lib._name
    assert os.stat(lib._name).st_mtime_ns == before


def test_concurrent_first_imports_leave_one_library(tmp_path):
    pkg = package_copy(tmp_path)
    procs = [import_rbcert(tmp_path) for _ in range(2)]
    results = [proc.communicate(timeout=300) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], results
    built = [p.name for p in (pkg / "__pycache__").iterdir() if not p.name.endswith(".pyc")]
    assert built == [os.path.basename(fem._build(fem._SOURCE, fem._FLAGS)._name)]


def test_an_unwritable_build_cache_is_an_import_error(monkeypatch):
    # A __pycache__ that cannot be made, whoever runs the test: the denial
    # is patched in, and the source is one whose library was never built.
    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(os, "makedirs", denied)
    cache = os.path.join(os.path.dirname(fem.__file__), "__pycache__")
    before = sorted(os.listdir(cache))
    with pytest.raises(ImportError, match=re.escape(f"building its C kernel in {cache}")) as info:
        fem._build(fem._SOURCE + "/* never built */\n", fem._FLAGS)
    assert "Permission denied" in str(info.value)
    assert sorted(os.listdir(cache)) == before


def test_import_without_a_compiler_names_it(tmp_path):
    package_copy(tmp_path)
    empty = tmp_path / "bin"
    empty.mkdir()
    proc = import_rbcert(tmp_path, PATH=str(empty))
    _, err = proc.communicate(timeout=300)
    assert proc.returncode != 0
    assert "ImportError" in err and "`cc -O3 -ffp-contract=off" in err, err


# --- truth solve -----------------------------------------------------------


def test_solve_truth_rejects_mu_below_domain():
    s = rb.assemble(10)
    with pytest.raises(ValueError):
        rb.solve_truth(s, 0.5)


def test_block_truth_solve_holds_one_solution_sized_array():
    # The solution is the only (N, m) array: the kept pivots and one
    # segment of multipliers add about 2*sqrt(N) rows, 2 % at N = 1999.
    s = rb.assemble(2000)
    mus = np.geomspace(1.0, 1000.0, 64)
    tracemalloc.start()
    try:
        U = rb.solve_truth(s, mus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert U.shape == (s.n, 64)
    assert peak <= 1.1 * U.nbytes


def test_block_truth_solve_at_the_large_mesh_chunk_holds_one_solution_sized_array():
    # A 104-point chunk at N = 9999 (the large-mesh sweep's shape): the
    # kept pivots of 101 segments and one segment of 99 multipliers add
    # 200 rows, 2 %.
    s = rb.assemble(10000)
    mus = np.geomspace(1.0, 1000.0, 104)
    tracemalloc.start()
    try:
        U = rb.solve_truth(s, mus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert U.shape == (s.n, 104)
    assert peak <= 1.1 * U.nbytes


@pytest.mark.parametrize("shape", [(1, 3), (3, 1), (2, 2)])
def test_solve_truth_rejects_a_block_that_is_not_1d(shape):
    s = rb.assemble(10)
    with pytest.raises(ValueError, match=rf"shape \({shape[0]}, {shape[1]}\)"):
        rb.solve_truth(s, np.full(shape, 2.0))


@pytest.mark.parametrize("n_cells", [2, 200, 10000])
def test_block_truth_solve_columns_are_scalar_solves(n_cells):
    # A block and one parameter at a time, m columns of the kernel and one,
    # give the same bits.
    s = rb.assemble(n_cells)
    mus = np.array([1.0, 3.7, 999.0])
    U = rb.solve_truth(s, mus)
    for j, mu in enumerate(mus.tolist()):
        assert U[:, j].tolist() == rb.solve_truth(s, mu).tolist()


@pytest.mark.parametrize("n_cells", [2, 3, 4, 200, 10000])
def test_fused_truth_solve_equals_the_two_pass_solve(n_cells):
    # The kernel's forward sweep fuses factor and forward substitution on
    # the equal rows of A(mu); it must give the bits of the two-pass solve
    # on A(mu)'s lists.  n_cells = 2 is N = 1: no off-diagonal to read.
    s = rb.assemble(n_cells)
    for mu in (1.0, 37.5, 1000.0):
        A = operator(s, mu)
        u = rb.solve_truth(s, mu)
        assert hexes(u) == hexes(thomas(A.diag, A.off, s.F)), mu


def test_truth_solution_satisfies_discrete_system():
    # Thomas elimination is backward stable: the residual scales with
    # ||A||*||u||, which dwarfs ||F|| here (entries of K are 2/h = 400).
    s = rb.assemble(200)
    for mu in (1.0, 42.0, 1000.0):
        u = rb.solve_truth(s, mu)
        res = operator(s, mu).matvec(u) - s.F
        scale = (4.0 / s.h + 2.0 * mu * s.h) * np.max(np.abs(u))
        assert np.max(np.abs(res)) <= 1e-13 * scale


def test_midpoint_value_close_to_analytic():
    s = rb.assemble(200)
    mu = 10.0
    u = rb.solve_truth(s, mu)
    mid = s.n // 2  # node at x = 0.5
    exact = analytic_solution(mu, 0.5)
    # Nodal error is O(h^2) ~ 2.5e-5 at h = 1/200.
    assert abs(u[mid] - exact) <= 1e-4 * abs(exact)


def test_large_mu_interior_plateau():
    # For large mu the solution is ~1/mu away from the O(1/sqrt(mu))
    # boundary layers.
    s = rb.assemble(200)
    mu = 1e5
    u = rb.solve_truth(s, mu)
    mid = s.n // 2
    assert u[mid] == pytest.approx(1.0 / mu, rel=0.01)


# --- H1 inner product and Riesz representative ------------------------------


def test_h1_inner_matches_dense_quadratic_form():
    s = rb.assemble(30)
    rng = np.random.default_rng(6)
    G = dense(TridiagonalArrays.of(s.Gram, s.n))
    for _ in range(5):
        u = rng.normal(size=s.n)
        v = rng.normal(size=s.n)
        assert rb.h1_inner(s, u, v) == pytest.approx(u @ G @ v, rel=1e-13)
        assert rb.h1_inner(s, u, v) == pytest.approx(rb.h1_inner(s, v, u), rel=1e-13)


def test_h1_inner_rejects_shape_mismatch():
    s = rb.assemble(10)
    with pytest.raises(ValueError):
        rb.h1_inner(s, np.ones(3), np.ones(9))


def test_h1_inner_takes_strided_and_integer_vectors():
    # The compiled product takes contiguous float64 rows, so h1_inner
    # converts v first: a strided view and an integer vector give the
    # numpy oracle's value on the same entries, bit for bit.
    s = rb.assemble(30)
    G = TridiagonalArrays.of(s.Gram, s.n)
    rng = np.random.default_rng(9)
    u, wide = rng.normal(size=s.n), rng.normal(size=(s.n, 3))
    ints = np.arange(s.n) * 7 - 100
    for v in (wide[:, 1], wide[::-1, 2], ints):
        assert rb.h1_inner(s, u, v).hex() == float(u @ G.matvec(v)).hex()
        assert rb.h1_inner(s, v, v).hex() == float(v @ G.matvec(v)).hex()


def test_h1_norm_is_nonnegative_and_definite():
    s = rb.assemble(20)
    assert h1_norm(s, np.zeros(s.n)) == 0.0
    assert h1_norm(s, np.ones(s.n)) > 1.0  # mass alone contributes ~1


def test_riesz_representative_reproduces_functional():
    s = rb.assemble(100)
    rng = np.random.default_rng(7)
    f = rng.normal(size=s.n)
    w = rb.riesz_representative(s, f)
    for _ in range(5):
        v = rng.normal(size=s.n)
        assert rb.h1_inner(s, w, v) == pytest.approx(float(f @ v), rel=1e-12)


def test_riesz_norm_squared_equals_functional_applied_to_it():
    s = rb.assemble(200)
    w = rb.riesz_representative(s, s.F)
    assert rb.h1_inner(s, w, w) == pytest.approx(float(s.F @ w), rel=1e-13)


@pytest.mark.parametrize("n_cells", [2, 3, 200, 10000])
def test_factored_riesz_solve_equals_a_fresh_thomas_solve(n_cells):
    # A Riesz lift factors Gram again inside the kernel, one mesh row at a
    # time.  It must give the bits of the two-pass solve, and for the load,
    # whose rows are all equal, those of the kernel on one shared row, the
    # truth solve's path.  n_cells = 2 is N = 1: no multiplier at all.
    s = rb.assemble(n_cells)
    rng = np.random.default_rng(n_cells)
    K, G = (TridiagonalArrays.of(T, s.n) for T in (s.K, s.Gram))
    for f in (s.F, rng.normal(size=s.n), K.matvec(rng.normal(size=s.n))):
        w = rb.riesz_representative(s, f)
        assert hexes(w) == hexes(thomas(G.diag, G.off, f))
    column = thomas_equal_rows(s.n, [s.Gram.diag], [s.Gram.off], s.F[:1])[:, 0]
    assert hexes(column) == hexes(rb.riesz_representative(s, s.F))


@pytest.mark.parametrize("n_cells", [2, 3, 4, 200, 10000])
def test_block_gram_substitution_equals_one_vector_lifts(n_cells):
    # The loader lifts its functionals as one block, in place: the kernel's
    # right-hand side is its solution array.  Each column must keep the
    # one-vector bits, and no lifted functional changes.
    s = rb.assemble(n_cells)
    rng = np.random.default_rng(n_cells)
    for m in (1, 2, 25):
        rhs = rng.normal(size=(s.n, m))
        cols = [rhs[:, j].copy() for j in range(m)]
        W = _lift(s, rhs, rhs)
        assert W is rhs and W.shape == (s.n, m)
        for j, f in enumerate(cols):
            before = f.tobytes()
            assert hexes(W[:, j]) == hexes(rb.riesz_representative(s, f))
            assert f.tobytes() == before


@pytest.mark.parametrize("shape", [(4,), (6,), (5, 2)])
def test_riesz_rejects_a_mis_shaped_functional(shape):
    with pytest.raises(ValueError):
        rb.riesz_representative(rb.assemble(6), np.ones(shape))


# --- analytic reference ------------------------------------------------------


def test_analytic_boundary_values_are_exact_zeros():
    for mu in (1.0, 100.0, 1e6, 1e12):
        u = analytic_solution(mu, np.array([0.0, 1.0]))
        assert u[0] == 0.0 and u[1] == 0.0


def test_analytic_rejects_mu_below_domain():
    with pytest.raises(ValueError):
        analytic_solution(0.0, 0.5)


def test_analytic_is_symmetric_about_half():
    mu = 250.0
    x = np.linspace(0.0, 1.0, 41)
    u = analytic_solution(mu, x)
    assert np.allclose(u, u[::-1], rtol=1e-14, atol=0)


def test_analytic_satisfies_ode():
    # -u'' + mu*u = 1, checked with the exact derivative and a central
    # difference of it.
    mu = 30.0
    x = np.linspace(0.1, 0.9, 17)
    d = 1e-6
    ddu = (analytic_derivative(mu, x + d) - analytic_derivative(mu, x - d)) / (2 * d)
    r = -ddu + mu * analytic_solution(mu, x)
    assert np.allclose(r, 1.0, rtol=0, atol=1e-3)


def test_analytic_derivative_matches_difference_quotient():
    mu = 7.0
    x = np.linspace(0.05, 0.95, 13)
    d = 1e-7
    fd = (analytic_solution(mu, x + d) - analytic_solution(mu, x - d)) / (2 * d)
    assert np.allclose(analytic_derivative(mu, x), fd, rtol=1e-6, atol=1e-12)


def test_h1_error_first_order_convergence():
    # P1 elements: H1 error = O(h), so halving h halves the error.
    for mu in (1.0, 100.0):
        errs = []
        for n_cells in (50, 100, 200):
            s = rb.assemble(n_cells)
            u = rb.solve_truth(s, mu)
            errs.append(h1_error_vs_analytic(s, u, mu))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.1)


def test_h1_error_of_manufactured_interpolant():
    # The error functional is a norm: zero only for the exact solution,
    # and the truth solution must beat a crude perturbation of itself.
    s = rb.assemble(100)
    mu = 5.0
    u = rb.solve_truth(s, mu)
    base = h1_error_vs_analytic(s, u, mu)
    bumped = u.copy()
    bumped[s.n // 2] += 1e-3
    assert base > 0.0
    assert h1_error_vs_analytic(s, bumped, mu) > base
