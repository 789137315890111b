"""Truth solver: assembly oracles, Thomas solve, analytic reference, quadrature."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import rbcert as rb
from rbcert.fem import (
    Tridiagonal,
    _gram_substitute_block,
    _pivot_errors,
    _thomas_equal_rows,
    _thomas_factor,
    _thomas_fused,
    _thomas_substitute,
)

from conftest import analytic_derivative, analytic_solution, h1_error_vs_analytic, operator


def dense(T: Tridiagonal) -> np.ndarray:
    A = np.diag(T.diag.copy())
    n = len(T.diag)
    for i in range(n - 1):
        A[i, i + 1] = A[i + 1, i] = T.off[i]
    return A


# --- assembly ------------------------------------------------------------


def test_smallest_mesh_entries():
    # One interior node, h = 1/2: K = [2/h] = [4], M = [2h/3] = [1/3],
    # F = [h] = [1/2].  All exactly representable.
    s = rb.assemble(2)
    assert s.n == 1
    assert s.K.diag.tolist() == [4.0]
    assert s.K.off.size == 0
    assert s.M.diag.tolist() == [1.0 / 3.0]
    assert s.F.tolist() == [0.5]
    assert s.Gram.diag.tolist() == [4.0 + 1.0 / 3.0]


def test_assembly_single_rounding_from_closed_form():
    # h itself is one rounding of 1/n_cells; every entry must then be the
    # correctly rounded value of its closed-form expression in that h.
    s = rb.assemble(7)
    h = Fraction(s.h)
    assert s.h == 1.0 / 7
    assert float(s.K.diag[0]) == float(Fraction(2) / h)
    assert float(-s.K.off[0]) == float(Fraction(1) / h)
    assert float(s.M.diag[0]) == float(Fraction(float(2.0 * s.h)) / 3)
    assert float(s.M.off[0]) == float(h / 6)
    assert float(s.F[0]) == s.h
    assert np.array_equal(s.Gram.diag, s.K.diag + s.M.diag)
    assert np.array_equal(s.Gram.off, s.K.off + s.M.off)


def test_assemble_rejects_degenerate_mesh():
    with pytest.raises(ValueError):
        rb.assemble(1)


def test_operator_is_affine():
    s = rb.assemble(10)
    mu = 37.5
    A = operator(s, mu)
    assert np.allclose(dense(A), dense(s.K) + mu * dense(s.M), rtol=1e-15, atol=0)


# --- tridiagonal linear algebra -------------------------------------------


def test_matvec_matches_dense():
    rng = np.random.default_rng(3)
    T = Tridiagonal(rng.normal(size=9), rng.normal(size=8))
    v = rng.normal(size=9)
    assert np.allclose(T.matvec(v), dense(T) @ v, rtol=1e-14, atol=1e-14)


def thomas(diag, off, rhs):
    """One system through the scalar kernels on Python floats, as solve_truth runs it."""
    diag, off, rhs = (np.asarray(a, dtype=float).tolist() for a in (diag, off, rhs))
    with _pivot_errors():
        return np.array(_thomas_substitute(off, *_thomas_factor(diag, off), rhs))


def thomas_equal_rows(n, diag, off, rhs):
    """Columns of n equal rows through the block kernel, as solve_truth runs it."""
    with _pivot_errors():
        return _thomas_equal_rows(n, *(np.asarray(a, dtype=float) for a in (diag, off, rhs)))


def test_thomas_matches_dense_solve():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 50):
        # Diagonally dominant, so both solvers are stable.
        T = Tridiagonal(4.0 + rng.uniform(size=n), rng.normal(size=n - 1))
        rhs = rng.normal(size=n)
        x = thomas(T.diag, T.off, rhs)
        assert np.allclose(x, np.linalg.solve(dense(T), rhs), rtol=1e-12, atol=1e-14)


def test_thomas_raises_on_zero_pivot():
    # A zero pivot in the first row, then in the last row of 2 and of 3.
    for diag in ([0.0, 0.0], [1.0, 1.0], [1.0, 2.0, 1.0]):
        n = len(diag)
        with pytest.raises(np.linalg.LinAlgError):
            thomas(diag, [1.0] * (n - 1), [1.0] * n)


def test_thomas_leaves_caller_data_unchanged():
    # The kernels only read their operands: lists for the scalar ones, one
    # (m,) row each of diagonal, off-diagonal and rhs for the block one.
    rng = np.random.default_rng(12)
    n, m = 9, 4
    diag = (4.0 + rng.uniform(size=n)).tolist()
    off = rng.normal(size=n - 1).tolist()
    rhs = rng.normal(size=n).tolist()
    before = [list(a) for a in (diag, off, rhs)]
    _thomas_substitute(off, *_thomas_factor(diag, off), rhs)
    assert [diag, off, rhs] == before
    rows = [4.0 + rng.uniform(size=m), rng.normal(size=m), rng.normal(size=m)]
    saved = [r.tobytes() for r in rows]
    thomas_equal_rows(n, *rows)
    assert [r.tobytes() for r in rows] == saved


def test_block_thomas_matches_column_solves_bit_for_bit():
    # Column j of the block kernel must equal the scalar solve of its n
    # equal rows.  The kernel keeps the pivot of every s-th row, s =
    # isqrt(n), and recomputes a segment of multipliers on the way back:
    # n = 1, 2, 3 have one segment at most, and n = t*t - 1, t*t, t*t + 1
    # end one row short of a segment boundary, on it, and one past it.
    rng = np.random.default_rng(11)
    sizes = [1, 2, 3] + [t * t + k for t in (3, 7) for k in (-1, 0, 1)]
    for n in sizes:
        for m in (1, 5):
            diag = 4.0 + rng.uniform(size=m)
            off = rng.normal(size=m)
            rhs = rng.normal(size=m)
            X = thomas_equal_rows(n, diag, off, rhs)
            assert X.shape == (n, m)
            for j in range(m):
                ref = thomas([diag[j]] * n, [off[j]] * (n - 1), [rhs[j]] * n)
                assert X[:, j].tolist() == ref.tolist(), (n, m, j)


@pytest.mark.parametrize("budget", [1, 16])
def test_block_thomas_slabs_and_segments_match_column_solves(budget, monkeypatch):
    # A row budget of B gives g = ceil(n / B) segments per back-sweep slab
    # (at most the number of segments) and segments of s = isqrt(n // g)
    # rows.  With B = 16, n = 1..49 spans g = 1..4, short last segments
    # (n = 38: s = 3, 13 segments, the last with 1 multiplier) and short
    # last slabs (13 = 4*3 + 1); B = 1 puts every segment in one slab.
    # n = 1 and 2 leave the (n - 1, 2, m) window view 0 rows and 1.  The
    # forward sweep divides for x_0 and for c_i and x_i at every later
    # row, and the back sweep must form the n - 1 multipliers again and
    # no more: its pivot recurrence never runs past the last row.
    monkeypatch.setattr("rbcert.fem._SLAB_ROWS", budget)
    divide = np.divide
    divided = []

    def counting_divide(a, b, out):
        divided.append(out.size)
        return divide(a, b, out)

    rng = np.random.default_rng(13)
    for n in range(1, 50):
        for m in (1, 5):
            diag = 4.0 + rng.uniform(size=m)
            off = rng.normal(size=m)
            rhs = rng.normal(size=m)
            divided.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np, "divide", counting_divide)
                X = thomas_equal_rows(n, diag, off, rhs)
            assert sum(divided) == (3 * n - 2) * m, (n, m)
            for j in range(m):
                ref = thomas([diag[j]] * n, [off[j]] * (n - 1), [rhs[j]] * n)
                assert X[:, j].tolist() == ref.tolist(), (n, m, j)


def test_fused_thomas_raises_on_zero_pivot():
    # A zero first pivot, a zero last pivot (1 - 1*1 in the second of two
    # rows), and that second pivot followed by more rows.
    for diag, n in ((0.0, 3), (0.0, 1), (1.0, 2), (1.0, 50)):
        with pytest.raises(np.linalg.LinAlgError), _pivot_errors():
            _thomas_fused(n, diag, 1.0, 1.0)


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


# --- truth solve -----------------------------------------------------------


def test_solve_truth_rejects_mu_below_domain():
    s = rb.assemble(10)
    with pytest.raises(ValueError):
        rb.solve_truth(s, 0.5)


def test_block_truth_solve_holds_one_solution_sized_array():
    # The solution is the only (N, m) array: the kept pivots and one
    # segment of multipliers add about 2*sqrt(N) rows, 4.5 % at N = 1999.
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
    # A 104-point chunk at N = 9999 (the large-mesh sweep's shape): five
    # segments of 44 rows per back-sweep slab, so the kept pivots and one
    # slab add about 450 rows, 4.5 %.
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
    # solve_truth's two branches: the block kernel on one row per parameter
    # and the scalar kernels on Python floats give the same bits.
    s = rb.assemble(n_cells)
    mus = np.array([1.0, 3.7, 999.0])
    U = rb.solve_truth(s, mus)
    for j, mu in enumerate(mus.tolist()):
        assert U[:, j].tolist() == rb.solve_truth(s, mu).tolist()


@pytest.mark.parametrize("n_cells", [2, 3, 4, 200, 10000])
def test_fused_truth_solve_equals_the_two_pass_solve(n_cells):
    # The scalar branch fuses factor and substitution into one loop on the
    # equal rows of A(mu); it must give the bits of the two-pass kernels on
    # A(mu)'s lists.  n_cells = 2 is N = 1: no off-diagonal to read.
    s = rb.assemble(n_cells)
    for mu in (1.0, 37.5, 1000.0):
        A = operator(s, mu)
        off = A.off.tolist()
        ref = _thomas_substitute(off, *_thomas_factor(A.diag.tolist(), off), s.F.tolist())
        u = rb.solve_truth(s, mu)
        assert list(map(float.hex, u.tolist())) == list(map(float.hex, ref)), mu


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
    G = dense(s.Gram)
    for _ in range(5):
        u = rng.normal(size=s.n)
        v = rng.normal(size=s.n)
        assert rb.h1_inner(s, u, v) == pytest.approx(u @ G @ v, rel=1e-13)
        assert rb.h1_inner(s, u, v) == pytest.approx(rb.h1_inner(s, v, u), rel=1e-13)


def test_h1_inner_rejects_shape_mismatch():
    s = rb.assemble(10)
    with pytest.raises(ValueError):
        rb.h1_inner(s, np.ones(3), np.ones(9))


def test_h1_norm_is_nonnegative_and_definite():
    s = rb.assemble(20)
    assert rb.h1_norm(s, np.zeros(s.n)) == 0.0
    assert rb.h1_norm(s, np.ones(s.n)) > 1.0  # mass alone contributes ~1


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
    # Gram is factored once, at assembly, and a Riesz lift runs only the
    # substitution sweeps.  It must give the bits of a fresh scalar solve,
    # and for the load, whose rows are all equal, those of the block
    # kernel, a separate loop, on one column.  n_cells = 2 is N = 1: no
    # multiplier at all.
    s = rb.assemble(n_cells)
    rng = np.random.default_rng(n_cells)
    for f in (s.F, rng.normal(size=s.n), s.K.matvec(rng.normal(size=s.n))):
        w = list(map(float.hex, rb.riesz_representative(s, f).tolist()))
        assert w == list(map(float.hex, thomas(s.Gram.diag, s.Gram.off, f).tolist()))
    G = s.Gram
    off = G.off[:1] if s.n > 1 else [0.0]
    column = thomas_equal_rows(s.n, G.diag[:1], off, s.F[:1])[:, 0]
    w = rb.riesz_representative(s, s.F)
    assert list(map(float.hex, column.tolist())) == list(map(float.hex, w.tolist()))


@pytest.mark.parametrize("n_cells", [2, 3, 4, 200, 10000])
def test_block_gram_substitution_equals_one_vector_lifts(n_cells):
    # The block runs riesz_representative's sweeps one mesh row of every
    # column at a time; each column must keep the one-vector bits.  It
    # overwrites its right-hand sides and returns them.
    s = rb.assemble(n_cells)
    rng = np.random.default_rng(n_cells)
    for m in (1, 2, 25):
        rhs = rng.normal(size=(s.n, m))
        cols = [rhs[:, j].copy() for j in range(m)]
        W = _gram_substitute_block(s, rhs)
        assert W is rhs and W.shape == (s.n, m)
        for j, f in enumerate(cols):
            w = rb.riesz_representative(s, f)
            assert list(map(float.hex, W[:, j].tolist())) == list(map(float.hex, w.tolist()))


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
