import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pvar.errors import NumericError
from pvar.linalg import (_TRI_BLOCK, COND_LIMIT, cholesky_upper,
                         require_conditioned, solve_guarded, tri_inv, vec)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def random_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols))


def test_vec_stacks_columns():
    a = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(a), [1.0, 2.0, 3.0, 4.0])


@settings(max_examples=50, deadline=None)
@given(arrays(float, (2, 3), elements=finite), arrays(float, (3, 4), elements=finite),
       arrays(float, (4, 2), elements=finite))
def test_vec_kron_identity(a, b, c):
    # vec(A B C) = (C' kron A) vec(B)
    lhs = vec(a @ b @ c)
    rhs = np.kron(c.T, a) @ vec(b)
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12 * (1 + np.abs(lhs).max()))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_kron_mixed_product(seed):
    rng = np.random.default_rng(seed)
    a, b = random_matrix(rng, 2, 2), random_matrix(rng, 3, 3)
    c, d = random_matrix(rng, 2, 2), random_matrix(rng, 3, 3)
    lhs = np.kron(a, b) @ np.kron(c, d)
    rhs = np.kron(a @ c, b @ d)
    assert np.allclose(lhs, rhs, atol=1e-12 * (1 + np.abs(rhs).max()))


def test_cholesky_upper_factorizes():
    rng = np.random.default_rng(1)
    a = random_matrix(rng, 4, 4)
    sigma = a @ a.T + 4 * np.eye(4)
    m = cholesky_upper(sigma)
    assert np.allclose(np.triu(m), m)
    assert np.allclose(m.T @ m, sigma)
    # a stack gives each matrix's own factor, bit for bit
    stack = np.stack([sigma, 2 * sigma + np.eye(4), np.eye(4)])
    for one, sig in zip(cholesky_upper(stack), stack):
        assert np.array_equal(one, cholesky_upper(sig))


def test_cholesky_upper_rejects_indefinite():
    with pytest.raises(NumericError, match="covariance is not positive definite"):
        cholesky_upper(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(NumericError, match="covariance is not symmetric"):
        cholesky_upper(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NumericError, match="covariance is not symmetric"):  # one in a stack
        cholesky_upper(np.stack([np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]])]))
    with pytest.raises(ValueError):
        cholesky_upper(np.ones(3))


def test_solve_guarded_flags_singular():
    with pytest.raises(NumericError, match="^matrix is numerically singular$"):
        solve_guarded(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]), np.ones(2))


def test_solve_guarded_solves():
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    x = solve_guarded(a, np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0])


@pytest.mark.parametrize("a", [np.zeros((3, 3)), np.full((3, 3), np.nan),
                               np.diag([1.0, np.inf])])
def test_solve_guarded_raises_its_error_on_zero_and_nonfinite(a):
    with pytest.raises(NumericError, match="R Theta R' is numerically singular"):
        solve_guarded(a, np.ones(a.shape[0]), what="R Theta R'")
    with pytest.raises(NumericError, match="^matrix is numerically singular$"):
        solve_guarded(np.stack([np.eye(len(a)), a]), np.ones((2, len(a))))


def test_solve_guarded_accepts_well_conditioned_indefinite():
    a = np.diag([1.0, -1.0])
    assert np.array_equal(solve_guarded(a, np.array([2.0, 3.0])), [2.0, -3.0])


def spd_with_condition(rng, n, cond):
    """Random symmetric positive definite n x n matrix of condition ~cond."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.geomspace(1.0, 1.0 / cond, n)) @ q.T
    return (a + a.T) / 2


@pytest.mark.parametrize("n", [2, 5, 18, 36, 90, 270])
def test_solve_guarded_decides_as_the_condition_number(n):
    # near COND_LIMIT the smallest eigenvalue is known only to about
    # eps * max, ~1e-4 relative, so the nearest matrices sit 1% away
    rng = np.random.default_rng(n)
    for factor in (1e-9, 1e-6, 0.5, 0.99, 1.01, 2.0, 1e3):
        a = spd_with_condition(rng, n, factor * COND_LIMIT)
        b = rng.standard_normal(n)
        if np.linalg.cond(a) > COND_LIMIT:
            assert factor > 1
            with pytest.raises(NumericError, match="matrix is numerically singular"):
                solve_guarded(a, b)
        else:
            assert factor < 1
            assert np.array_equal(solve_guarded(a, b), np.linalg.solve(a, b))


def _guard_raises(a, inv_factor=None):
    try:
        require_conditioned(a, inv_factor=inv_factor)
    except NumericError:
        return True
    return False


@pytest.mark.parametrize("n", [2, 5, 18, 36, 90, 270])
def test_cholesky_bound_decides_as_the_eigenvalues(n, monkeypatch):
    # trace(a) ||L^-1||_F^2 >= cond(a): a bound at most COND_LIMIT / 2
    # passes with no eigenvalues, a larger one leaves the decision to them
    rng = np.random.default_rng(n)
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: calls.append(a.shape) or eigvalsh(a))
    matrices = [spd_with_condition(rng, n, factor * COND_LIMIT)
                for factor in (1e-9, 1e-6, 0.5, 0.99, 1.01, 2.0, 1e3)]
    if n == 36:
        # eigenvalues 1 and 1e-10, half each: condition 1e10, far inside
        # the limit, yet the bound, about 18 * 18e10, declines
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * np.repeat([1.0, 1e-10], n // 2)) @ q.T
        matrices.append((a + a.T) / 2)
    by_eigenvalues = []
    for a in matrices:
        want = _guard_raises(a)
        try:
            lower = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:  # the search raises before its guard
            assert want
            continue
        inv = np.linalg.solve(lower, np.eye(n))
        bound = np.trace(a) * (inv ** 2).sum()
        # both sides are known only to ~eps * cond relative: ~1e-4 near
        # COND_LIMIT, nothing at 1e3 times it
        if np.linalg.cond(a) < 10 * COND_LIMIT:
            assert bound >= np.linalg.cond(a) * (1 - 1e-3)
        calls.clear()
        assert _guard_raises(a, inv) == want
        assert calls == ([] if bound <= COND_LIMIT / 2 else [(n, n)])
        by_eigenvalues.append(bool(calls))
    assert by_eigenvalues[:2] == [False, False]
    if n == 36:
        assert by_eigenvalues[-1] and not want
    # a stack is decided as a whole, as its matrices one by one
    stack = np.stack(matrices[:4])
    inv = np.linalg.solve(np.linalg.cholesky(stack), np.eye(n))
    assert _guard_raises(stack, inv) == any(map(_guard_raises, matrices[:4]))
    assert _guard_raises(np.stack([stack[0], stack[0]]),
                         np.stack([inv[0], inv[0]])) is False


@pytest.mark.parametrize("a", [np.full((3, 3), np.nan), np.diag([1.0, 1.0, np.inf])])
def test_cholesky_bound_never_passes_a_nonfinite_matrix(a):
    assert _guard_raises(a, np.eye(3) * 1e-3)


@pytest.mark.parametrize("n", [1, _TRI_BLOCK, _TRI_BLOCK + 1, 270])
@pytest.mark.parametrize("stack", [(), (3,)])
def test_tri_inv_inverts_cholesky_factors(n, stack):
    rng = np.random.default_rng(n)
    X = rng.standard_normal(stack + (3 * n, n))
    L = np.linalg.cholesky(np.swapaxes(X, -1, -2) @ X)
    got, want = tri_inv(L), np.linalg.inv(L)
    assert got.shape == L.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert not np.triu(got, 1).any()  # the upper triangle is exactly zero


def test_tri_inv_raises_on_an_exactly_singular_block():
    L = np.tril(np.ones((40, 40)))
    L[30, 30] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        tri_inv(L)
