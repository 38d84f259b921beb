import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pvar.errors import NotPositiveDefinite, SingularDesign
from pvar.linalg import cholesky_upper, solve_guarded, vec

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


def test_cholesky_upper_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky_upper(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(NotPositiveDefinite):
        cholesky_upper(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_solve_guarded_flags_singular():
    with pytest.raises(SingularDesign):
        solve_guarded(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]), np.ones(2))


def test_solve_guarded_solves():
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    x = solve_guarded(a, np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0])
