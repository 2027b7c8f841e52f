import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clembed.linalg import (pca_project, sinkhorn_scale, solve_cca,
                            solve_procrustes, svd, zca_whitening_matrix)
from conftest import random_rotation


def test_svd_reconstructs():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 4))
    u, s, vt = svd(a)
    assert np.allclose(u * s @ vt, a, atol=1e-10)
    assert np.all(np.diff(s) <= 0)


def test_svd_sign_convention_is_stable():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 5))
    u1, _, _ = svd(a)
    u2, _, _ = svd(a.copy())
    assert np.array_equal(u1, u2)
    for col in u1.T:
        assert col[np.argmax(np.abs(col))] >= 0


@pytest.mark.parametrize("shape", [(6, 4), (4, 6), (5, 5)])
def test_svd_falls_back_to_gesvd_when_gesdd_does_not_converge(monkeypatch,
                                                              shape):
    a = np.random.default_rng(6).standard_normal(shape)
    want = svd(a)
    calls = []

    def no_convergence(*args, **kwargs):
        calls.append(args)
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    got = svd(a)
    assert len(calls) == 1
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.allclose(g, w, atol=1e-12)
    u = got[0]
    assert np.all(u[np.argmax(np.abs(u), axis=0), range(u.shape[1])] >= 0)


def test_procrustes_recovers_rotation():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((50, 8))
    rot = random_rotation(8, rng)
    w = solve_procrustes(x, x @ rot)
    assert np.linalg.norm(w - rot) < 1e-10


def test_procrustes_result_is_orthogonal_under_noise():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 6))
    y = x @ random_rotation(6, rng) + 0.3 * rng.standard_normal((40, 6))
    w = solve_procrustes(x, y)
    assert np.allclose(w @ w.T, np.eye(6), atol=1e-10)


def test_procrustes_warns_on_rank_deficiency():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 6))  # rank 3 < 6
    with pytest.warns(UserWarning, match="rank-deficient"):
        solve_procrustes(x, x)


def test_zca_whitening_gives_identity_covariance():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((200, 5)) @ np.diag([3.0, 1.0, 0.5, 2.0, 1.5])
    xc = x - x.mean(axis=0)
    wm = zca_whitening_matrix(xc)
    z = xc @ wm
    cov = z.T @ z / (len(z) - 1)
    assert np.allclose(cov, np.eye(5), atol=1e-8)


def test_cca_perfect_correlation_on_rotated_copy():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((80, 5))
    y = x @ random_rotation(5, rng)
    a, b, corr = solve_cca(x, y)
    assert np.allclose(corr, 1.0, atol=1e-8)
    xc, yc = x - x.mean(0), y - y.mean(0)
    assert np.allclose(xc @ a, yc @ b, atol=1e-6)


def test_cca_correlations_sorted_and_bounded():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((120, 4))
    y = x + 0.8 * rng.standard_normal((120, 4))
    _, _, corr = solve_cca(x, y)
    assert np.all(np.diff(corr) <= 1e-12)
    assert np.all(corr <= 1.0 + 1e-9) and np.all(corr >= -1e-9)


def test_cca_keep_dims_truncates():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((60, 5))
    y = rng.standard_normal((60, 5))
    a, b, corr = solve_cca(x, y, keep_dims=2)
    assert a.shape == (5, 2) and b.shape == (5, 2) and len(corr) == 2


def test_pca_orders_variance_and_projects():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((100, 6)) * np.array([5.0, 3.0, 1.0, 0.5, 0.2, 0.1])
    res = pca_project(x, 3)
    var = res.var(axis=0)
    assert np.all(np.diff(var) <= 1e-9)
    assert res.shape == (100, 3)
    # Full-dimensional projection keeps pairwise distances (rotation of
    # the centered data).
    full = pca_project(x, 6)
    d_orig = np.linalg.norm(x[:, None] - x[None, :], axis=-1)
    d_proj = np.linalg.norm(full[:, None] - full[None, :], axis=-1)
    assert np.allclose(d_orig, d_proj, atol=1e-8)


def test_sinkhorn_balances_marginals():
    rng = np.random.default_rng(10)
    k = np.exp(rng.standard_normal((6, 8)))
    p = np.full(6, 1 / 6)
    q = np.full(8, 1 / 8)
    a, b, violation = sinkhorn_scale(k, p, q)
    gamma = (a[:, None] * k) * b[None, :]
    assert np.allclose(gamma.sum(axis=1), p, atol=1e-7)
    assert np.allclose(gamma.sum(axis=0), q, atol=1e-7)
    assert violation < 1e-7


def oracle_sinkhorn_scale(kernel, p, q, max_iter=1000, tol=1e-9):
    """The earlier loop, three matrix-vector products per step: its column
    check multiplied by `a` on the left, apart from the next step's K^T a.
    Also returns the number of steps taken."""
    b = np.ones_like(q)
    a = p / (kernel @ b)
    violation = np.inf
    steps = 0
    for steps in range(1, max_iter + 1):
        b = q / (kernel.T @ a)
        a = p / (kernel @ b)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise FloatingPointError("sinkhorn_scale: overflow/underflow")
        col = (a @ kernel) * b
        violation = float(np.max(np.abs(col - q)))
        if violation < tol:
            break
    return a, b, violation, steps


@pytest.mark.parametrize("shape, spread, max_iter, tol, stops_early", [
    ((6, 8), 1.0, 1000, 1e-9, True),
    ((300, 200), 3.0, 1000, 1e-9, True),
    ((300, 200), 3.0, 7, 1e-9, False),
    ((1000, 1000), 2.0, 1000, 1e-6, True),
    ((150, 90), 8.0, 40, 0.0, False),
])
def test_sinkhorn_matches_the_three_product_loop(shape, spread, max_iter,
                                                 tol, stops_early):
    rng = np.random.default_rng(shape[0] + shape[1])
    kernel = np.exp(spread * rng.standard_normal(shape))
    p = rng.random(shape[0]) + 0.1
    q = rng.random(shape[1]) + 0.1
    p, q = p / p.sum(), q / q.sum()
    a, b, violation, steps = oracle_sinkhorn_scale(kernel, p, q, max_iter,
                                                   tol)
    got = sinkhorn_scale(kernel, p, q, max_iter=max_iter, tol=tol)
    assert got[0].tobytes() == a.tobytes()
    assert got[1].tobytes() == b.tobytes()
    assert got[2] == violation
    assert (violation < tol) is stops_early
    assert (steps < max_iter) is stops_early
    # the same stopping step: one step fewer leaves a different result
    fewer = sinkhorn_scale(kernel, p, q, max_iter=steps - 1, tol=tol)
    assert fewer[0].tobytes() != a.tobytes()


def test_sinkhorn_rejects_degenerate_kernel():
    k = np.zeros((3, 3))
    p = q = np.full(3, 1 / 3)
    with pytest.raises(ValueError, match="positive"):
        sinkhorn_scale(k, p, q)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6))
def test_procrustes_always_orthogonal(seed, d):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d + 5, d))
    y = rng.standard_normal((d + 5, d))
    w = solve_procrustes(x, y)
    assert np.allclose(w @ w.T, np.eye(d), atol=1e-8)
