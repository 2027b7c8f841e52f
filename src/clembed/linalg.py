"""Dense linear-algebra and iterative-scaling primitives.

Thin deterministic wrappers over numpy/scipy: sign-fixed SVD, the orthogonal
Procrustes solve, ridge-regularized CCA and ZCA whitening, PCA projection,
and Sinkhorn marginal scaling. Results are plain arrays, numbers or tuples
of them, and everything is pure and safe for concurrent use.
"""

from __future__ import annotations

import warnings

import numpy as np

_ZCA_EPS = 1e-12  # ridge added to the covariance eigenvalues before whitening
_CCA_EPS = 1e-8  # ridge of each side's within-space covariance in CCA


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (u, s, vt) with a deterministic sign convention.

    The largest-magnitude entry of each column of U is made positive (the
    corresponding row of Vt is flipped with it), so repeated runs and
    different LAPACK drivers produce identical factors. If LAPACK's gesdd
    fails to converge, which it can on finite input depending on the BLAS
    thread count, the SVD is taken once more with the slower gesvd.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("svd: input contains non-finite entries")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        import scipy.linalg  # local: it would add to clembed's import time
        u, s, vt = scipy.linalg.svd(a, full_matrices=False,
                                    lapack_driver="gesvd")
    for k in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, k])))
        if u[i, k] < 0:
            u[:, k] = -u[:, k]
            vt[k, :] = -vt[k, :]
    return u, s, vt


def solve_procrustes(x_src: np.ndarray, x_tgt: np.ndarray) -> np.ndarray:
    """Orthogonal matrix W minimizing ||x_src @ W - x_tgt||_F.

    Closed form: W = U @ Vt with U, S, Vt the SVD of x_src.T @ x_tgt.
    A rank-deficient cross-covariance still yields a valid minimizer; the
    ambiguity is reported as a warning.
    """
    w, rank_deficient = _procrustes(x_src, x_tgt)
    if rank_deficient:
        warnings.warn("solve_procrustes: rank-deficient cross-covariance; "
                      "solution is not unique", stacklevel=2)
    return w


def _procrustes(x_src: np.ndarray, x_tgt: np.ndarray) -> tuple[np.ndarray, bool]:
    """`solve_procrustes`'s map and whether its cross-covariance is
    rank-deficient, without the warning: for intermediate solves, whose
    map the caller does not return."""
    x_src = np.asarray(x_src, dtype=float)
    x_tgt = np.asarray(x_tgt, dtype=float)
    if x_src.shape != x_tgt.shape:
        raise ValueError("solve_procrustes: shapes differ "
                         f"({x_src.shape} vs {x_tgt.shape})")
    u, s, vt = svd(x_src.T @ x_tgt)
    return u @ vt, bool(s.size and s[-1] <= 1e-12 * max(s[0], 1.0))


def _inv_sqrt_psd(c: np.ndarray, eps: float) -> np.ndarray:
    """Symmetric inverse square root of a PSD matrix, eps-ridged."""
    vals, vecs = np.linalg.eigh(c)
    vals = np.maximum(vals, 0.0) + eps
    return (vecs / np.sqrt(vals)) @ vecs.T


def zca_whitening_matrix(x: np.ndarray) -> np.ndarray:
    """d x d matrix M with cov(x @ M) = I for mean-centered x."""
    x = np.asarray(x, dtype=float)
    c = (x.T @ x) / max(x.shape[0] - 1, 1)
    return _inv_sqrt_psd(c, _ZCA_EPS)


def solve_cca(x_src: np.ndarray, x_tgt: np.ndarray,
              keep_dims: int | str = "all"
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical correlation analysis via per-side whitening plus SVD.

    Returns (A, B, correlations): projections a -> x_src @ A and
    x_tgt @ B land in a shared space where successive coordinate pairs are
    maximally correlated. Singular within-space covariances are handled by
    the `_CCA_EPS` ridge rather than failing.
    """
    x_src = np.asarray(x_src, dtype=float)
    x_tgt = np.asarray(x_tgt, dtype=float)
    k = x_src.shape[0]
    if k < 2:
        raise ValueError("solve_cca: need at least 2 paired samples")
    xs = x_src - x_src.mean(axis=0)
    xt = x_tgt - x_tgt.mean(axis=0)
    denom = k - 1
    ws = _inv_sqrt_psd((xs.T @ xs) / denom, _CCA_EPS)
    wt = _inv_sqrt_psd((xt.T @ xt) / denom, _CCA_EPS)
    u, s, vt = svd(ws @ ((xs.T @ xt) / denom) @ wt)
    dims = s.size if keep_dims == "all" else int(keep_dims)
    if not 1 <= dims <= s.size:
        raise ValueError(f"solve_cca: keep_dims {keep_dims!r} out of range")
    a = ws @ u[:, :dims]
    b = wt @ vt[:dims, :].T
    corr = np.clip(s[:dims], 0.0, 1.0)
    return a, b, corr


def pca_project(x: np.ndarray, out_dim: int) -> np.ndarray:
    """Project mean-centered rows onto the top `out_dim` principal axes."""
    x = np.asarray(x, dtype=float)
    d = x.shape[1]
    if out_dim > d:
        raise ValueError(f"pca_project: out_dim {out_dim} exceeds dimension {d}")
    centered = x - x.mean(axis=0)
    _, _, vt = svd(centered)
    return centered @ vt[:out_dim].T


def sinkhorn_scale(kernel: np.ndarray, p: np.ndarray, q: np.ndarray,
                   max_iter: int = 1000, tol: float = 1e-9
                   ) -> tuple[np.ndarray, np.ndarray, float]:
    """Diagonal scalings (a, b) making diag(a) @ kernel @ diag(b) match p, q.

    Alternates a = p / (K b), b = q / (K^T a) from b = 1 until the worst
    marginal violation drops below tol or max_iter is hit. Returns the final
    (a, b, violation). Raises on numeric blow-up, which typically means the
    caller's entropic regularization is too small.
    """
    kernel = np.asarray(kernel, dtype=float)
    if np.any(kernel <= 0.0):
        raise ValueError("sinkhorn_scale: kernel must be strictly positive")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    b = np.ones_like(q)
    a = p / (kernel @ b)
    kt_a = kernel.T @ a
    violation = np.inf
    for _ in range(max_iter):
        b = q / kt_a
        a = p / (kernel @ b)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise FloatingPointError(
                "sinkhorn_scale: overflow/underflow; increase the entropic "
                "regularization (lambda)")
        # a-update pins the row marginals, so only columns can violate.
        # K^T a serves both this check and the next step's b-update.
        kt_a = kernel.T @ a
        violation = float(np.max(np.abs(kt_a * b - q)))
        if violation < tol:
            break
    return a, b, violation
