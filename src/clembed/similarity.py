"""Cosine and CSLS similarity primitives shared by aligners and evaluation.

All functions operate on row-vector matrices (one embedding per row) and are
exact: no approximate nearest-neighbor shortcuts. `similarity_sweep` scores
queries against a pool in row blocks (`row_blocks`); hubness, argmaxes and
gold ranks are reductions over those blocks, never a full matrix.
"""

from __future__ import annotations

import numpy as np

# Cells (rows x pool rows) in one block of a row-blocked similarity sweep;
# bounds each block at about 8 * _CELLS bytes whatever the pool size.
_CELLS = 2 ** 24


def row_blocks(n_rows: int, pool_rows: int) -> list[slice]:
    """Slices of range(n_rows) in blocks that fit the budget against `pool_rows`."""
    step = max(1, _CELLS // max(1, pool_rows))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


# A norm below this is the root of a subnormal sum of squares: underflow
# has cost it precision.
_TINY_NORM = np.sqrt(np.finfo(float).tiny)


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Return a copy with each nonzero row scaled to unit Euclidean norm.

    Nonzero rows whose norm is below `_TINY_NORM` are first divided by their
    largest magnitude, so that their squares do not underflow; rows of zeros
    are left unchanged.
    """
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    small = norms < _TINY_NORM
    out = matrix / np.where(small, 1.0, norms)
    if small.any():
        tiny = np.flatnonzero(small)
        tiny = tiny[matrix[tiny].any(axis=1)]
        if tiny.size:
            rows = matrix[tiny] / np.abs(matrix[tiny]).max(axis=1, keepdims=True)
            out[tiny] = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return out


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs cosine similarity between rows of `a` and rows of `b`."""
    return unit_rows(a) @ unit_rows(b).T


def topk_mean(scores: np.ndarray, k: int) -> np.ndarray:
    """Mean of each row's k largest entries; k is clamped to the row length."""
    n = scores.shape[1]
    k = min(k, n)
    if k == n:
        return scores.mean(axis=1)
    return np.partition(scores, n - k, axis=1)[:, n - k:].mean(axis=1)


def csls_hubness(vectors: np.ndarray, pool: np.ndarray, n_neighbors: int) -> np.ndarray:
    """Per-row mean cosine of each vector to its n nearest neighbors in `pool`.

    This is the local-scaling term r(.) of CSLS. n_neighbors must be
    positive and is clamped to the pool size.
    """
    if n_neighbors < 1:
        raise ValueError(f"CSLS needs at least 1 neighbour, got {n_neighbors}")
    return np.concatenate([topk_mean(cos, n_neighbors) for _, cos
                           in similarity_sweep(vectors, pool)])


def similarity_sweep(queries: np.ndarray, pool: np.ndarray,
                     metric: str = "cosine", csls_n: int = 10,
                     r_pool: np.ndarray | None = None):
    """Yield (rows, scores of queries[rows] against every pool row) over row
    blocks; metric is one of {cosine, csls}.

    CSLS is 2*cos - r_q[rows, None] - r_p[None, :]: r_q, each query's mean
    cosine to its csls_n nearest pool rows, comes from the block itself;
    r_p (`r_pool`), each pool row's to its nearest queries, from one
    `csls_hubness` pass before the sweep unless given.
    """
    if metric not in ("cosine", "csls"):
        raise ValueError(f"unknown similarity metric: {metric!r}")
    if metric == "csls" and r_pool is None:
        r_pool = csls_hubness(pool, queries, csls_n)
    qu = unit_rows(queries)
    pu = unit_rows(pool)
    for rows in row_blocks(qu.shape[0], pu.shape[0]):
        scores = qu[rows] @ pu.T
        if metric == "csls":
            r_rows = topk_mean(scores, csls_n)
            scores *= 2.0
            scores -= r_rows[:, None]
            scores -= r_pool
        yield rows, scores


def mutual_argmax_pairs(blocks, n_pool: int) -> list[tuple[int, int]]:
    """Index pairs (i, j) that are each other's row/column argmax over a
    sweep's (rows, scores) blocks, in row order, of `n_pool` columns.

    Ties resolve to the lowest index (np.argmax convention), which for
    frequency-ordered vocabularies prefers the more frequent word.
    """
    fwd = []
    col_best = np.full(n_pool, -np.inf)
    col_arg = np.zeros(n_pool, dtype=np.intp)
    for rows, scores in blocks:
        fwd.append(scores.argmax(axis=1))
        top = scores.max(axis=0)
        better = top > col_best          # strict: a lower row keeps a tie
        col_best[better] = top[better]
        col_arg[better] = scores.argmax(axis=0)[better] + rows.start
    return mutual_pairs(np.concatenate(fwd), col_arg)


def mutual_pairs(fwd: np.ndarray, bwd: np.ndarray) -> list[tuple[int, int]]:
    """Pairs (i, fwd[i]) with bwd[fwd[i]] == i, in row order: the mutual
    nearest neighbours, given each row's best column and each column's best row."""
    fwd = np.asarray(fwd)
    rows = np.flatnonzero(np.asarray(bwd)[fwd] == np.arange(fwd.size))
    return list(zip(rows.tolist(), fwd[rows].tolist()))
