"""Cosine and CSLS similarity primitives shared by aligners and evaluation.

All functions operate on row-vector matrices (one embedding per row) and are
exact: no approximate nearest-neighbor shortcuts. Larger sweeps are processed
in row blocks to bound memory.
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


def topk_mean(scores: np.ndarray, k: int, axis: int = 1) -> np.ndarray:
    """Mean of the k largest entries along `axis`; k is clamped to the size."""
    n = scores.shape[axis]
    k = min(k, n)
    if k == n:
        return scores.mean(axis=axis)
    part = np.partition(scores, n - k, axis=axis)
    sl = [slice(None)] * scores.ndim
    sl[axis] = slice(n - k, n)
    return part[tuple(sl)].mean(axis=axis)


def csls_hubness(vectors: np.ndarray, pool: np.ndarray, n_neighbors: int) -> np.ndarray:
    """Per-row mean cosine of each vector to its n nearest neighbors in `pool`.

    This is the local-scaling term r(.) of CSLS. n_neighbors is clamped to
    the pool size.
    """
    va = unit_rows(vectors)
    pb = unit_rows(pool)
    out = np.empty(va.shape[0])
    for rows in row_blocks(va.shape[0], pb.shape[0]):
        out[rows] = topk_mean(va[rows] @ pb.T, n_neighbors, axis=1)
    return out


def csls_matrix(src: np.ndarray, tgt: np.ndarray, n_neighbors: int) -> np.ndarray:
    """All-pairs CSLS matrix: 2*cos - r_src[:, None] - r_tgt[None, :].

    r_src is each source row's mean cosine to its n nearest targets; r_tgt
    each target row's mean cosine to its n nearest sources.
    """
    cos = cosine_matrix(src, tgt)
    r_src = topk_mean(cos, n_neighbors, axis=1)
    r_tgt = topk_mean(cos, n_neighbors, axis=0)
    return 2.0 * cos - r_src[:, None] - r_tgt[None, :]


def similarity_matrix(src: np.ndarray, tgt: np.ndarray, metric: str = "cosine",
                      csls_n: int = 10) -> np.ndarray:
    """Dispatch on metric name; metric is one of {cosine, csls}."""
    if metric == "cosine":
        return cosine_matrix(src, tgt)
    if metric == "csls":
        return csls_matrix(src, tgt, csls_n)
    raise ValueError(f"unknown similarity metric: {metric!r}")


def mutual_argmax_pairs(sim: np.ndarray) -> list[tuple[int, int]]:
    """Index pairs (i, j) that are each other's row/column argmax.

    Ties resolve to the lowest index (np.argmax convention), which for
    frequency-ordered vocabularies prefers the more frequent word.
    """
    return mutual_pairs(np.argmax(sim, axis=1), np.argmax(sim, axis=0))


def mutual_pairs(fwd: np.ndarray, bwd: np.ndarray) -> list[tuple[int, int]]:
    """Pairs (i, fwd[i]) with bwd[fwd[i]] == i, in row order: the mutual
    nearest neighbours, given each row's best column and each column's best row."""
    fwd = np.asarray(fwd)
    rows = np.flatnonzero(np.asarray(bwd)[fwd] == np.arange(fwd.size))
    return list(zip(rows.tolist(), fwd[rows].tolist()))
