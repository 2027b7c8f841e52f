"""Cosine and CSLS similarity primitives shared by aligners and evaluation.

All functions operate on row-vector matrices (one embedding per row) and
return float64 results with no approximate nearest-neighbor shortcuts.
`similarity_sweep` scores queries against a pool in row blocks
(`row_blocks`); hubness, argmaxes and gold ranks are reductions over those
blocks, never a full matrix. `csls_hubness` alone uses float32, and only to
choose candidates: it screens each block in float32, rescores the chosen
columns in float64 and recomputes in full in float64 any row whose choice
a proven error bound cannot certify (see its docstring), so its values are
the float64 top-n means.
"""

from __future__ import annotations

import numpy as np

# Cells (rows x pool rows) in one block of a row-blocked similarity sweep;
# bounds each block at about 8 * _CELLS bytes whatever the pool size.
_CELLS = 2 ** 24
# Columns per strided group in the top-n selection of `_top_columns`.
_GROUP = 16
# Columns the float32 hubness screen keeps beyond the n it needs, so that
# a near tie at the n-th place seldom sends a row to the float64 fallback.
_SPARE = 6


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


def _largest(values: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of each row's m largest values (every index when a row has no
    more) and the largest value left out (-inf when none is)."""
    b, n = values.shape
    if n <= m:
        return np.broadcast_to(np.arange(n), (b, n)), np.full(b, -np.inf)
    part = np.argpartition(values, n - m - 1, axis=1)
    left_out = np.take_along_axis(values, part[:, n - m - 1:n - m], axis=1)
    return part[:, n - m:], left_out[:, 0]


def _top_columns(scores: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns holding each row's m largest scores (all columns when a row
    has no more), and the largest score of each row left out of them.

    No full-width partition: the first width * groups columns form `groups`
    strided groups {g, g + groups, g + 2 * groups, ...}, whose maxima take
    one vectorised reduction. A row's m largest scores lie in its m groups
    with the largest maxima and the fewer than `width` columns after the
    groups; only those columns are partitioned. Among equal scores either
    may be kept: every score left out is at most the m-th largest kept.
    """
    b, n = scores.shape
    width = _GROUP if n // _GROUP > m else 1
    groups = n // width
    maxima = scores[:, :width * groups].reshape(b, width, groups).max(axis=1)
    best, left_out = _largest(maxima, m)
    cols = (best[:, :, None] + groups * np.arange(width)).reshape(b, -1)
    tail = np.arange(width * groups, n)
    cols = np.concatenate([cols, np.broadcast_to(tail, (b, tail.size))], axis=1)
    kept, dropped = _largest(np.take_along_axis(scores, cols, axis=1), m)
    return np.take_along_axis(cols, kept, axis=1), np.maximum(left_out, dropped)


def _descending_mean(values: np.ndarray, k: int) -> np.ndarray:
    """Mean of each row's k largest values, summed in descending order, so
    that it does not depend on the order the values come in."""
    return (-np.sort(-values, axis=1)[:, :k]).mean(axis=1)


def topk_mean(scores: np.ndarray, k: int) -> np.ndarray:
    """Mean of each row's k largest entries; k is clamped to the row length."""
    k = min(k, scores.shape[1])
    cols, _ = _top_columns(scores, k)
    return _descending_mean(np.take_along_axis(scores, cols, axis=1), k)


def csls_hubness(vectors: np.ndarray, pool: np.ndarray, n_neighbors: int) -> np.ndarray:
    """Per-row mean cosine of each vector to its n nearest neighbors in `pool`.

    This is the local-scaling term r(.) of CSLS. n_neighbors must be
    positive and is clamped to the pool size.

    Every cosine that enters a mean is computed in float64; float32 only
    chooses which ones. Both sides are made unit rows in float64 and cast to
    float32 once, and each row block is scored by one float32 product. Per
    row, `_top_columns` keeps the n + _SPARE best-screened columns and
    bounds every score left out. The kept columns are rescored in float64
    and the n largest of those averaged.

    The band: rounding unit rows u, v to float32 moves u.v by at most
    (2 + 2**-24) * 2**-24, and a float32 dot product of length d errs by at
    most about d * 2**-24 (any summation order); the float64 cosine differs
    from the exact one by about d * 2**-53. So a screened cosine is within
    delta = (d + 4) * 2**-24 of the float64 one for d far below 2**24. The
    row's n-th kept screened score s_n then bounds its float64 n-th largest
    cosine from below by s_n - delta, and a column screened below
    s_n - 2 * delta cannot reach it. A row whose largest left-out score is
    not that far below s_n (near ties, e.g. duplicated pool rows) is scored
    again in full in float64 (`_exact_hubness`), so the result is always
    the float64 top-n mean.
    """
    if n_neighbors < 1:
        raise ValueError(f"CSLS needs at least 1 neighbour, got {n_neighbors}")
    vu, pu = unit_rows(vectors), unit_rows(pool)
    k = min(n_neighbors, len(pu))
    band = 2.0 * (vu.shape[1] + 4) * 2.0 ** -24
    v32, p32 = vu.astype(np.float32), pu.astype(np.float32)
    out = np.empty(len(vu))
    for rows in row_blocks(len(vu), len(pu)):
        screen = v32[rows] @ p32.T
        cols, left_out = _top_columns(screen, k + _SPARE)
        kept = np.take_along_axis(screen, cols, axis=1)
        del screen
        kth = np.partition(kept, cols.shape[1] - k, axis=1)[:, cols.shape[1] - k]
        unsure = np.flatnonzero(~(left_out < kth.astype(float) - band))
        exact = np.stack([np.einsum("bd,bd->b", vu[rows], pu[c])
                          for c in cols.T], axis=1)
        out[rows] = _descending_mean(exact, k)
        if unsure.size:
            unsure += rows.start
            out[unsure] = _exact_hubness(vu[unsure], pu, k)
    return out


def _exact_hubness(unit_vectors: np.ndarray, unit_pool: np.ndarray,
                   k: int) -> np.ndarray:
    """`csls_hubness` of unit rows computed in full in float64."""
    return topk_mean(unit_vectors @ unit_pool.T, k)


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
