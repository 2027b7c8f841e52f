"""Dictionary-supervised projection learning.

Five methods: the closed-form orthogonal solve (proc), its bootstrapped
extension (proc-b), canonical correlation (cca), the EM latent-matching
variant (dlv), and ranking-based descent on the local-scaling similarity
(rcsls).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import similarity
from .embeddings import WordVectorSpace
from .lexicon import (AlignedMatrices, TranslationLexicon,
                      build_aligned_matrices, make_lexicon)
from .linalg import _procrustes, solve_cca, solve_procrustes
from .projection import ProjectionPair
from .similarity import (_top_columns, _top_neighbors, mutual_argmax_pairs,
                         mutual_pairs, unit_rows)

_DLV_PAD = -1e6  # weight for non-candidate edges in the sparsified assignment
_DLV_CANDIDATES = 10  # highest-cosine edges kept per node in dlv's assignment


@dataclass(frozen=True)
class RcslsConfig:
    neighborhood: int = 10
    learning_rate: float = 1.0
    epochs: int = 10

    def __post_init__(self):
        if self.neighborhood < 1:
            raise ValueError("neighborhood must be >= 1")
        if self.learning_rate <= 0 or self.epochs < 1:
            raise ValueError("learning rate and epochs must be positive")


def align_proc(aligned: AlignedMatrices) -> ProjectionPair:
    """Orthogonal map from the closed-form solution on the aligned matrices."""
    w = solve_procrustes(aligned.x_src, aligned.x_tgt)
    residual = float(np.linalg.norm(aligned.x_src @ w - aligned.x_tgt))
    return ProjectionPair(
        w_src=w, w_tgt=np.eye(w.shape[0]), orthogonal_src=True, method="proc",
        metadata={"dict_size": len(aligned.kept_pairs),
                  "coverage": aligned.coverage,
                  "final_objective": residual})


def align_proc_b(src_space: WordVectorSpace, tgt_space: WordVectorSpace,
                 seed_lex: TranslationLexicon, iters: int = 2,
                 search_cap: int = 20000, metric: str = "cosine",
                 csls_n: int = 10) -> ProjectionPair:
    """Bootstrapped orthogonal solve.

    Each iteration but the last learns the source map, then augments the
    dictionary with the mutual nearest neighbours of the projected source
    and the target space, from one sweep under that map
    (`mutual_argmax_pairs`); the last learns the returned source map only.
    The default of two iterations is one augmentation round; iters=1 is the
    plain solve.

    The backward map of the swapped problem is the source map transposed
    wherever that problem's solve is unique, and then each direction's
    argmaxes are the other's in exact arithmetic, for cosine and for CSLS,
    whose two hubness terms swap roles. A rank-deficient dictionary (a seed
    of fewer pairs than dimensions) has no unique solve: for it the
    backward map is solved too, and each row's argmax is taken in a sweep
    each way (`similarity._row_argmax`); either way on the sweep's threads.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    aligned = build_aligned_matrices(seed_lex, src_space, tgt_space)
    if len(aligned.kept_pairs) < 2:
        raise ValueError("seed lexicon needs at least 2 in-vocabulary pairs")
    lex = aligned.kept_pairs
    dict_sizes = []
    empty_augmentation = False
    src_cap = src_space.matrix[:search_cap]
    tgt_cap = tgt_space.matrix[:search_cap]
    for it in range(iters):
        aligned = build_aligned_matrices(lex, src_space, tgt_space)
        dict_sizes.append(len(aligned.kept_pairs))
        if it == iters - 1:
            w_src = solve_procrustes(aligned.x_src, aligned.x_tgt)
            break
        # maps that only the next augmentation reads; only the returned
        # map's solve warns of a rank-deficient dictionary
        w_src, deficient = _procrustes(aligned.x_src, aligned.x_tgt)
        if deficient:
            w_tgt, _ = _procrustes(aligned.x_tgt, aligned.x_src)
            pairs = mutual_pairs(*(
                similarity._row_argmax(queries, pool, metric, csls_n)
                for queries, pool in ((src_cap @ w_src, tgt_cap),
                                      (tgt_cap @ w_tgt, src_cap))))
        else:
            pairs = mutual_argmax_pairs(src_cap @ w_src, tgt_cap, metric,
                                        csls_n)
        induced = make_lexicon((src_space.words[i], tgt_space.words[j])
                               for i, j in pairs)
        empty_augmentation = empty_augmentation or not induced
        lex = make_lexicon(lex + induced)
    residual = float(np.linalg.norm(aligned.x_src @ w_src - aligned.x_tgt))
    return ProjectionPair(
        w_src=w_src, w_tgt=np.eye(w_src.shape[0]), orthogonal_src=True,
        method="proc-b",
        metadata={"dict_size": len(lex), "dict_sizes": dict_sizes,
                  "iterations": iters, "final_objective": residual,
                  "empty_augmentation": empty_augmentation})


def align_cca(aligned: AlignedMatrices, keep_dims: int | str = "all") -> ProjectionPair:
    """Project both spaces into the shared correlated space."""
    a, b, corr = solve_cca(aligned.x_src, aligned.x_tgt, keep_dims=keep_dims)
    d = aligned.x_src.shape[1]
    # Pad truncated projections back to d x d with zero columns so the pair
    # keeps square shapes; zero dimensions do not affect cosine rankings.
    w_src = np.zeros((d, d))
    w_tgt = np.zeros((d, d))
    w_src[:, :a.shape[1]] = a
    w_tgt[:, :b.shape[1]] = b
    return ProjectionPair(
        w_src=w_src, w_tgt=w_tgt, orthogonal_src=False, method="cca",
        metadata={"dict_size": len(aligned.kept_pairs),
                  "shared_dims": int(a.shape[1]),
                  "correlations": [float(c) for c in corr]})


def _candidate_mask(sim: np.ndarray) -> np.ndarray:
    """True at each row's and each column's `_DLV_CANDIDATES` largest
    entries (every entry of a shorter row or column); of entries tied at
    the last place either may be kept. Rows and columns are selected by
    `_top_columns` in blocks (`similarity._blocks`); a block of columns as
    the rows of its contiguous transpose."""
    mask = np.zeros_like(sim, dtype=bool)
    for scores, kept in ((sim, mask), (sim.T, mask.T)):
        for rows in similarity._blocks(len(scores), 8 * scores.shape[1],
                                       similarity._BLOCK_BYTES // 8):
            block = np.ascontiguousarray(scores[rows])
            np.put_along_axis(kept[rows], _top_columns(
                block, _DLV_CANDIDATES)[0], True, axis=1)
    return mask


def _sparsified_assignment(sim: np.ndarray) -> list[tuple[int, int]]:
    """Max-weight one-to-one matching keeping only top candidate edges
    (`_candidate_mask`); `sim` is overwritten.

    Non-candidate edges get a large negative weight so the exact solver
    stays feasible; matches that land on padded edges are discarded. For
    weights in [-1, 1] at least one match is left: an assignment using one
    candidate edge outweighs any that uses padded edges only. The weights
    are written into `sim` negated, and the solver minimises them there: it
    would copy a matrix it is asked to maximise.
    """
    # local: it would add to clembed's import time
    from scipy.optimize import linear_sum_assignment
    padded = _candidate_mask(sim)
    np.logical_not(padded, out=padded)
    costs = np.negative(sim, out=sim)
    np.copyto(costs, -_DLV_PAD, where=padded)
    rows, cols = linear_sum_assignment(costs)
    return [(int(i), int(j)) for i, j in zip(rows, cols) if not padded[i, j]]


def align_dlv(src_space: WordVectorSpace, tgt_space: WordVectorSpace,
              seed_lex: TranslationLexicon, em_iters: int = 3,
              match_cap: int = 2500) -> ProjectionPair:
    """EM over a sparsified bipartite matching, re-solving the orthogonal map.

    E-step: exact max-weight one-to-one assignment over the `match_cap` most
    frequent words, keeping `_DLV_CANDIDATES` highest-cosine edges per node.
    M-step: orthogonal solve on matched pairs united with the seed.
    Embeddings are unit-normalized internally (edge weight = cosine). The
    E-steps share one match_cap x match_cap float64 matrix, which holds the
    cosines and then the assignment's weights.
    """
    src_unit = unit_rows(src_space.matrix[:match_cap])
    tgt_unit = unit_rows(tgt_space.matrix[:match_cap])
    aligned = build_aligned_matrices(seed_lex, src_space, tgt_space)
    seed_src = unit_rows(aligned.x_src)
    seed_tgt = unit_rows(aligned.x_tgt)
    w = solve_procrustes(seed_src, seed_tgt)
    match_sizes = []
    sim = np.empty((len(src_unit), len(tgt_unit)))
    for _ in range(em_iters):
        matches = _sparsified_assignment(
            np.matmul(src_unit @ w, tgt_unit.T, out=sim))
        match_sizes.append(len(matches))
        idx_s, idx_t = np.array(matches).T
        x_s = np.vstack([seed_src, src_unit[idx_s]])
        x_t = np.vstack([seed_tgt, tgt_unit[idx_t]])
        w = solve_procrustes(x_s, x_t)
    return ProjectionPair(
        w_src=w, w_tgt=np.eye(w.shape[0]), orthogonal_src=True, method="dlv",
        metadata={"dict_size": len(aligned.kept_pairs),
                  "em_iters": em_iters, "match_sizes": match_sizes})


def rcsls_neighbor_sets(w: np.ndarray, x_s: np.ndarray, x_t: np.ndarray,
                        src_pool: np.ndarray, tgt_pool: np.ndarray,
                        n: int) -> tuple[np.ndarray, np.ndarray]:
    """Current nearest-neighbor index sets for the two local-scaling terms.

    Row k of the first array holds the n target-pool rows nearest to the
    projected source x_s[k] @ w; row k of the second holds the n source-pool
    rows whose projections are nearest to the paired target x_t[k]. Each
    row is in descending order of similarity; among rows tied at the n-th
    place either may be kept. Both come from the certified float32 screen
    of CSLS hubness (`similarity._top_neighbors`).
    """
    return (_top_neighbors(x_s @ w, tgt_pool, n)[0],
            _top_neighbors(x_t, src_pool @ w, n)[0])


def _neighbor_means(pool: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Row k: the mean of pool[neighbors[k]], summed one neighbour column at
    a time, in the order (and so to the bit) of np.mean(pool[neighbors],
    axis=1), without its (k, n, d) gather."""
    acc = pool[neighbors[:, 0]]
    for j in range(1, neighbors.shape[1]):
        acc += pool[neighbors[:, j]]
    acc /= neighbors.shape[1]
    return acc


def rcsls_gradient(x_s: np.ndarray, x_t: np.ndarray, src_pool: np.ndarray,
                   tgt_pool: np.ndarray,
                   neighbors: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The relaxed local-scaling loss's gradient G for frozen neighbor sets,
    which is also the loss: loss(w) = sum(w * G).

    On unit rows the loss is the mean over pairs k of
    -2 cos(x_s[k] w, x_t[k]) + mean cos(x_s[k] w, tgt_pool[nt[k]])
    + mean cos(x_t[k], src_pool[ns[k]] w). A pair's mean cosine to its
    frozen neighbours is a dot product with their mean row, so with M_t and
    M_s the k x d neighbour means the loss is linear in w, and
    G = (-2 x_s' x_t + x_s' M_t + M_s' x_t) / k: O(k n d) for the means and
    three d x k by k x d products, O(k d^2).
    """
    nt, ns = neighbors
    grad = -2.0 * x_s.T @ x_t
    grad += x_s.T @ _neighbor_means(tgt_pool, nt)
    grad += _neighbor_means(src_pool, ns).T @ x_t
    return grad / len(nt)


def align_rcsls(aligned: AlignedMatrices, full_src_matrix: np.ndarray,
                full_tgt_matrix: np.ndarray, cfg: RcslsConfig = RcslsConfig()
                ) -> ProjectionPair:
    """Full-batch subgradient descent on the relaxed local-scaling loss.

    Neighbor sets are recomputed at the start of every epoch and held fixed
    within it; one `rcsls_gradient` G per set gives both the epoch's loss,
    sum(w * G), and its step. The learning rate halves whenever an epoch
    worsens the loss; ten consecutive worsenings abort with an error. All
    inputs are unit-normalized here so dot products are cosines.
    """
    x_s = unit_rows(aligned.x_src)
    x_t = unit_rows(aligned.x_tgt)
    src_pool = unit_rows(full_src_matrix)
    tgt_pool = unit_rows(full_tgt_matrix)
    n = min(cfg.neighborhood, src_pool.shape[0], tgt_pool.shape[0])
    w = solve_procrustes(x_s, x_t)
    lr = cfg.learning_rate
    neighbors = rcsls_neighbor_sets(w, x_s, x_t, src_pool, tgt_pool, n)
    grad = rcsls_gradient(x_s, x_t, src_pool, tgt_pool, neighbors)
    prev = float(np.sum(w * grad))
    best_w, best_obj = w.copy(), prev
    bad_epochs = 0
    for _ in range(cfg.epochs):
        w = w - lr * grad
        neighbors = rcsls_neighbor_sets(w, x_s, x_t, src_pool, tgt_pool, n)
        grad = rcsls_gradient(x_s, x_t, src_pool, tgt_pool, neighbors)
        obj = float(np.sum(w * grad))
        if obj > prev:
            lr *= 0.5
            bad_epochs += 1
            if bad_epochs >= 10:
                raise RuntimeError("rcsls diverged for 10 consecutive epochs; "
                                   "try a smaller learning rate")
        else:
            bad_epochs = 0
        if obj < best_obj:
            best_w, best_obj = w.copy(), obj
        prev = obj
    return ProjectionPair(
        w_src=best_w, w_tgt=np.eye(best_w.shape[0]), orthogonal_src=False,
        method="rcsls",
        metadata={"dict_size": len(aligned.kept_pairs),
                  "epochs": cfg.epochs, "neighborhood": n,
                  "final_objective": best_obj})
