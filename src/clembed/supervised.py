"""Dictionary-supervised projection learning.

Five methods: the closed-form orthogonal solve (proc), its bootstrapped
extension (proc-b), canonical correlation (cca), the EM latent-matching
variant (dlv), and ranking-based descent on the local-scaling similarity
(rcsls).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .embeddings import WordVectorSpace
from .lexicon import (AlignedMatrices, TranslationLexicon,
                      build_aligned_matrices, make_lexicon)
from .linalg import solve_cca, solve_procrustes
from .projection import ProjectionPair
from .similarity import mutual_pairs, row_blocks, similarity_sweep, unit_rows

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

    Each iteration learns both directional maps, then (except on the last
    iteration) augments the dictionary with the mutual nearest neighbours
    found between the two directionally projected spaces. The default of
    two iterations is one augmentation round; iters=1 is the plain solve.
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
        w_src = solve_procrustes(aligned.x_src, aligned.x_tgt)
        w_tgt = solve_procrustes(aligned.x_tgt, aligned.x_src)
        if it == iters - 1:
            break
        fwd = np.concatenate([s.argmax(axis=1) for _, s in similarity_sweep(
            src_cap @ w_src, tgt_cap, metric, csls_n)])
        bwd = np.concatenate([s.argmax(axis=1) for _, s in similarity_sweep(
            tgt_cap @ w_tgt, src_cap, metric, csls_n)])
        induced = make_lexicon((src_space.words[i], tgt_space.words[j])
                               for i, j in mutual_pairs(fwd, bwd))
        if len(induced) == 0:
            empty_augmentation = True
        lex = lex.union(induced)
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


def _sparsified_assignment(sim: np.ndarray) -> list[tuple[int, int]]:
    """Max-weight one-to-one matching keeping only top candidate edges.

    Non-candidate edges get a large negative weight so the exact solver
    stays feasible; matches that land on padded edges are discarded.
    """
    n, m = sim.shape
    k = min(_DLV_CANDIDATES, m)
    mask = np.zeros_like(sim, dtype=bool)
    rows_top = np.argpartition(sim, m - k, axis=1)[:, m - k:]
    np.put_along_axis(mask, rows_top, True, axis=1)
    kc = min(_DLV_CANDIDATES, n)
    cols_top = np.argpartition(sim, n - kc, axis=0)[n - kc:, :]
    np.put_along_axis(mask, cols_top, True, axis=0)
    weights = np.where(mask, sim, _DLV_PAD)
    rows, cols = linear_sum_assignment(weights, maximize=True)
    return [(int(i), int(j)) for i, j in zip(rows, cols) if mask[i, j]]


def align_dlv(src_space: WordVectorSpace, tgt_space: WordVectorSpace,
              seed_lex: TranslationLexicon, em_iters: int = 3,
              match_cap: int = 2500) -> ProjectionPair:
    """EM over a sparsified bipartite matching, re-solving the orthogonal map.

    E-step: exact max-weight one-to-one assignment over the `match_cap` most
    frequent words, keeping `_DLV_CANDIDATES` highest-cosine edges per node.
    M-step: orthogonal solve on matched pairs united with the seed.
    Embeddings are unit-normalized internally (edge weight = cosine).
    """
    src_unit = unit_rows(src_space.matrix[:match_cap])
    tgt_unit = unit_rows(tgt_space.matrix[:match_cap])
    aligned = build_aligned_matrices(seed_lex, src_space, tgt_space)
    seed_src = unit_rows(aligned.x_src)
    seed_tgt = unit_rows(aligned.x_tgt)
    w = solve_procrustes(seed_src, seed_tgt)
    fallbacks = 0
    match_sizes = []
    for _ in range(em_iters):
        sim = (src_unit @ w) @ tgt_unit.T
        matches = _sparsified_assignment(sim)
        if not matches:
            matches = mutual_pairs(sim.argmax(axis=1), sim.argmax(axis=0))
            fallbacks += 1
        match_sizes.append(len(matches))
        idx_s, idx_t = np.array(matches).T
        x_s = np.vstack([seed_src, src_unit[idx_s]])
        x_t = np.vstack([seed_tgt, tgt_unit[idx_t]])
        w = solve_procrustes(x_s, x_t)
    return ProjectionPair(
        w_src=w, w_tgt=np.eye(w.shape[0]), orthogonal_src=True, method="dlv",
        metadata={"dict_size": len(aligned.kept_pairs),
                  "em_iters": em_iters, "match_sizes": match_sizes,
                  "assignment_fallbacks": fallbacks})


def rcsls_neighbor_sets(w: np.ndarray, x_s: np.ndarray, x_t: np.ndarray,
                        src_pool: np.ndarray, tgt_pool: np.ndarray,
                        n: int) -> tuple[np.ndarray, np.ndarray]:
    """Current nearest-neighbor index sets for the two local-scaling terms.

    Row k of the first array holds the n target-pool rows nearest to the
    projected source x_s[k] @ w; row k of the second holds the n source-pool
    rows whose projections are nearest to the paired target x_t[k].
    """
    sets = []
    for queries, pool in ((x_s @ w, tgt_pool), (x_t, src_pool @ w)):
        top = np.empty((queries.shape[0], n), dtype=np.intp)
        for rows in row_blocks(queries.shape[0], pool.shape[0]):
            sim = queries[rows] @ pool.T
            top[rows] = np.argpartition(sim, sim.shape[1] - n, axis=1)[:, -n:]
        sets.append(top)
    return tuple(sets)


def rcsls_objective(w: np.ndarray, x_s: np.ndarray, x_t: np.ndarray,
                    src_pool: np.ndarray, tgt_pool: np.ndarray,
                    neighbors: tuple[np.ndarray, np.ndarray]) -> float:
    """Loss value with the neighbor sets held fixed (dot = cosine on unit rows)."""
    nt, ns = neighbors
    proj = x_s @ w
    fit = -2.0 * np.sum(proj * x_t, axis=1)
    hub_t = np.mean(np.einsum("kd,knd->kn", proj, tgt_pool[nt]), axis=1)
    hub_s = np.mean(np.einsum("kd,knd->kn", x_t, src_pool[ns] @ w), axis=1)
    return float(np.mean(fit + hub_t + hub_s))


def rcsls_gradient(w: np.ndarray, x_s: np.ndarray, x_t: np.ndarray,
                   src_pool: np.ndarray, tgt_pool: np.ndarray,
                   neighbors: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Exact gradient of `rcsls_objective` for the same frozen neighbor sets."""
    nt, ns = neighbors
    k, n = nt.shape
    grad = -2.0 * x_s.T @ x_t
    grad += x_s.T @ np.mean(tgt_pool[nt], axis=1)
    acc = np.zeros_like(src_pool)
    np.add.at(acc, ns.ravel(),
              np.repeat(x_t / n, n, axis=0))
    grad += src_pool.T @ acc
    return grad / k


def align_rcsls(aligned: AlignedMatrices, full_src_matrix: np.ndarray,
                full_tgt_matrix: np.ndarray, cfg: RcslsConfig = RcslsConfig(),
                w_init: np.ndarray | None = None) -> ProjectionPair:
    """Full-batch subgradient descent on the relaxed local-scaling loss.

    Neighbor sets are recomputed at the start of every epoch and held fixed
    within it. The learning rate halves whenever an epoch worsens the loss;
    ten consecutive worsenings abort with an error. All inputs are
    unit-normalized here so dot products are cosines.
    """
    x_s = unit_rows(aligned.x_src)
    x_t = unit_rows(aligned.x_tgt)
    src_pool = unit_rows(full_src_matrix)
    tgt_pool = unit_rows(full_tgt_matrix)
    n = min(cfg.neighborhood, src_pool.shape[0], tgt_pool.shape[0])
    w = solve_procrustes(x_s, x_t) if w_init is None else np.array(w_init, dtype=float)
    lr = cfg.learning_rate
    neighbors = rcsls_neighbor_sets(w, x_s, x_t, src_pool, tgt_pool, n)
    prev = rcsls_objective(w, x_s, x_t, src_pool, tgt_pool, neighbors)
    best_w, best_obj = w.copy(), prev
    bad_epochs = 0
    for _ in range(cfg.epochs):
        grad = rcsls_gradient(w, x_s, x_t, src_pool, tgt_pool, neighbors)
        w = w - lr * grad
        neighbors = rcsls_neighbor_sets(w, x_s, x_t, src_pool, tgt_pool, n)
        obj = rcsls_objective(w, x_s, x_t, src_pool, tgt_pool, neighbors)
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
