"""Dictionary-free alignment.

Three seed strategies over the same looped machinery: similarity-histogram
matching plus stochastic self-learning (vecmap-style), iterative closest
point with cyclic consistency (icp), and entropic Gromov-Wasserstein
transport (gwa). The self-learning loop doubles as the refinement stage of
adversarially initialized systems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .embeddings import WordVectorSpace
from .lexicon import (TranslationLexicon, build_aligned_matrices, make_lexicon,
                      AlignedMatrices)
from .linalg import pca_project, sinkhorn_scale, solve_procrustes, svd, \
    zca_whitening_matrix
from .projection import ProjectionPair
from .similarity import (cosine_matrix, mutual_argmax_pairs, mutual_pairs,
                         similarity_sweep, unit_rows)

_CONVERGENCE_WINDOW = 3  # unchanged rounds at keep_prob = 1 that end self_learn


@dataclass(frozen=True)
class SelfLearnConfig:
    vocab_cap: int = 5000
    metric: str = "cosine"
    csls_n: int = 10
    max_rounds: int = 50
    keep_prob_init: float = 0.1
    keep_prob_growth: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.keep_prob_init <= 1.0:
            raise ValueError("keep_prob_init must be in (0, 1]")
        if self.keep_prob_growth <= 1.0:
            raise ValueError("keep_prob_growth must exceed 1")


@dataclass(frozen=True)
class IcpConfig:
    pca_dim: int = 50
    top_n_words: int = 2500
    lambda_cyc: float = 1.0
    restarts: int = 20
    max_iters: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.lambda_cyc < 0:
            raise ValueError("lambda_cyc must be nonnegative")


@dataclass(frozen=True)
class PostprocessOptions:
    whiten: bool = False
    reweight_power: float | None = None
    dewhiten: bool = False
    reduce_dim: int | None = None

    @property
    def any_enabled(self) -> bool:
        return (self.whiten or self.reweight_power is not None
                or self.dewhiten or self.reduce_dim is not None)


@dataclass(frozen=True)
class TransportPlan:
    gamma: np.ndarray
    marginal_violation: float

    def __post_init__(self):
        if np.any(self.gamma < 0):
            raise ValueError("transport plan entries must be nonnegative")


def vecmap_seed(src_space: WordVectorSpace, tgt_space: WordVectorSpace,
                cap: int = 4000) -> TranslationLexicon:
    """Seed dictionary from matching sorted intra-language similarity rows.

    For each of the `cap` most frequent words per side, the vector of
    cosine similarities to all other capped words is computed and sorted
    descending (removing any dependence on vocabulary order); each source
    word is then paired with the target word whose sorted similarity
    profile is nearest. Orthogonal transforms of either space leave the
    output unchanged.
    """
    src_unit = unit_rows(src_space.matrix[:cap])
    tgt_unit = unit_rows(tgt_space.matrix[:cap])
    src_profiles = np.sort(src_unit @ src_unit.T, axis=1)[:, ::-1]
    tgt_profiles = np.sort(tgt_unit @ tgt_unit.T, axis=1)[:, ::-1]
    width = min(src_profiles.shape[1], tgt_profiles.shape[1])
    sim = cosine_matrix(src_profiles[:, :width], tgt_profiles[:, :width])
    best = np.argmax(sim, axis=1)
    return make_lexicon((src_space.words[i], tgt_space.words[int(j)])
                        for i, j in enumerate(best))


def self_learn(src_space: WordVectorSpace, tgt_space: WordVectorSpace,
               init_lex: TranslationLexicon,
               cfg: SelfLearnConfig = SelfLearnConfig()) -> ProjectionPair:
    """Stochastic self-learning: solve, project, re-induce, repeat.

    Each round solves the orthogonal map on the current dictionary,
    projects the capped source vocabulary, and re-induces the dictionary by
    mutual nearest neighbours; similarity entries are independently zeroed
    with probability 1 - keep_prob, and keep_prob grows whenever the mean
    best-match similarity stalls. Converges when the dictionary is stable
    for `_CONVERGENCE_WINDOW` rounds at keep_prob = 1.
    """
    if len(init_lex) == 0:
        raise ValueError("self_learn: initial lexicon is empty")
    rng = np.random.default_rng(cfg.seed)
    src_cap = src_space.matrix[:cfg.vocab_cap]
    tgt_cap = tgt_space.matrix[:cfg.vocab_cap]
    lex = init_lex
    keep_prob = cfg.keep_prob_init
    prev_objective = -np.inf
    stable_rounds = 0
    rounds = 0
    for rounds in range(1, cfg.max_rounds + 1):
        aligned = build_aligned_matrices(lex, src_space, tgt_space)
        w = solve_procrustes(aligned.x_src, aligned.x_tgt)
        best = np.empty(len(src_cap))
        sweep = _dropout(similarity_sweep(src_cap @ w, tgt_cap, cfg.metric,
                                          cfg.csls_n), best, keep_prob, rng)
        induced = make_lexicon((src_space.words[i], tgt_space.words[j])
                               for i, j in mutual_argmax_pairs(sweep, len(tgt_cap)))
        objective = float(np.mean(best))
        if len(induced) == 0:
            if rounds == 1:
                raise ValueError("self_learn: empty dictionary at round 0")
            induced = lex
        unchanged = induced.pairs == lex.pairs
        if keep_prob >= 1.0 and unchanged:
            stable_rounds += 1
            if stable_rounds >= _CONVERGENCE_WINDOW:
                lex = induced
                break
        else:
            stable_rounds = 0
        if objective <= prev_objective:
            keep_prob = min(1.0, keep_prob * cfg.keep_prob_growth)
        prev_objective = objective
        lex = induced
    aligned = build_aligned_matrices(lex, src_space, tgt_space)
    w = solve_procrustes(aligned.x_src, aligned.x_tgt)
    return ProjectionPair(
        w_src=w, w_tgt=np.eye(w.shape[0]), orthogonal_src=True,
        method="self-learn",
        metadata={"dict_size": len(lex), "rounds": rounds,
                  "final_dictionary": [list(p) for p in lex.pairs]})


def _dropout(blocks, best: np.ndarray, keep_prob: float,
             rng: np.random.Generator):
    """Record each row's best score in `best`, then zero each score with
    probability 1 - keep_prob (drawn block by block in row order, the same
    numbers as one draw over the whole matrix)."""
    for rows, scores in blocks:
        best[rows] = scores.max(axis=1)
        if keep_prob < 1.0:
            scores = np.where(rng.random(scores.shape) < keep_prob, scores, 0.0)
        yield rows, scores


def vecmap_postprocess(pair: ProjectionPair, aligned: AlignedMatrices,
                       options: PostprocessOptions = PostprocessOptions()
                       ) -> ProjectionPair:
    """Optional whitening / re-weighting / de-whitening / truncation chain.

    Rebuilds the projection pair from the final aligned matrices, composing
    the enabled transforms into new w_src / w_tgt. With every option off
    the input pair is returned unchanged. Truncation keeps d x d shapes by
    zeroing trailing shared dimensions, which is cosine-equivalent to
    dropping them.
    """
    if not options.any_enabled:
        return pair
    x_s = np.asarray(aligned.x_src, dtype=float)
    x_t = np.asarray(aligned.x_tgt, dtype=float)
    d = x_s.shape[1]
    if options.whiten:
        w1 = zca_whitening_matrix(x_s - x_s.mean(axis=0))
        w2 = zca_whitening_matrix(x_t - x_t.mean(axis=0))
    else:
        w1 = np.eye(d)
        w2 = np.eye(d)
    res = svd((x_s @ w1).T @ (x_t @ w2))
    u, s, v = res.u, res.s, res.vt.T
    w_src = w1 @ u
    w_tgt = w2 @ v
    if options.reweight_power is not None:
        factor = s ** options.reweight_power
        w_src = w_src * factor
        w_tgt = w_tgt * factor
    if options.dewhiten:
        w_src = w_src @ (u.T @ np.linalg.inv(w1) @ u)
        w_tgt = w_tgt @ (v.T @ np.linalg.inv(w2) @ v)
    if options.reduce_dim is not None:
        if not 1 <= options.reduce_dim <= d:
            raise ValueError("reduce_dim out of range")
        w_src[:, options.reduce_dim:] = 0.0
        w_tgt[:, options.reduce_dim:] = 0.0
    return ProjectionPair(
        w_src=w_src, w_tgt=w_tgt, orthogonal_src=False,
        method=pair.method + "+post",
        metadata={**pair.metadata,
                  "postprocess": {"whiten": options.whiten,
                                  "reweight_power": options.reweight_power,
                                  "dewhiten": options.dewhiten,
                                  "reduce_dim": options.reduce_dim}})


def _nearest_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin_j ||a_i - b_j|| for every row of a."""
    sq = np.sum(b * b, axis=1)
    return np.argmin(sq[None, :] - 2.0 * (a @ b.T), axis=1)


def _solve_linear_map(points: np.ndarray, targets: np.ndarray,
                      cyc_self: np.ndarray, other_map: np.ndarray,
                      cyc_other_points: np.ndarray, cyc_other_targets: np.ndarray,
                      lam: float) -> np.ndarray:
    """Exact least-squares update of one map with the other held fixed.

    Minimizes ||points @ W - targets||^2
            + lam * ||cyc_self @ W @ other_map - cyc_self||^2
            + lam * ||cyc_other_points @ W - cyc_other_targets||^2
    via the normal equations P W + Q W R = S, with P positive definite and
    Q, R positive semidefinite. With Q V = P V diag(l), V' P V = I
    (generalized eigenvectors) and R = U diag(m) U', the substitution
    W = V Y U' turns them into Y_ij (1 + l_i m_j) = (V' S U)_ij: O(p^3),
    where the p^2 x p^2 Kronecker lift is O(p^6). lam = 0 gives Q = 0 and
    W = P^-1 S. A P that is not positive definite (points of rank < p)
    raises numpy.linalg.LinAlgError.
    """
    cyc_gram = lam * (cyc_self.T @ cyc_self)
    lhs_p = points.T @ points + lam * (cyc_other_points.T @ cyc_other_points)
    rhs = (points.T @ targets + cyc_gram @ other_map.T
           + lam * (cyc_other_points.T @ cyc_other_targets))
    ell, v = scipy.linalg.eigh(cyc_gram, lhs_p)
    mu, u = np.linalg.eigh(other_map @ other_map.T)
    return v @ ((v.T @ rhs @ u) / (1.0 + np.outer(ell, mu))) @ u.T


def icp_loss(p1: np.ndarray, p2: np.ndarray, w1: np.ndarray, w2: np.ndarray,
             f1: np.ndarray, f2: np.ndarray, lam: float) -> float:
    """Least-squares objective of one restart state (squared distances)."""
    loss = float(np.sum((p1 @ w1 - p2[f1]) ** 2))
    loss += float(np.sum((p2 @ w2 - p1[f2]) ** 2))
    if lam > 0:
        loss += lam * float(np.sum((p1 - p1 @ w1 @ w2) ** 2))
        loss += lam * float(np.sum((p2 - p2 @ w2 @ w1) ** 2))
    return loss


def icp_restart(p1: np.ndarray, p2: np.ndarray, w_init: np.ndarray,
                lambda_cyc: float, max_iters: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[float]]:
    """One ICP run from a given initialization.

    Alternates nearest-neighbor assignment with exact least-squares updates
    of the two maps. Returns (w1, w2, f1, f2, loss_history); the history is
    recorded after each full alternation and is nonincreasing for
    lambda_cyc = 0 (and up to solver tolerance otherwise).
    """
    w1 = np.array(w_init, dtype=float)
    w2 = w1.T.copy()
    f1 = f2 = None
    history: list[float] = []
    for _ in range(max_iters):
        new_f1 = _nearest_rows(p1 @ w1, p2)
        new_f2 = _nearest_rows(p2 @ w2, p1)
        if f1 is not None and np.array_equal(new_f1, f1) and np.array_equal(new_f2, f2):
            break
        f1, f2 = new_f1, new_f2
        w1 = _solve_linear_map(p1, p2[f1], p1, w2, p2 @ w2, p2, lambda_cyc)
        w2 = _solve_linear_map(p2, p1[f2], p2, w1, p1 @ w1, p1, lambda_cyc)
        history.append(icp_loss(p1, p2, w1, w2, f1, f2, lambda_cyc))
    return w1, w2, f1, f2, history


def align_icp(src_space: WordVectorSpace, tgt_space: WordVectorSpace,
              cfg: IcpConfig = IcpConfig()) -> ProjectionPair:
    """Point-cloud alignment by restarted ICP, finished with Procrustes.

    The most frequent words of both sides are reduced with PCA, ICP runs
    from `restarts` random orthogonal initializations, and the best restart
    (lowest final loss, ties to the lowest index) supplies cyclically
    consistent assignments. Those pairs seed a mutual-NN dictionary in the
    original spaces, on which the final orthogonal map is solved.
    """
    src_top = src_space.matrix[:cfg.top_n_words]
    tgt_top = tgt_space.matrix[:cfg.top_n_words]
    p_dim = min(cfg.pca_dim, src_space.dim)
    p1 = pca_project(src_top, p_dim)
    p2 = pca_project(tgt_top, p_dim)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best = None
    for idx, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        q, _ = np.linalg.qr(rng.standard_normal((p_dim, p_dim)))
        w1, w2, f1, f2, history = icp_restart(
            p1, p2, q, cfg.lambda_cyc, cfg.max_iters)
        if not history or not np.isfinite(history[-1]):
            continue
        if best is None or history[-1] < best["loss"]:
            best = {"loss": history[-1], "restart": idx, "f1": f1, "f2": f2,
                    "history": history}
    if best is None:
        raise RuntimeError("align_icp: all restarts produced non-finite loss")
    mutual = mutual_pairs(best["f1"], best["f2"])
    if not mutual:
        mutual = list(enumerate(best["f1"].tolist()))
    idx_s, idx_t = np.array(mutual).T
    w0 = solve_procrustes(src_top[idx_s], tgt_top[idx_t])
    pairs = mutual_argmax_pairs(similarity_sweep(src_top @ w0, tgt_top),
                                len(tgt_top))
    if pairs:
        idx_s, idx_t = np.array(pairs).T
    w = solve_procrustes(src_top[idx_s], tgt_top[idx_t])
    return ProjectionPair(
        w_src=w, w_tgt=np.eye(w.shape[0]), orthogonal_src=True, method="icp",
        metadata={"dict_size": len(idx_s), "best_restart": best["restart"],
                  "best_loss": best["loss"], "restarts": cfg.restarts,
                  "loss_history": best["history"],
                  "assignment_pairs": len(mutual)})


def gromov_wasserstein_plan(src_vectors: np.ndarray, tgt_vectors: np.ndarray,
                            lam: float = 5e-2, outer_iters: int = 30,
                            sinkhorn_max_iter: int = 1000,
                            sinkhorn_tol: float = 1e-9) -> TransportPlan:
    """Entropic transport plan between two embedding clouds.

    Costs are intra-space cosine matrices, so any orthogonal transform of
    either whole space leaves the plan unchanged. Each outer iteration
    rebuilds the pseudo-cost from the current coupling, rescales it to
    max-abs 1, exponentiates, and re-balances the marginals by diagonal
    scaling.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    su = unit_rows(np.asarray(src_vectors, dtype=float))
    tu = unit_rows(np.asarray(tgt_vectors, dtype=float))
    n, m = su.shape[0], tu.shape[0]
    c1 = su @ su.T
    c2 = tu @ tu.T
    p = np.full(n, 1.0 / n)
    q = np.full(m, 1.0 / m)
    c12 = ((c1 ** 2) @ p)[:, None] + ((c2 ** 2).T @ q)[None, :]
    gamma = np.outer(p, q)
    violation = 0.0
    for _ in range(outer_iters):
        pseudo = c12 - 2.0 * (c1 @ gamma @ c2.T)
        scale = np.max(np.abs(pseudo))
        if scale > 0:
            pseudo = pseudo / scale
        kernel = np.exp(-pseudo / lam)
        if np.any(kernel <= 0.0):
            raise FloatingPointError(
                "gwa: kernel underflow to zero; increase lambda")
        a, b, violation = sinkhorn_scale(kernel, p, q,
                                         max_iter=sinkhorn_max_iter,
                                         tol=sinkhorn_tol)
        gamma = (a[:, None] * kernel) * b[None, :]
    return TransportPlan(gamma=gamma, marginal_violation=violation)


def align_gwa(src_space: WordVectorSpace, tgt_space: WordVectorSpace,
              cap: int = 2000, lam: float = 5e-2, outer_iters: int = 30,
              sinkhorn_max_iter: int = 1000,
              sinkhorn_tol: float = 1e-9) -> ProjectionPair:
    """Transport-based alignment finished with the orthogonal solve.

    The plan's row argmax supplies (source, target) index pairs used as
    supervision for Procrustes over the original vectors.
    """
    ns = min(cap, len(src_space))
    nt = min(cap, len(tgt_space))
    plan = gromov_wasserstein_plan(
        src_space.matrix[:ns], tgt_space.matrix[:nt], lam=lam,
        outer_iters=outer_iters, sinkhorn_max_iter=sinkhorn_max_iter,
        sinkhorn_tol=sinkhorn_tol)
    idx_t = np.argmax(plan.gamma, axis=1)
    w = solve_procrustes(src_space.matrix[:ns],
                         tgt_space.matrix[:nt][idx_t])
    return ProjectionPair(
        w_src=w, w_tgt=np.eye(w.shape[0]), orthogonal_src=True, method="gwa",
        metadata={"dict_size": int(ns), "lambda": lam,
                  "outer_iters": outer_iters,
                  "marginal_violation": plan.marginal_violation,
                  "distinct_targets": int(np.unique(idx_t).size)})
