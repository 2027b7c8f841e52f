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

from . import similarity
from .embeddings import WordVectorSpace
from .lexicon import TranslationLexicon, build_aligned_matrices, make_lexicon
from .linalg import _procrustes, pca_project, sinkhorn_scale, solve_procrustes
from .projection import ProjectionPair
from .similarity import (_unit_divisors, mutual_argmax_pairs, mutual_pairs,
                         unit_rows)

_CONVERGENCE_WINDOW = 3  # unchanged rounds at keep_prob = 1 that end self_learn
# stochastic dictionary induction (Artetxe et al. 2018): the share of
# similarity entries kept in the first round, and its growth factor once the
# objective stalls
_KEEP_PROB_INIT = 0.1
_KEEP_PROB_GROWTH = 2.0
_LAMBDA_CYC = 1.0  # ICP's cycle-consistency weight (Hoshen & Wolf 2018)


@dataclass(frozen=True)
class SelfLearnConfig:
    vocab_cap: int = 4000
    metric: str = "cosine"
    csls_n: int = 10
    max_rounds: int = 50
    seed: int = 0


@dataclass(frozen=True)
class IcpConfig:
    pca_dim: int = 50
    top_n_words: int = 2500
    restarts: int = 20
    max_iters: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be >= 1")


def vecmap_seed(src_space: WordVectorSpace, tgt_space: WordVectorSpace,
                cap: int = 4000) -> TranslationLexicon:
    """Seed dictionary from matching sorted intra-language similarity rows.

    For each of the `cap` most frequent words per side, the vector of
    cosine similarities to all other capped words is computed and sorted
    descending (removing any dependence on vocabulary order); each source
    word is then paired with the target word whose sorted similarity
    profile is nearest. Orthogonal transforms of either space leave the
    output unchanged.

    Profiles are cut to the shorter side's length and compared by cosine.
    They are made in row blocks (`similarity._blocks`): the target's are
    held whole, as unit rows, and each block of source profiles is matched
    against them as it is made, so that beside one cap x cap profile matrix
    the working set is a few blocks.
    """
    src_unit = unit_rows(src_space.matrix[:cap])
    tgt_unit = unit_rows(tgt_space.matrix[:cap])
    width = min(len(src_unit), len(tgt_unit))
    tgt_profiles = np.empty((len(tgt_unit), width))
    for rows in similarity._blocks(len(tgt_unit), 8 * len(tgt_unit),
                                   similarity._BLOCK_BYTES):
        _unit_profiles(tgt_unit[rows] @ tgt_unit.T, tgt_profiles[rows])
    best = np.empty(len(src_unit), dtype=np.intp)
    for rows in similarity._blocks(len(src_unit), 8 * len(src_unit),
                                   similarity._BLOCK_BYTES):
        profiles = src_unit[rows] @ src_unit.T
        profiles = _unit_profiles(profiles, np.empty((len(profiles), width)))
        best[rows] = np.argmax(profiles @ tgt_profiles.T, axis=1)
    return make_lexicon((src_space.words[i], tgt_space.words[int(j)])
                        for i, j in enumerate(best))


def _unit_profiles(scores: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill `out` with the unit rows (`unit_rows`, bit for bit) of each row
    of `scores` in descending order, cut to out's width, and return it.
    `scores` is sorted in place."""
    scores.sort(axis=1)
    out[...] = scores[:, ::-1][:, :out.shape[1]]
    # no row to rescale: a profile starts with its unit row's self-cosine
    # (about 1), or is a row of zeros
    out /= _unit_divisors(out)[0][:, None]
    return out


def self_learn(src_space: WordVectorSpace, tgt_space: WordVectorSpace,
               init_lex: TranslationLexicon,
               cfg: SelfLearnConfig = SelfLearnConfig()) -> ProjectionPair:
    """Stochastic self-learning: solve, project, re-induce, repeat.

    Each round solves the orthogonal map on the current dictionary,
    projects the capped source vocabulary, and re-induces the dictionary by
    mutual nearest neighbours; similarity entries are independently zeroed
    with probability 1 - keep_prob, and keep_prob (`_KEEP_PROB_INIT` at
    first) grows `_KEEP_PROB_GROWTH`-fold, up to 1, whenever the mean
    best-match similarity (before the zeroing) stalls. Converges when the
    dictionary is stable for `_CONVERGENCE_WINDOW` rounds at keep_prob = 1.
    A round is one `mutual_argmax_pairs` sweep: the zeroing, the best
    matches and the argmaxes are taken on the sweep's threads, the random
    numbers drawn in row order by this thread while the sweep's tiles fill.
    """
    if len(init_lex) == 0:
        raise ValueError("self_learn: initial lexicon is empty")
    rng = np.random.default_rng(cfg.seed)
    src_cap = src_space.matrix[:cfg.vocab_cap]
    tgt_cap = tgt_space.matrix[:cfg.vocab_cap]
    lex = init_lex
    keep_prob = _KEEP_PROB_INIT
    prev_objective = -np.inf
    stable_rounds = 0
    rounds = 0
    for rounds in range(1, cfg.max_rounds + 1):
        aligned = build_aligned_matrices(lex, src_space, tgt_space)
        # an early round's dictionary may be rank-deficient; only the final
        # solve, whose map is returned, warns
        w, _ = _procrustes(aligned.x_src, aligned.x_tgt)
        best = np.empty(len(src_cap))
        induced = make_lexicon(
            (src_space.words[i], tgt_space.words[j])
            for i, j in mutual_argmax_pairs(src_cap @ w, tgt_cap, cfg.metric,
                                            cfg.csls_n, best, keep_prob, rng))
        objective = float(np.mean(best))
        if keep_prob >= 1.0 and induced == lex:
            stable_rounds += 1
            if stable_rounds >= _CONVERGENCE_WINDOW:
                lex = induced
                break
        else:
            stable_rounds = 0
        if objective <= prev_objective:
            keep_prob = min(1.0, keep_prob * _KEEP_PROB_GROWTH)
        prev_objective = objective
        lex = induced
    aligned = build_aligned_matrices(lex, src_space, tgt_space)
    w = solve_procrustes(aligned.x_src, aligned.x_tgt)
    return ProjectionPair(
        w_src=w, w_tgt=np.eye(w.shape[0]), orthogonal_src=True,
        method="self-learn",
        metadata={"dict_size": len(lex), "rounds": rounds})


def _nearest_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin_j ||a_i - b_j|| for every row of a, from |b_j|^2 - 2 a_i . b_j
    built in place in the one product's array."""
    dist = a @ b.T
    dist *= -2.0
    dist += np.sum(b * b, axis=1)
    return np.argmin(dist, axis=1)


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
    import scipy.linalg  # local: it would add to clembed's import time
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
    from `restarts` initializations with cycle weight `_LAMBDA_CYC`, and
    the best restart (lowest final loss, ties to the lowest index) supplies
    cyclically consistent assignments. Those pairs seed a mutual-NN
    dictionary in the original spaces, on which the final orthogonal map is
    solved.

    Restart 0 starts from the signed identity between the two PCA bases,
    diag(sign(sum p1**3) * sign(sum p2**3)): PCA fixes each axis up to its
    sign, and the sign of the axis's third moment fixes that (Bro, Acar &
    Kolda 2008), so this start does not change when either space is
    rotated. It is an addition to Hoshen & Wolf 2018, whose starts are all
    random. Restarts 1 and up start from random orthogonal maps drawn from
    `seed`, so with restarts = 1 the seed has no effect.
    """
    src_top = src_space.matrix[:cfg.top_n_words]
    tgt_top = tgt_space.matrix[:cfg.top_n_words]
    p_dim = min(cfg.pca_dim, src_space.dim)
    p1 = pca_project(src_top, p_dim)
    p2 = pca_project(tgt_top, p_dim)
    skew = np.sum(p1 ** 3, axis=0) * np.sum(p2 ** 3, axis=0)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best = None
    for idx, stream in enumerate(streams):
        if idx == 0:
            start = np.diag(np.where(skew < 0, -1.0, 1.0))
        else:
            rng = np.random.default_rng(stream)
            start, _ = np.linalg.qr(rng.standard_normal((p_dim, p_dim)))
        w1, w2, f1, f2, history = icp_restart(
            p1, p2, start, _LAMBDA_CYC, cfg.max_iters)
        if np.isfinite(history[-1]) and (best is None
                                         or history[-1] < best["loss"]):
            best = {"loss": history[-1], "restart": idx, "f1": f1, "f2": f2,
                    "history": history}
    if best is None:
        raise RuntimeError("align_icp: all restarts produced non-finite loss")
    mutual = mutual_pairs(best["f1"], best["f2"])
    if not mutual:
        mutual = list(enumerate(best["f1"].tolist()))
    idx_s, idx_t = np.array(mutual).T
    w0, _ = _procrustes(src_top[idx_s], tgt_top[idx_t])  # a seed: no warning
    idx_s, idx_t = np.array(mutual_argmax_pairs(src_top @ w0, tgt_top)).T
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
                            sinkhorn_tol: float = 1e-9
                            ) -> tuple[np.ndarray, float]:
    """Entropic transport plan (gamma, marginal violation) between two
    embedding clouds.

    Costs are intra-space cosine matrices, so any orthogonal transform of
    either whole space leaves the plan unchanged. Each outer iteration
    rebuilds the pseudo-cost from the current coupling, rescales it to
    max-abs 1, exponentiates, and re-balances the marginals by diagonal
    scaling. gamma = diag(a) K diag(b) with K > 0 and finite positive
    scalings, so no entry is negative.

    The costs C1 = S S' and C2 = T T' of the n x d and m x d unit rows have
    rank at most d, so the pseudo-cost's cross term C1 gamma C2' is taken
    as S ((S' gamma) T) T': O(n m d) per outer iteration where the two
    n x n by n x m products cost O(n^2 m + n m^2). The n x n and m x m
    cost matrices are built once, for the constant term, and let go.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    su = unit_rows(np.asarray(src_vectors, dtype=float))
    tu = unit_rows(np.asarray(tgt_vectors, dtype=float))
    n, m = su.shape[0], tu.shape[0]
    p = np.full(n, 1.0 / n)
    q = np.full(m, 1.0 / m)
    c12 = ((((su @ su.T) ** 2) @ p)[:, None]
           + (((tu @ tu.T) ** 2).T @ q)[None, :])
    gamma = np.outer(p, q)
    violation = 0.0
    for _ in range(outer_iters):
        pseudo = c12 - 2.0 * (su @ ((su.T @ gamma) @ tu) @ tu.T)
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
    return gamma, violation


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
    gamma, violation = gromov_wasserstein_plan(
        src_space.matrix[:ns], tgt_space.matrix[:nt], lam=lam,
        outer_iters=outer_iters, sinkhorn_max_iter=sinkhorn_max_iter,
        sinkhorn_tol=sinkhorn_tol)
    idx_t = np.argmax(gamma, axis=1)
    w = solve_procrustes(src_space.matrix[:ns],
                         tgt_space.matrix[:nt][idx_t])
    return ProjectionPair(
        w_src=w, w_tgt=np.eye(w.shape[0]), orthogonal_src=True, method="gwa",
        metadata={"dict_size": int(ns), "lambda": lam,
                  "outer_iters": outer_iters,
                  "marginal_violation": violation,
                  "distinct_targets": int(np.unique(idx_t).size)})
