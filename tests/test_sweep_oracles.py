"""The row-blocked similarity sweep against the dense code it replaced.

The oracles below are the earlier implementations: `oracle_csls_matrix` and
`oracle_similarity_matrix` build the full queries x pool matrix (the CSLS
hubness terms from its rows and its columns), `oracle_mutual_argmax_pairs`
takes both argmaxes of that matrix, `oracle_block_mutual_pairs` takes them
over a sweep's blocks in this thread, as `mutual_argmax_pairs` did before
the sweep's threads took them (`oracle_induced` drops a sweep's blocks out
and reduces them so), `oracle_swept_gold_ranks` and `oracle_row_argmax`
are the block loops in which `bli_evaluate` counted gold ranks
(`conftest.oracle_gold_ranks`) and proc-b took a rank-deficient round's
argmaxes, and `oracle_align_proc_b`, `oracle_self_learn` and
`oracle_rcsls_neighbor_sets` are the aligner steps that used them. The
library scores queries in row blocks (`similarity._sweep`,
`similarity._blocks`) and reduces them on its threads, a stripe of rows at
a time; the tests read its scores through a reducer of their own that
copies each stripe (`conftest.swept`, `copied_sweeps`). Indices, gold
ranks, pairs and projection pairs must be equal, not
close, at three cell budgets (`conftest.cell_budget`), so that sweeps split
into many blocks. The oracles plan their row blocks by the formula in
`conftest.oracle_row_blocks`, not by the library's planner.

On generic vectors a one-row block (a matrix-vector product) and the
transposed product that gives the pool-side hubness may differ from the
dense matrix in the last bits, so there only scores are compared to a
tolerance. The hypothesis inputs are built so that every score is computed
exactly (zero, signed-axis and +-1 vectors, duplicated rows; see
`conftest.exact_row`): then equal scores are equal in both codes,
and the tie rule is what gets compared.

`oracle_similarity_sweep` is the sweep as it was before it filled each
block in tiles of pool rows (`similarity._TILE`) on threads: the unit rows
of both sides made whole, and one product per row block. A tile's product
may change a score's last bits, so on generic rows the library's scores
are compared bit for bit across thread counts and to the oracle within a
tolerance. On exact rows, a pool row copied across a tile boundary among
them, they are the oracle's bit for bit, and so are the pairs, the best
scores, the dropped-out blocks, the gold ranks and the row argmaxes that
the threads reduce; and on the
fixtures every consumer (BLI, proc-b, self-learning, ICP, mutual pairs)
gets from the library what it gets from the oracle, at tile widths 1, 3
and the default, on 1-3 threads. proc-b takes its pairs from one forward
sweep where its dictionary has full rank, and `oracle_align_proc_b` from a
sweep each way: the pairs are the forward scores' mutual argmaxes, and the
oracle's wherever no deciding score is within 1e-9 of the next.

`oracle_csls_hubness` and `oracle_topk_mean` are the float64 hubness and
the full-width partition it used. The library screens hubness in float32
and rescores in float64 (`similarity.csls_hubness`), and selects top-n
columns through strided group maxima (`similarity._top`, tested through
`conftest.topk_mean`): on generic
inputs the means may differ from the oracles only in the last bits of a
float64 sum, and on exact inputs not at all. `oracle_top_neighbors` is the
certified kernel itself as it was when it took float64 unit rows of both
sides and cast each side to float32 whole, and rescored every column it
kept, run in this thread over the oracles' row blocks; the library
rescores only the kept columns its band cannot rule out, holds one float32
copy of the pool, runs its own blocks on threads and makes each block's
unit rows in scratch, and its columns and means must equal the oracle's
bit for bit, on exact and on generic rows, at every cell budget and
thread count.

`oracle_rcsls_neighbor_sets`, the float64 product and full-width partition
that RCSLS's neighbourhoods used, and `oracle_candidate_mask`, dlv's two
full-width partitions, now go through the certified float32 screen of
hubness (`similarity._top_neighbors`) and through `similarity._top_columns`.
Of entries tied at the n-th place either code may keep either, so sets are
compared where no two entries tie there, and the float64 scores kept as
multisets everywhere. The screen's row blocks, like the sweep's tiles, run
on one thread per core (`similarity._threads`, which runs even one on a
worker thread); hubness is bit-equal at any thread count, no thread
outlives a call and no public function runs on a worker thread.

The aligner loops reduce through thin factors where the oracles build the
wide intermediates: `conftest.oracle_rcsls_objective` scores every frozen
neighbour row through w and `oracle_rcsls_gradient` scatters k n rows into
the source pool, where the library takes k neighbour means and reads the
loss off the gradient G as sum(w * G) (the loss is linear in w for frozen
sets); `oracle_align_rcsls` is the descent loop that computed the loss and
the gradient of each neighbourhood apart. `oracle_gw_plan` forms
C1 gamma C2' from the two cost matrices, where the library goes through
their rank-d factors; `oracle_nearest_rows` and `oracle_dropout` build new
arrays that the library fills in place. RCSLS gradients differ in the last
bits on generic inputs and not at all where every sum is exact (exact rows,
a signed-permutation w, n a power of two), and the loss, summed in another
order, agrees to 1e-12; plans are close with equal row argmaxes; nearest
rows and dropped-out blocks are equal.
"""

import contextlib
import functools
import importlib
import inspect
import pkgutil
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import clembed
from clembed import similarity, supervised, unsupervised
from clembed.embeddings import WordVectorSpace
from clembed.evaluation import bli_evaluate, shuffling_test
from clembed.lexicon import build_aligned_matrices, make_lexicon
from clembed.linalg import sinkhorn_scale, solve_procrustes
from clembed.projection import ProjectionPair, identity_pair
from clembed.similarity import (cosine_matrix, csls_hubness,
                                mutual_argmax_pairs, mutual_pairs, unit_rows)
from clembed.supervised import (RcslsConfig, align_dlv, align_proc,
                                align_proc_b, align_rcsls, rcsls_gradient,
                                rcsls_neighbor_sets)
from clembed.unsupervised import (IcpConfig, SelfLearnConfig,
                                  _nearest_rows, align_icp,
                                  gromov_wasserstein_plan, self_learn,
                                  vecmap_seed)
from conftest import (RotatedPair, capped_mutual_pairs, cell_budget,
                      exact_rows, oracle_gold_ranks, oracle_rcsls_objective,
                      oracle_row_blocks, swept, topk_mean)

# one row per block, a few rows per block against the fixtures' 500-row
# pools, and the library's own budget
CELL_BUDGETS = (1, 3000, 2 ** 24)


def oracle_topk_mean(scores, k, axis=1):
    n = scores.shape[axis]
    k = min(k, n)
    if k == n:
        return scores.mean(axis=axis)
    part = np.partition(scores, n - k, axis=axis)
    sl = [slice(None)] * scores.ndim
    sl[axis] = slice(n - k, n)
    return part[tuple(sl)].mean(axis=axis)


def oracle_csls_hubness(vectors, pool, n_neighbors):
    vu, pu = unit_rows(vectors), unit_rows(pool)
    return np.concatenate([oracle_topk_mean(vu[rows] @ pu.T, n_neighbors)
                           for rows in oracle_row_blocks(len(vu), len(pu))])


# the float64 top-n of the oracles, as the library's fallback takes it; held
# here so that `count_fallback_rows` counts the library's rows only
oracle_top = similarity._top


def oracle_top_neighbors(queries, pool, n):
    """The top-n kernel as it was when it took float64 rows of both sides
    (unit rows for hubness) and made a float32 copy of each, in this
    thread, over the oracles' row blocks, each screen a new array."""
    k = min(n, len(pool))
    d = queries.shape[1]
    q32, p32 = queries.astype(np.float32), pool.astype(np.float32)
    q_norms, p_max = similarity._norms(queries), \
        similarity._norms(pool).max(initial=0.0)
    band = 2.0 * ((d + 4) * 2.0 ** -24 * q_norms * p_max
                  + d * 2.0 ** -149 * (q_norms + p_max + 1.0))
    cols = np.empty((len(queries), k), dtype=np.intp)
    means = np.empty(len(queries))
    unsure = np.empty(len(queries), dtype=bool)
    for rows in oracle_row_blocks(len(queries), len(pool)):
        screen = q32[rows] @ p32.T
        kept_cols, left_out = similarity._top_columns(
            screen, k + similarity._SPARE)
        kept = np.take_along_axis(screen, kept_cols, axis=1)
        m = kept.shape[1]
        kth = np.partition(kept, m - k, axis=1)[:, m - k]
        unsure[rows] = ~(left_out < kth.astype(float) - band[rows])
        exact = np.stack([np.einsum("bd,bd->b", queries[rows], pool[c])
                          for c in kept_cols.T], axis=1)
        cols[rows], means[rows] = similarity._descending(kept_cols, exact, k)
    redo = np.flatnonzero(unsure)
    for rows in oracle_row_blocks(len(redo), len(pool)):
        cols[redo[rows]], means[redo[rows]] = oracle_top(
            queries[redo[rows]] @ pool.T, k)
    return cols, means


def oracle_csls_matrix(src, tgt, n_neighbors):
    cos = cosine_matrix(src, tgt)
    r_src = oracle_topk_mean(cos, n_neighbors, axis=1)
    r_tgt = oracle_topk_mean(cos, n_neighbors, axis=0)
    return 2.0 * cos - r_src[:, None] - r_tgt[None, :]


def oracle_similarity_matrix(src, tgt, metric="cosine", csls_n=10):
    if metric == "cosine":
        return cosine_matrix(src, tgt)
    if metric == "csls":
        return oracle_csls_matrix(src, tgt, csls_n)
    raise ValueError(f"unknown similarity metric: {metric!r}")


def oracle_similarity_sweep(queries, pool, metric="cosine", csls_n=10,
                            r_pool=None):
    """The sweep as it was before tiles: the unit rows of both sides made
    whole, and each row block scored by one product with all of the pool."""
    if metric not in ("cosine", "csls"):
        raise ValueError(f"unknown similarity metric: {metric!r}")
    if metric == "csls" and r_pool is None and len(queries):
        r_pool = csls_hubness(pool, queries, csls_n)
    qu, pu = unit_rows(queries), unit_rows(pool)
    for rows in oracle_row_blocks(len(qu), len(pu), similarity._MIN_ROWS):
        scores = qu[rows] @ pu.T
        if metric == "csls":
            r_rows = topk_mean(scores, csls_n)
            scores *= 2.0
            scores -= r_rows[:, None]
            scores -= r_pool
        yield rows, scores


def oracle_mutual_argmax_pairs(sim):
    return mutual_pairs(np.argmax(sim, axis=1), np.argmax(sim, axis=0))


def oracle_block_mutual_pairs(blocks, n_pool):
    """`mutual_argmax_pairs` as it was before the sweep's threads took its
    reductions: both argmaxes taken in this thread over a sweep's (rows,
    scores) blocks, a column's kept across blocks with a strict >."""
    fwd = []
    col_best = np.full(n_pool, -np.inf)
    col_arg = np.zeros(n_pool, dtype=np.intp)
    for rows, scores in blocks:
        fwd.append(scores.argmax(axis=1))
        top = scores.max(axis=0)
        better = top > col_best
        col_best[better] = top[better]
        col_arg[better] = scores.argmax(axis=0)[better] + rows.start
    return mutual_pairs(np.concatenate(fwd), col_arg)


def oracle_induced(queries, pool, metric="cosine", csls_n=10, best=None,
                   keep_prob=1.0, rng=None, sweep=oracle_similarity_sweep):
    """`mutual_argmax_pairs` by the oracles: the blocks of `sweep`, dropped
    out by `oracle_dropout` and reduced by `oracle_block_mutual_pairs`."""
    if best is None:
        best = np.empty(len(queries))
    return oracle_block_mutual_pairs(oracle_dropout(
        sweep(queries, pool, metric, csls_n), best, keep_prob, rng), len(pool))


def oracle_swept_gold_ranks(queries, pool, golds, metric="cosine",
                            csls_n=10, r_pool=None,
                            sweep=oracle_similarity_sweep):
    """`bli_evaluate`'s gold ranks as it counted them before the sweep's
    threads did: in this thread, over `sweep`'s blocks, each row's first
    gold ranked on the block's rows (`oracle_gold_ranks`), and a row with
    further golds gathered once for each of them. A row with no gold, which
    `bli_evaluate` never has, gets no rank."""
    ranks = []
    for rows, scores in sweep(queries, pool, metric, csls_n, r_pool):
        block = golds[rows]
        has = [i for i, cols in enumerate(block) if cols]
        first = iter(oracle_gold_ranks(scores[has], [
            block[i][0] for i in has]).tolist())
        again = [i for i, cols in enumerate(block) for _ in cols[1:]]
        further = iter(oracle_gold_ranks(scores[again], [
            g for cols in block for g in cols[1:]]).tolist())
        ranks += [[next(first)] + [next(further) for _ in cols[1:]]
                  if cols else [] for cols in block]
    return ranks


def oracle_row_argmax(queries, pool, metric="cosine", csls_n=10,
                      sweep=oracle_similarity_sweep):
    """proc-b's row argmaxes of a rank-deficient round as it took them
    before the sweep's threads did: block by block, in this thread."""
    return np.concatenate([np.empty(0, dtype=np.intp)] + [
        scores.argmax(axis=1) for _, scores in sweep(queries, pool, metric,
                                                     csls_n)])


def oracle_align_proc_b(src_space, tgt_space, seed_lex, iters=2,
                        search_cap=20000, metric="cosine", csls_n=10):
    aligned = build_aligned_matrices(seed_lex, src_space, tgt_space)
    lex = aligned.kept_pairs
    dict_sizes = []
    empty_augmentation = False
    ns = min(search_cap, len(src_space))
    nt = min(search_cap, len(tgt_space))
    for it in range(iters):
        aligned = build_aligned_matrices(lex, src_space, tgt_space)
        dict_sizes.append(len(aligned.kept_pairs))
        w_src = solve_procrustes(aligned.x_src, aligned.x_tgt)
        w_tgt = solve_procrustes(aligned.x_tgt, aligned.x_src)
        if it == iters - 1:
            break
        fwd = np.argmax(oracle_similarity_matrix(
            src_space.matrix[:ns] @ w_src, tgt_space.matrix[:nt], metric,
            csls_n), axis=1)
        bwd = np.argmax(oracle_similarity_matrix(
            tgt_space.matrix[:nt] @ w_tgt, src_space.matrix[:ns], metric,
            csls_n), axis=1)
        induced = make_lexicon((src_space.words[i], tgt_space.words[j])
                               for i, j in mutual_pairs(fwd, bwd))
        if len(induced) == 0:
            empty_augmentation = True
        lex = make_lexicon(lex + induced)
    residual = float(np.linalg.norm(aligned.x_src @ w_src - aligned.x_tgt))
    return ProjectionPair(
        w_src=w_src, w_tgt=np.eye(w_src.shape[0]), orthogonal_src=True,
        method="proc-b",
        metadata={"dict_size": len(lex), "dict_sizes": dict_sizes,
                  "iterations": iters, "final_objective": residual,
                  "empty_augmentation": empty_augmentation})


def oracle_self_learn(src_space, tgt_space, init_lex, cfg):
    rng = np.random.default_rng(cfg.seed)
    ns = min(cfg.vocab_cap, len(src_space))
    nt = min(cfg.vocab_cap, len(tgt_space))
    src_cap = src_space.matrix[:ns]
    tgt_cap = tgt_space.matrix[:nt]
    lex = init_lex
    keep_prob = 0.1
    prev_objective = -np.inf
    stable_rounds = 0
    for rounds in range(1, cfg.max_rounds + 1):
        aligned = build_aligned_matrices(lex, src_space, tgt_space)
        w = solve_procrustes(aligned.x_src, aligned.x_tgt)
        sim = oracle_similarity_matrix(src_cap @ w, tgt_cap, cfg.metric,
                                       cfg.csls_n)
        objective = float(np.mean(np.max(sim, axis=1)))
        if keep_prob < 1.0:
            sim = np.where(rng.random(sim.shape) < keep_prob, sim, 0.0)
        pairs = [(src_space.words[i], tgt_space.words[j])
                 for i, j in oracle_mutual_argmax_pairs(sim)]
        induced = make_lexicon(pairs)
        if len(induced) == 0:
            induced = lex
        unchanged = induced == lex
        if keep_prob >= 1.0 and unchanged:
            stable_rounds += 1
            if stable_rounds >= 3:
                lex = induced
                break
        else:
            stable_rounds = 0
        if objective <= prev_objective:
            keep_prob = min(1.0, keep_prob * 2.0)
        prev_objective = objective
        lex = induced
    aligned = build_aligned_matrices(lex, src_space, tgt_space)
    w = solve_procrustes(aligned.x_src, aligned.x_tgt)
    return ProjectionPair(
        w_src=w, w_tgt=np.eye(w.shape[0]), orthogonal_src=True,
        method="self-learn",
        metadata={"dict_size": len(lex), "rounds": rounds})


def oracle_rcsls_neighbor_sets(w, x_s, x_t, src_pool, tgt_pool, n):
    proj = x_s @ w
    sim_t = proj @ tgt_pool.T
    nt = np.argpartition(sim_t, sim_t.shape[1] - n, axis=1)[:, -n:]
    sim_s = x_t @ (src_pool @ w).T
    ns = np.argpartition(sim_s, sim_s.shape[1] - n, axis=1)[:, -n:]
    return nt, ns


def assert_same_neighbor_sets(got, w, x_s, x_t, src_pool, tgt_pool, n):
    """`got` against `oracle_rcsls_neighbor_sets`, on each side: the
    neighbours' float64 scores are equal as multisets, and the neighbours
    equal as sets wherever no two pool rows tie at the n-th place (of tied
    rows either kernel may keep either)."""
    want = oracle_rcsls_neighbor_sets(w, x_s, x_t, src_pool, tgt_pool, n)
    dense = ((x_s @ w) @ tgt_pool.T, x_t @ (src_pool @ w).T)
    for cols, want_cols, scores in zip(got, want, dense):
        assert cols.shape == want_cols.shape
        mine = np.sort(np.take_along_axis(scores, cols, axis=1), axis=1)
        assert np.array_equal(
            mine, np.sort(np.take_along_axis(scores, want_cols, axis=1), axis=1))
        ranked = -np.sort(-scores, axis=1)
        untied = (ranked[:, n - 1] > ranked[:, n] if n < scores.shape[1]
                  else np.ones(len(scores), dtype=bool))
        assert np.array_equal(np.sort(cols[untied], axis=1),
                              np.sort(want_cols[untied], axis=1))


def oracle_candidate_mask(sim, k=10):
    n, m = sim.shape
    mask = np.zeros_like(sim, dtype=bool)
    rows_top = np.argpartition(sim, m - min(k, m), axis=1)[:, m - min(k, m):]
    np.put_along_axis(mask, rows_top, True, axis=1)
    cols_top = np.argpartition(sim, n - min(k, n), axis=0)[n - min(k, n):, :]
    np.put_along_axis(mask, cols_top, True, axis=0)
    return mask


def oracle_align_dlv(src_space, tgt_space, seed_lex, em_iters=3,
                     match_cap=2500):
    """dlv's map and match sizes as they were computed: a new cosine matrix
    each E-step, the weights a copy of it (np.where), and the solver asked
    to maximise them."""
    from scipy.optimize import linear_sum_assignment
    src_unit = unit_rows(src_space.matrix[:match_cap])
    tgt_unit = unit_rows(tgt_space.matrix[:match_cap])
    aligned = build_aligned_matrices(seed_lex, src_space, tgt_space)
    seed_src, seed_tgt = unit_rows(aligned.x_src), unit_rows(aligned.x_tgt)
    w = solve_procrustes(seed_src, seed_tgt)
    sizes = []
    for _ in range(em_iters):
        sim = (src_unit @ w) @ tgt_unit.T
        mask = oracle_candidate_mask(sim)
        rows, cols = linear_sum_assignment(np.where(mask, sim, -1e6),
                                           maximize=True)
        matches = [(i, j) for i, j in zip(rows, cols) if mask[i, j]]
        sizes.append(len(matches))
        idx_s, idx_t = np.array(matches).T
        w = solve_procrustes(np.vstack([seed_src, src_unit[idx_s]]),
                             np.vstack([seed_tgt, tgt_unit[idx_t]]))
    return w, sizes


def oracle_vecmap_seed(src_space, tgt_space, cap=4000):
    """VecMap's seed as it was computed: both cap x cap profile matrices
    sorted into copies, then their cosine matrix whole."""
    src_unit = unit_rows(src_space.matrix[:cap])
    tgt_unit = unit_rows(tgt_space.matrix[:cap])
    src_profiles = np.sort(src_unit @ src_unit.T, axis=1)[:, ::-1]
    tgt_profiles = np.sort(tgt_unit @ tgt_unit.T, axis=1)[:, ::-1]
    width = min(src_profiles.shape[1], tgt_profiles.shape[1])
    best = np.argmax(cosine_matrix(src_profiles[:, :width],
                                   tgt_profiles[:, :width]), axis=1)
    return make_lexicon((src_space.words[i], tgt_space.words[int(j)])
                        for i, j in enumerate(best))


def oracle_rcsls_gradient(w, x_s, x_t, src_pool, tgt_pool, neighbors):
    nt, ns = neighbors
    k, n = nt.shape
    grad = -2.0 * x_s.T @ x_t
    grad += x_s.T @ np.mean(tgt_pool[nt], axis=1)
    acc = np.zeros_like(src_pool)
    np.add.at(acc, ns.ravel(), np.repeat(x_t / n, n, axis=0))
    grad += src_pool.T @ acc
    return grad / k


def oracle_align_rcsls(aligned, full_src_matrix, full_tgt_matrix, cfg):
    """`align_rcsls` as it was, with the loss and the gradient of each
    neighbourhood computed apart, by the oracles above. Returns the pair and
    the loss of each epoch, the starting loss first."""
    x_s, x_t = unit_rows(aligned.x_src), unit_rows(aligned.x_tgt)
    src_pool, tgt_pool = unit_rows(full_src_matrix), unit_rows(full_tgt_matrix)
    n = min(cfg.neighborhood, len(src_pool), len(tgt_pool))
    w = solve_procrustes(x_s, x_t)
    lr = cfg.learning_rate
    neighbors = rcsls_neighbor_sets(w, x_s, x_t, src_pool, tgt_pool, n)
    prev = oracle_rcsls_objective(w, x_s, x_t, src_pool, tgt_pool, neighbors)
    objectives = [prev]
    best_w, best_obj = w.copy(), prev
    bad_epochs = 0
    for _ in range(cfg.epochs):
        w = w - lr * oracle_rcsls_gradient(w, x_s, x_t, src_pool, tgt_pool,
                                           neighbors)
        neighbors = rcsls_neighbor_sets(w, x_s, x_t, src_pool, tgt_pool, n)
        obj = oracle_rcsls_objective(w, x_s, x_t, src_pool, tgt_pool, neighbors)
        objectives.append(obj)
        if obj > prev:
            lr *= 0.5
            bad_epochs += 1
            if bad_epochs >= 10:
                raise RuntimeError("rcsls diverged for 10 consecutive epochs")
        else:
            bad_epochs = 0
        if obj < best_obj:
            best_w, best_obj = w.copy(), obj
        prev = obj
    return ProjectionPair(
        w_src=best_w, w_tgt=np.eye(best_w.shape[0]), orthogonal_src=False,
        method="rcsls",
        metadata={"dict_size": len(aligned.kept_pairs), "epochs": cfg.epochs,
                  "neighborhood": n, "final_objective": best_obj}), objectives


def oracle_gw_plan(src_vectors, tgt_vectors, lam=5e-2, outer_iters=30,
                   sinkhorn_max_iter=1000, sinkhorn_tol=1e-9):
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
        a, b, violation = sinkhorn_scale(kernel, p, q,
                                         max_iter=sinkhorn_max_iter,
                                         tol=sinkhorn_tol)
        gamma = (a[:, None] * kernel) * b[None, :]
    return gamma, violation


def oracle_nearest_rows(a, b):
    sq = np.sum(b * b, axis=1)
    return np.argmin(sq[None, :] - 2.0 * (a @ b.T), axis=1)


def oracle_dropout(blocks, best, keep_prob, rng):
    for rows, scores in blocks:
        best[rows] = scores.max(axis=1)
        if keep_prob < 1.0:
            scores = np.where(rng.random(scores.shape) < keep_prob, scores, 0.0)
        yield rows, scores


def swept_blocks(queries, pool, metric="cosine", csls_n=10):
    """The library's sweep as the (rows, scores) blocks it fills, which
    must tile the queries in order: each stripe copied by `swept`'s
    reducer, each block's rows recorded while its tiles fill."""
    blocks = []
    scores = swept(queries, pool, metric, csls_n, blocks=blocks)
    assert [rows.start for rows in blocks] == \
        [0] + [rows.stop for rows in blocks[:-1]]
    assert (blocks[-1].stop if blocks else 0) == len(queries)
    return [(rows, scores[rows]) for rows in blocks]


@contextlib.contextmanager
def copied_sweeps():
    """Patch `similarity._sweep` so that each sweep also copies every
    stripe, after its own reducer has run (and a dropout changed it), into
    a matrix, and records its row blocks as their tiles fill. Yields the
    list of each sweep's (matrix, blocks)."""
    sweep, made = similarity._sweep, []

    def copying(queries, pool, metric, csls_n, r_pool, reduce, scratch=None,
                meanwhile=None):
        scores, blocks = np.full((len(queries), len(pool)), np.nan), []
        made.append((scores, blocks))

        def block(rows):
            blocks.append(rows)
            if meanwhile is not None:
                meanwhile(rows)

        def copy(rows, part, *arrays):
            reduce(rows, part, *arrays)
            scores[rows] = part
        return sweep(queries, pool, metric, csls_n, r_pool, copy, scratch,
                     block)

    with mock.patch.object(similarity, "_sweep", copying):
        yield made


def induced(queries, pool, metric="cosine", csls_n=10, keep_prob=1.0,
            rng=None):
    """What `mutual_argmax_pairs` makes of a sweep, with what it reduced:
    its pairs, each row's best score before the dropout, and the sweep's
    scores after it, with its row blocks (`copied_sweeps`)."""
    best = np.empty(len(queries))
    with copied_sweeps() as made:
        pairs = mutual_argmax_pairs(queries, pool, metric, csls_n, best,
                                    keep_prob, rng)
    (scores, blocks), = made
    return pairs, best, scores, blocks


def assert_same_pair(new, old):
    assert np.array_equal(new.w_src, old.w_src)
    assert np.array_equal(new.w_tgt, old.w_tgt)
    assert (new.method, new.orthogonal_src, new.metadata) == \
        (old.method, old.orthogonal_src, old.metadata)


def projected(pair_fixture):
    aligned = build_aligned_matrices(pair_fixture.train_lex, pair_fixture.src,
                                     pair_fixture.tgt)
    w = align_proc(aligned).w_src
    return pair_fixture.src.matrix @ w, pair_fixture.tgt.matrix


# --- the sweep and its reductions on fixtures ------------------------------------

@pytest.mark.parametrize("cells", CELL_BUDGETS)
@pytest.mark.parametrize("metric", ["cosine", "csls"])
def test_sweep_matches_dense_matrix(noisy_pair, metric, cells):
    queries, pool = projected(noisy_pair)
    queries = queries[:300]                      # queries and pool differ in size
    with cell_budget(cells):
        got = swept(queries, pool, metric, 5)
        pairs = mutual_argmax_pairs(queries, pool, metric, 5)
    want = oracle_similarity_matrix(queries, pool, metric, 5)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))
    assert pairs == oracle_mutual_argmax_pairs(want)
    assert len(pairs) > 200


def test_sweep_rejects_unknown_metric():
    a = np.eye(3)
    with pytest.raises(ValueError, match="unknown similarity metric"):
        oracle_similarity_matrix(a, a, "euclid")
    with pytest.raises(ValueError, match="unknown similarity metric"):
        swept(a, a, "euclid")


@pytest.mark.parametrize("cells", CELL_BUDGETS)
@pytest.mark.parametrize("metric", ["cosine", "csls"])
def test_mutual_nearest_neighbors_match_oracle(noisy_pair, metric, cells):
    queries, pool = projected(noisy_pair)
    with cell_budget(cells):
        got = capped_mutual_pairs(queries, pool, 400, metric, 3)
    sim = oracle_similarity_matrix(queries[:400], pool[:400], metric, 3)
    assert got == oracle_mutual_argmax_pairs(sim)
    assert len(got) > 200


# --- the aligners on fixtures ----------------------------------------------------

@pytest.mark.parametrize("cells", CELL_BUDGETS)
@pytest.mark.parametrize("metric", ["cosine", "csls"])
def test_proc_b_matches_oracle(noisy_pair, metric, cells):
    seed = make_lexicon(noisy_pair.train_lex[:10])
    with cell_budget(cells):
        new = align_proc_b(noisy_pair.src, noisy_pair.tgt, seed, iters=3,
                           search_cap=450, metric=metric, csls_n=4)
    old = oracle_align_proc_b(noisy_pair.src, noisy_pair.tgt, seed, iters=3,
                              search_cap=450, metric=metric, csls_n=4)
    assert_same_pair(new, old)
    assert new.metadata["dict_sizes"][-1] > 10


@st.composite
def proc_b_cases(draw):
    """A rotated noisy pair with a full-rank seed: at least d + 2 pairs.
    Some targets past the seed are copies of the row before, whose scores
    tie exactly; the seed's own rows are not copied, which could leave it
    rank-deficient (four seed targets copied from one)."""
    n, d = draw(st.integers(10, 60)), draw(st.integers(2, 6))
    pair = RotatedPair(sigma=draw(st.sampled_from([0.05, 0.3, 1.0])),
                       seed=draw(st.integers(0, 2 ** 16)), n=n, d=d, train=n)
    size = draw(st.integers(d + 2, n))
    tgt = pair.tgt.matrix.copy()
    copies = st.lists(st.integers(size, n - 1), max_size=3) if size < n \
        else st.just([])
    for i in draw(copies):
        tgt[i] = tgt[i - 1]
    seed = make_lexicon(pair.train_lex[:size])
    return (pair.src, WordVectorSpace(pair.tgt.words, tgt), seed,
            draw(st.sampled_from(["cosine", "csls"])))


def decided_by(scores) -> float:
    """The smallest gap between a row's or a column's best and second-best
    score: what the forward and the backward argmaxes turn on."""
    gaps = [np.inf]
    for side in (scores, scores.T):
        if side.shape[1] > 1:
            top = -np.partition(-side, 1, axis=1)[:, :2]
            gaps.append((top[:, 0] - top[:, 1]).min())
    return min(gaps)


@settings(max_examples=100, deadline=None)
@given(proc_b_cases())
def test_a_full_rank_round_adds_the_forward_mutual_argmaxes(case):
    """proc-b's full-rank round adds the mutual argmaxes of the forward
    scores, those of one sweep under the source map, every one. Where each
    deciding score stands more than 1e-9 clear of the next, the dictionary
    and the maps are those of the two-sweep oracle."""
    src, tgt, seed, metric = case
    rounds = []

    def recording(queries, pool, *args):
        pairs = mutual_argmax_pairs(queries, pool, *args)
        rounds.append((queries, pool, pairs))
        return pairs

    with mock.patch.object(supervised, "mutual_argmax_pairs", recording):
        new = align_proc_b(src, tgt, seed, iters=2, search_cap=len(src),
                           metric=metric, csls_n=3)
    assert len(rounds) == 1                      # one sweep, forward
    queries, pool, added = rounds[0]
    scores = swept(queries, pool, metric, 3)
    assert added == oracle_mutual_argmax_pairs(scores)
    for i, j in added:
        assert scores[i].argmax() == j and scores[:, j].argmax() == i
    clear = decided_by(scores) > 1e-9
    event("deciding scores clear" if clear else "deciding scores tie")
    if clear:
        assert_same_pair(new, oracle_align_proc_b(
            src, tgt, seed, iters=2, search_cap=len(src), metric=metric,
            csls_n=3))


@pytest.mark.parametrize("cells", CELL_BUDGETS)
@pytest.mark.parametrize("metric", ["cosine", "csls"])
def test_self_learn_matches_oracle(noisy_pair, metric, cells):
    seed_lex = vecmap_seed(noisy_pair.src, noisy_pair.tgt, cap=300)
    # keep_prob starts at 0.1 and reaches 1 (after 10 rounds under cosine
    # and 7 under csls), so rounds with and without the random dropout both
    # run, and both metrics converge within 16 rounds
    cfg = SelfLearnConfig(vocab_cap=300, metric=metric, csls_n=4,
                          max_rounds=16, seed=5)
    with cell_budget(cells):
        new = self_learn(noisy_pair.src, noisy_pair.tgt, seed_lex, cfg)
    old = oracle_self_learn(noisy_pair.src, noisy_pair.tgt, seed_lex, cfg)
    assert_same_pair(new, old)
    assert new.metadata["rounds"] < cfg.max_rounds


@pytest.mark.parametrize("cells", CELL_BUDGETS)
def test_rcsls_neighbor_sets_match_oracle(noisy_pair, cells):
    aligned = build_aligned_matrices(noisy_pair.train_lex, noisy_pair.src,
                                     noisy_pair.tgt)
    x_s, x_t = unit_rows(aligned.x_src), unit_rows(aligned.x_tgt)
    src_pool = unit_rows(noisy_pair.src.matrix)
    tgt_pool = unit_rows(noisy_pair.tgt.matrix)
    w = solve_procrustes(x_s, x_t)
    with cell_budget(cells):
        got = rcsls_neighbor_sets(w, x_s, x_t, src_pool, tgt_pool, 7)
    assert_same_neighbor_sets(got, w, x_s, x_t, src_pool, tgt_pool, 7)


@pytest.mark.parametrize("cells", CELL_BUDGETS)
def test_align_dlv_matches_oracle(noisy_pair, cells):
    seed = make_lexicon(noisy_pair.train_lex[:30])
    with cell_budget(cells):
        pair = align_dlv(noisy_pair.src, noisy_pair.tgt, seed, em_iters=2,
                         match_cap=400)
    w, sizes = oracle_align_dlv(noisy_pair.src, noisy_pair.tgt, seed,
                                em_iters=2, match_cap=400)
    assert np.array_equal(pair.w_src, w)
    assert pair.metadata["match_sizes"] == sizes
    assert min(sizes) > 300


@pytest.mark.parametrize("cells", CELL_BUDGETS)
@pytest.mark.parametrize("tgt_words", [500, 350])
def test_vecmap_seed_matches_oracle(noisy_pair, cells, tgt_words):
    """Both sides capped at 400 words, or a target side of 350 words, whose
    profiles are 350 long: the source's are cut to that."""
    tgt = WordVectorSpace(noisy_pair.tgt.words[:tgt_words],
                          noisy_pair.tgt.matrix[:tgt_words])
    with cell_budget(cells):
        got = vecmap_seed(noisy_pair.src, tgt, cap=400)
    assert got == oracle_vecmap_seed(noisy_pair.src, tgt, cap=400)
    assert len(got) == 400


@pytest.mark.parametrize("cells", CELL_BUDGETS[:2])
def test_icp_is_independent_of_the_cell_budget(spiral_pair, cells):
    src, tgt, _ = spiral_pair
    cfg = IcpConfig(pca_dim=5, top_n_words=300, restarts=2, max_iters=5,
                    seed=1)
    with cell_budget(cells):
        new = align_icp(src, tgt, cfg)
    assert_same_pair(new, align_icp(src, tgt, cfg))


# --- ties, on exact inputs -------------------------------------------------------

@st.composite
def sweep_cases(draw):
    dim = draw(st.integers(1, 4))
    queries = draw(exact_rows(dim, 1, 8))
    base = draw(exact_rows(dim, 1, 5))
    # pool rows drawn with replacement from a few base rows: many duplicates
    pool = base[draw(st.lists(st.integers(0, len(base) - 1), min_size=1,
                              max_size=9))]
    metric = draw(st.sampled_from(["cosine", "csls"]))
    return queries, pool, metric, draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(sweep_cases(), st.sampled_from(CELL_BUDGETS))
def test_sweep_reductions_match_oracle_on_ties(case, cells):
    queries, pool, metric, csls_n = case
    with cell_budget(cells):
        got = swept(queries, pool, metric, csls_n)
        pairs = mutual_argmax_pairs(queries, pool, metric, csls_n)
    want = oracle_similarity_matrix(queries, pool, metric, csls_n)
    assert np.array_equal(got, want)
    assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))
    assert pairs == oracle_mutual_argmax_pairs(want)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(
    st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
             min_size=1, max_size=9),
    st.integers(1, 4), st.integers(1, 4))))
def test_mutual_argmax_pairs_match_dense_on_integer_blocks(case):
    """Integer rows against the unit axes, whose scores are the rows' unit
    rows exactly, in blocks of `step` rows (a budget of step * m cells) and
    tiles of `width` columns."""
    rows, step, width = case
    queries = np.array(rows, dtype=float)
    m = queries.shape[1]
    sim = unit_rows(queries)
    blocks = [(slice(i, i + step), sim[i:i + step])
              for i in range(0, len(sim), step)]
    with cell_budget(step * m), tiles(width):
        assert [len(s) for _, s in swept_blocks(queries, np.eye(m))] == \
            [len(s) for _, s in blocks]
        pairs = mutual_argmax_pairs(queries, np.eye(m))
    assert pairs == oracle_mutual_argmax_pairs(sim)
    assert pairs == oracle_block_mutual_pairs(blocks, m)


@st.composite
def rcsls_cases(draw):
    dim = draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    x_s = draw(exact_rows(dim, k, k))
    x_t = draw(exact_rows(dim, k, k))
    src_pool = draw(exact_rows(dim, 1, 8))
    tgt_pool = draw(exact_rows(dim, 1, 8))
    perm = draw(st.permutations(range(dim)))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=dim,
                          max_size=dim))
    w = np.eye(dim)[list(perm)] * np.array(signs)
    n = draw(st.integers(1, min(len(src_pool), len(tgt_pool))))
    return w, x_s, x_t, src_pool, tgt_pool, n


@settings(max_examples=200, deadline=None)
@given(rcsls_cases(), st.sampled_from(CELL_BUDGETS))
def test_rcsls_neighbor_sets_match_oracle_on_ties(case, cells):
    with cell_budget(cells):
        got = rcsls_neighbor_sets(*case)
    assert_same_neighbor_sets(got, *case)
    # exact scores: each row is in descending order of its float64 score
    w, x_s, x_t, src_pool, tgt_pool, n = case
    for cols, scores in zip(got, ((x_s @ w) @ tgt_pool.T,
                                  x_t @ (src_pool @ w).T)):
        kept = np.take_along_axis(scores, cols, axis=1)
        assert np.array_equal(kept, -np.sort(-kept, axis=1))


# --- the aligner loops' thin reductions -------------------------------------------

@st.composite
def exact_rcsls_cases(draw):
    """`rcsls_cases` with n a power of two, so that every mean is exact."""
    w, x_s, x_t, src_pool, tgt_pool, n = draw(rcsls_cases())
    return w, x_s, x_t, src_pool, tgt_pool, 1 << (n.bit_length() - 1)


@settings(max_examples=300, deadline=None)
@given(exact_rcsls_cases())
def test_rcsls_matches_oracle_on_exact_rows(case):
    """The gradient is equal; the loss read off it, sum(w * G), sums in
    another order than the oracle's mean over pairs."""
    w, x_s, x_t, src_pool, tgt_pool, n = case
    neighbors = rcsls_neighbor_sets(w, x_s, x_t, src_pool, tgt_pool, n)
    grad = rcsls_gradient(x_s, x_t, src_pool, tgt_pool, neighbors)
    args = (w, x_s, x_t, src_pool, tgt_pool, neighbors)
    assert np.array_equal(grad, oracle_rcsls_gradient(*args))
    assert np.isclose(np.sum(w * grad), oracle_rcsls_objective(*args),
                      rtol=1e-12, atol=1e-12)


@st.composite
def generic_rcsls_cases(draw):
    """Unit rows, a perturbed rotation w and any neighbourhood size."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim, k = draw(st.integers(1, 12)), draw(st.integers(1, 30))
    pools = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    x_s, x_t = (unit_rows(rng.standard_normal((k, dim))) for _ in range(2))
    src_pool, tgt_pool = (unit_rows(rng.standard_normal((size, dim)))
                          for size in pools)
    w = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    w += 0.1 * rng.standard_normal((dim, dim))
    n = draw(st.integers(1, min(pools)))
    return w, x_s, x_t, src_pool, tgt_pool, n


@settings(max_examples=300, deadline=None)
@given(generic_rcsls_cases())
def test_rcsls_matches_oracle(case):
    """Loss and gradient are sums of cosines and of unit-row products, so
    their scale is 1: they agree to 1e-12 on that scale."""
    w, x_s, x_t, src_pool, tgt_pool, n = case
    neighbors = rcsls_neighbor_sets(w, x_s, x_t, src_pool, tgt_pool, n)
    grad = rcsls_gradient(x_s, x_t, src_pool, tgt_pool, neighbors)
    args = (w, x_s, x_t, src_pool, tgt_pool, neighbors)
    assert np.isclose(np.sum(w * grad), oracle_rcsls_objective(*args),
                      rtol=1e-12, atol=1e-12)
    assert np.allclose(grad, oracle_rcsls_gradient(*args),
                       rtol=1e-12, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 50))
def test_neighbor_means_equal_numpy_means(seed, n, k):
    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((60, 7))
    neighbors = rng.integers(0, len(pool), (k, n))
    assert np.array_equal(supervised._neighbor_means(pool, neighbors),
                          np.mean(pool[neighbors], axis=1))


def assert_same_rcsls(aligned, src_matrix, tgt_matrix, cfg):
    new = align_rcsls(aligned, src_matrix, tgt_matrix, cfg)
    old, objectives = oracle_align_rcsls(aligned, src_matrix, tgt_matrix, cfg)
    assert np.allclose(new.w_src, old.w_src, rtol=0, atol=1e-12)
    assert np.isclose(new.metadata.pop("final_objective"),
                      old.metadata.pop("final_objective"), rtol=1e-12)
    assert new.metadata == old.metadata
    return objectives


def test_align_rcsls_matches_oracle(noisy_pair):
    aligned = build_aligned_matrices(noisy_pair.train_lex, noisy_pair.src,
                                     noisy_pair.tgt)
    assert_same_rcsls(aligned, noisy_pair.src.matrix, noisy_pair.tgt.matrix,
                      RcslsConfig(neighborhood=7, epochs=4))


def test_align_rcsls_matches_oracle_when_the_rate_halves():
    """A large step on a noisy pair: an epoch worsens the loss, the rate
    halves, and the map returned is not the last epoch's."""
    pair = RotatedPair(sigma=1.0)
    aligned = build_aligned_matrices(pair.train_lex, pair.src, pair.tgt)
    objectives = assert_same_rcsls(
        aligned, pair.src.matrix, pair.tgt.matrix,
        RcslsConfig(neighborhood=1, learning_rate=10.0, epochs=8))
    assert any(b > a for a, b in zip(objectives, objectives[1:]))
    assert min(objectives) < objectives[-1]


def assert_close_plans(new, old):
    (gamma, violation), (want, want_violation) = new, old
    assert np.allclose(gamma, want, rtol=1e-9, atol=0)
    assert np.array_equal(gamma.argmax(axis=1), want.argmax(axis=1))
    assert np.isclose(violation, want_violation, rtol=1e-6, atol=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 40), st.integers(2, 8))
def test_gw_plan_matches_oracle(seed, n, dim):
    """A cloud with a decaying spectrum against its rotated, shuffled and
    slightly perturbed copy. Clouds that leave the plan near uniform (two
    points, isotropic or symmetric ones) are not drawn: there the iteration
    moves off a nearly symmetric plan, and rounding, not the data, chooses
    the direction, in either code."""
    rng = np.random.default_rng(seed)
    src = rng.standard_normal((n, dim)) * 0.7 ** np.arange(dim)
    tgt = (src @ np.linalg.qr(rng.standard_normal((dim, dim)))[0])
    tgt = tgt[rng.permutation(n)] + 1e-3 * rng.standard_normal((n, dim))
    assert_close_plans(gromov_wasserstein_plan(src, tgt, outer_iters=10),
                       oracle_gw_plan(src, tgt, outer_iters=10))


def test_gw_plan_matches_oracle_on_a_fixture(noisy_pair):
    """The 300 most frequent words, at the default settings."""
    src, tgt = noisy_pair.src.matrix[:300], noisy_pair.tgt.matrix[:300]
    assert_close_plans(gromov_wasserstein_plan(src, tgt),
                       oracle_gw_plan(src, tgt))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.integers(1, 30),
       st.integers(1, 8), st.integers(1, 4))
def test_nearest_rows_match_oracle(seed, n, m, dim, copies):
    """b repeats its rows, so equal distances must go to the same row."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, dim))
    b = np.tile(rng.standard_normal((m, dim)), (copies, 1))
    b = b[rng.permutation(len(b))]
    assert np.array_equal(_nearest_rows(a, b), oracle_nearest_rows(a, b))


@pytest.mark.parametrize("keep_prob", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("cells", CELL_BUDGETS)
def test_dropout_matches_oracle(noisy_pair, cells, keep_prob):
    queries, pool = projected(noisy_pair)
    with cell_budget(cells):
        pairs, best, got, blocks = induced(queries, pool, "csls", 5,
                                           keep_prob, np.random.default_rng(3))
        want_best = np.empty(len(queries))
        want = list(oracle_dropout(swept_blocks(queries, pool, "csls", 5),
                                   want_best, keep_prob,
                                   np.random.default_rng(3)))
        assert mutual_argmax_pairs(queries, pool, "csls", 5, None, keep_prob,
                                   np.random.default_rng(3)) == pairs
    assert np.array_equal(best, want_best)
    assert blocks == [rows for rows, _ in want]
    assert np.array_equal(got, np.vstack([s for _, s in want]))
    assert pairs == oracle_block_mutual_pairs(want, len(pool))


# --- hubness and top-n means -----------------------------------------------------

def count_fallback_rows():
    """Patch `similarity._top` to count the rows it gets: in the top-n
    kernel (`csls_hubness`, `rcsls_neighbor_sets`), the rows of its float64
    fallback."""
    rows = []

    def counted(scores, k):
        rows.append(len(scores))
        return oracle_top(scores, k)
    return rows, mock.patch.object(similarity, "_top", counted)


# pools of one row and of fewer rows than n; pools too narrow for groups of
# `similarity._GROUP` columns (17, 250 at n = 10); and group selection with
# 13 columns after the last whole group (333) and with none (1024)
@pytest.mark.parametrize("pool_rows", [1, 3, 17, 250, 333, 1024])
@pytest.mark.parametrize("n", [1, 5, 10])
@pytest.mark.parametrize("cells", CELL_BUDGETS)
def test_csls_hubness_matches_oracle(pool_rows, n, cells):
    rng = np.random.default_rng(pool_rows * 100 + n)
    vectors = rng.standard_normal((120, 30))
    pool = rng.standard_normal((pool_rows, 30))
    fallback, patch = count_fallback_rows()
    with cell_budget(cells), patch:
        got = csls_hubness(vectors, pool, n)
    want = oracle_csls_hubness(vectors, pool, n)
    assert np.allclose(got, want, rtol=0, atol=1e-15)
    assert sum(fallback) == 0


@pytest.mark.parametrize("width", [1, 4, 17, 200, 500])
@pytest.mark.parametrize("k", [1, 3, 10, 40])
def test_topk_mean_matches_oracle(width, k):
    rng = np.random.default_rng(width * 100 + k)
    scores = rng.uniform(-1.0, 1.0, (50, width))
    assert np.allclose(topk_mean(scores, k), oracle_topk_mean(scores, k),
                       rtol=0, atol=1e-15)


@pytest.mark.parametrize("width", [7, 500])
def test_topk_mean_ignores_the_column_order(width):
    """The selected values are summed in descending order, so permuting
    columns cannot move the last bit, as a partition's order could."""
    rng = np.random.default_rng(width)
    scores = rng.uniform(-1.0, 1.0, (200, width))
    want = topk_mean(scores, 10)
    for _ in range(5):
        assert np.array_equal(topk_mean(scores[:, rng.permutation(width)], 10),
                              want)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 600), st.integers(1, 12), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1))
def test_topk_mean_matches_oracle_on_integer_ties(width, k, values, seed):
    """Few distinct integers: ties everywhere, across and within groups."""
    rng = np.random.default_rng(seed)
    scores = rng.integers(-values, values + 1, (6, width)).astype(float)
    assert np.array_equal(topk_mean(scores, k), oracle_topk_mean(scores, k))


@st.composite
def hubness_cases(draw):
    dim = draw(st.integers(1, 4))
    vectors = draw(exact_rows(dim, 1, 8))
    base = draw(exact_rows(dim, 1, 5))
    # up to 400 pool rows drawn from a few base rows, so that the group
    # selection runs on pools made of duplicates
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = base[rng.integers(0, len(base), draw(st.integers(1, 400)))]
    return vectors, pool, draw(st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(hubness_cases(), st.sampled_from(CELL_BUDGETS))
def test_csls_hubness_matches_oracle_on_exact_rows(case, cells):
    vectors, pool, n = case
    with cell_budget(cells):
        got = csls_hubness(vectors, pool, n)
    assert np.array_equal(got, oracle_csls_hubness(vectors, pool, n))


def test_csls_hubness_falls_back_inside_the_band():
    """Forty pool rows, nearest to every vector, whose cosines to it lie
    within 1.4e-6 of one another: distinct in float32, but inside the band
    2 * delta = 4.1e-6 at d = 30, so the screen cannot certify which n are
    the largest."""
    rng = np.random.default_rng(11)
    centre = rng.standard_normal(30)
    cluster = centre + 1e-5 * rng.standard_normal((40, 30))
    pool = np.vstack([rng.standard_normal((600, 30)), cluster])
    vectors = centre + 0.1 * rng.standard_normal((50, 30))
    fallback, patch = count_fallback_rows()
    with patch:
        got = csls_hubness(vectors, pool, 3)
    assert sum(fallback) == 50
    assert np.allclose(got, oracle_csls_hubness(vectors, pool, 3),
                       rtol=0, atol=1e-15)
    got, want = top_neighbors_against_oracle(vectors, pool, 3, True)
    assert_same_top(got, want)


@st.composite
def scaled_rcsls_cases(draw):
    """`generic_rcsls_cases` with w scaled by 10**-3 to 10**3, so that the
    projected rows are far from unit length on either side."""
    w, x_s, x_t, src_pool, tgt_pool, n = draw(generic_rcsls_cases())
    return (w * 10.0 ** draw(st.integers(-3, 3)), x_s, x_t, src_pool,
            tgt_pool, n)


@settings(max_examples=300, deadline=None)
@given(scaled_rcsls_cases(), st.sampled_from(CELL_BUDGETS),
       st.sampled_from([1, 2]))
def test_rcsls_neighbor_sets_match_oracle_on_scaled_rows(case, cells, workers):
    with cell_budget(cells), \
            mock.patch.object(similarity, "_workers", lambda: workers):
        got = rcsls_neighbor_sets(*case)
    assert_same_neighbor_sets(got, *case)


def test_rcsls_neighbor_sets_fall_back_inside_a_scaled_band():
    """Pool rows of norm 1000 on one side and projected queries of norm 1000
    on the other (w = 1000 I), with forty pool rows within about 1e-6 of
    one another in direction: their float64 scores differ by about 1e-3,
    the float32 screen errs by up to d * 2**-24 * 1000 = 1.8e-3 there, and
    the unit-row band 2 * (d + 4) * 2**-24 = 4.1e-6 would certify its
    noise (it gets most rows' sets wrong). The band that grows with the
    norms sends every row to the fallback."""
    rng = np.random.default_rng(12)
    centre = rng.standard_normal(30)
    pool = unit_rows(np.vstack([rng.standard_normal((600, 30)),
                                centre + 1e-6 * rng.standard_normal((40, 30))]))
    queries = unit_rows(centre + 0.1 * rng.standard_normal((50, 30)))
    case = (1000.0 * np.eye(30), queries, queries, pool, pool, 3)
    fallback, patch = count_fallback_rows()
    with patch:
        got = rcsls_neighbor_sets(*case)
    assert sum(fallback) == 100
    assert_same_neighbor_sets(got, *case)


def assert_same_top(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def top_neighbors_against_oracle(queries, pool, n, unit):
    """`_top_neighbors` on the rows as they are, and the oracle on the unit
    rows they stand for under `unit` (hubness), or on the same rows."""
    got = similarity._top_neighbors(queries, pool, n, unit)
    if unit:
        queries, pool = unit_rows(queries), unit_rows(pool)
    return got, oracle_top_neighbors(queries, pool, n)


@st.composite
def top_neighbor_cases(draw):
    """Hubness on exact rows, zero rows and duplicated pool rows among them,
    or RCSLS's target-side neighbourhoods of scaled projected rows."""
    if draw(st.booleans()):
        vectors, pool, n = draw(hubness_cases())
        return vectors, pool, n, True
    w, x_s, _, _, tgt_pool, n = draw(scaled_rcsls_cases())
    return x_s @ w, tgt_pool, n, False


@settings(max_examples=300, deadline=None)
@given(top_neighbor_cases(), st.sampled_from(CELL_BUDGETS), st.integers(1, 3))
def test_top_neighbors_match_oracle_bit_for_bit(case, cells, workers):
    with cell_budget(cells), threads(workers):
        assert_same_top(*top_neighbors_against_oracle(*case))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("cells", CELL_BUDGETS)
def test_top_neighbors_match_oracle_at_every_budget(cells, workers):
    """Generic rows, the duplicated pool whose ties reach the fallback, and
    rows of norm about 1000 taken as they are (RCSLS)."""
    rng = np.random.default_rng(cells + workers)
    vectors, duplicated = duplicated_pool(9)
    cases = [(vectors, duplicated, 10, True),
             (vectors, rng.standard_normal((500, 30)), 5, True),
             (1000.0 * vectors, 1000.0 * duplicated, 4, False)]
    fallback, patch = count_fallback_rows()
    with patch, cell_budget(cells), \
            threads(workers):
        for case in cases:
            assert_same_top(*top_neighbors_against_oracle(*case))
    assert sum(fallback) > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_top_neighbors_match_oracle_in_blocks_of_at_most_max_rows(workers):
    """Screen blocks of at most 7 rows: the 120 rows make 17 blocks and a
    shorter last one, and some rows reach the fallback."""
    vectors, duplicated = duplicated_pool(15)
    fallback, patch = count_fallback_rows()
    with patch, mock.patch.object(similarity, "_MAX_ROWS", 7), \
            threads(workers):
        assert_same_top(*top_neighbors_against_oracle(vectors, duplicated,
                                                      10, True))
        assert_same_top(*top_neighbors_against_oracle(
            1000.0 * vectors, 1000.0 * duplicated, 4, False))
    assert sum(fallback) > 0


@pytest.mark.parametrize("tiny", ["pool", "vectors", "both"])
def test_top_neighbors_match_oracle_with_rows_below_the_tiny_norm(tiny):
    """Nonzero rows whose squares are subnormal (1e-160) or underflow to 0
    (1e-170), which `unit_rows` rescales before it divides them, beside
    rows of zeros: the side that holds them is made unit rows in float64."""
    rng = np.random.default_rng(14)
    vectors = rng.standard_normal((80, 20))
    pool = rng.standard_normal((300, 20))
    vectors[2] = pool[7] = 0.0
    for side in (["pool", "vectors"] if tiny == "both" else [tiny]):
        rows = vectors if side == "vectors" else pool
        rows[3] *= 1e-160
        rows[11] *= 1e-170
    for cells, workers in ((3000, 2), (2 ** 24, 1)):
        with cell_budget(cells), threads(workers):
            assert_same_top(*top_neighbors_against_oracle(vectors, pool, 10,
                                                          True))
            got = csls_hubness(vectors, pool, 10)
        assert np.array_equal(got, oracle_top_neighbors(
            unit_rows(vectors), unit_rows(pool), 10)[1])


def count_rescored_rows(pool):
    """Patch `similarity._gather` to count the rows it gathers from `pool`:
    in the top-n kernel, the pool rows its screen blocks rescore."""
    rows = []
    gather = similarity._gather

    def counted(out, matrix, index, divisors):
        if matrix is pool:
            rows.append(len(index))
        return gather(out, matrix, index, divisors)
    return rows, mock.patch.object(similarity, "_gather", counted)


@pytest.mark.parametrize("workers", [1, 2])
def test_the_screen_rescores_only_what_its_band_cannot_rule_out(workers):
    """Generic rows, whose kept columns past the n-th screen far below the
    n-th (the band is 2 * (d + 4) * 2**-24, about 3e-6): each row rescores
    its n best-screened columns alone, not all n + _SPARE it keeps, and
    no row reaches the fallback."""
    rng = np.random.default_rng(16)
    vectors = unit_rows(rng.standard_normal((300, 20)))
    pool = unit_rows(rng.standard_normal((500, 20)))
    rescored, gathers = count_rescored_rows(pool)
    fallback, tops = count_fallback_rows()
    with gathers, tops, threads(workers):
        got, want = top_neighbors_against_oracle(vectors, pool, 10, True)
    assert sum(rescored) == 300 * 10
    assert fallback == []
    assert_same_top(got, want)


@pytest.mark.parametrize("workers", [1, 2])
def test_kept_columns_inside_the_band_are_rescored(workers):
    """Four pool rows within 1e-9 of one another, every query's nearest:
    the float32 screen cannot order them, while their float64 scores
    differ. At n = 2 the two that screen best are not always the two that
    score best, so the two kept past the n-th inside the band must be
    rescored too; rows far below the band are not, and no row reaches the
    fallback. Columns and means equal the oracle's, which rescores all
    it keeps."""
    rng = np.random.default_rng(17)
    centre = rng.standard_normal(20)
    pool = unit_rows(np.vstack([centre + 1e-9 * rng.standard_normal((4, 20)),
                                rng.standard_normal((200, 20))]))
    vectors = unit_rows(centre + 0.3 * rng.standard_normal((60, 20)))
    rescored, gathers = count_rescored_rows(pool)
    fallback, tops = count_fallback_rows()
    with gathers, tops, threads(workers):
        got, want = top_neighbors_against_oracle(vectors, pool, 2, True)
    assert_same_top(got, want)
    assert sum(rescored) == 60 * 4
    assert fallback == []
    screened = (unit_rows(vectors).astype(np.float32)
                @ unit_rows(pool[:4]).T.astype(np.float32))
    best_screened = np.sort(np.argsort(-screened, axis=1, kind="stable")[:, :2])
    assert not np.array_equal(best_screened, np.sort(want[0], axis=1))


def test_an_empty_pool_is_refused_and_no_queries_need_none():
    """`csls_hubness` against an empty pool names the problem; a CSLS sweep
    of no queries, whose pool-side hubness would take them as its pool,
    skips that pass and finds no pairs, as the cosine sweep does."""
    pool = np.random.default_rng(18).standard_normal((7, 5))
    with pytest.raises(ValueError, match="empty pool"):
        csls_hubness(pool, np.empty((0, 5)), 3)
    for metric in ("cosine", "csls"):
        assert mutual_argmax_pairs(np.empty((0, 5)), pool, metric) == []


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 40))
def test_candidate_mask_matches_oracle(seed, n, m):
    """Distinct entries: no two tie at the tenth place of a row or column.
    At each cell budget, so that rows and columns are selected in one block
    or in several, down to one row or column a block."""
    sim = np.random.default_rng(seed).permutation(n * m).reshape(n, m) / (n * m)
    want = oracle_candidate_mask(sim)
    for cells in CELL_BUDGETS:
        with cell_budget(cells):
            assert np.array_equal(supervised._candidate_mask(sim), want)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 40),
       st.integers(1, 3))
def test_candidate_mask_keeps_the_top_of_each_row_and_column_on_ties(
        seed, n, m, values):
    """Few distinct values: the masked entries of each row and column hold
    its ten largest values as a multiset, whichever tied entries they are,
    at each cell budget."""
    sim = np.random.default_rng(seed).integers(-values, values + 1, (n, m)) / 4
    for cells in CELL_BUDGETS:
        with cell_budget(cells):
            mask = supervised._candidate_mask(sim)
        for scores, kept in ((sim, mask), (sim.T, mask.T)):
            k = min(10, scores.shape[1])
            top = -np.sort(-scores, axis=1)[:, :k]
            for row, keep, want in zip(scores, kept, top):
                assert np.sum(row[keep] >= want[-1]) >= k


# --- the row-block threads ---------------------------------------------------------

def duplicated_pool(seed):
    """120 vectors and a pool of 333 rows drawn from 40: each vector's
    nearest rows come in tied copies, so rows go to the float64 fallback."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((40, 30))
    return rng.standard_normal((120, 30)), base[rng.integers(0, 40, 333)]


def threads(workers):
    return mock.patch.object(similarity, "_workers", lambda: workers)


@pytest.mark.parametrize("cells", CELL_BUDGETS)
def test_csls_hubness_is_independent_of_the_thread_count(cells):
    vectors, pool = duplicated_pool(5)
    results = []
    for workers in (1, 2, 3):
        fallback, patch = count_fallback_rows()
        with cell_budget(cells), \
                threads(workers), patch:
            results.append(csls_hubness(vectors, pool, 10))
        assert 0 < sum(fallback) < len(vectors)
    for got in results[1:]:
        assert np.array_equal(got, results[0])
    assert np.allclose(results[0], oracle_csls_hubness(vectors, pool, 10),
                       rtol=0, atol=1e-15)


def test_csls_hubness_under_thread_stress():
    """Eight threads, more than the cores, switching every 10 us: a scratch
    block handed to two threads at once, or a row written by two blocks,
    would change the result."""
    vectors, pool = duplicated_pool(7)
    with cell_budget(3000), threads(1):
        want = csls_hubness(vectors, pool, 10)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with cell_budget(3000), threads(8):
            for _ in range(5):
                assert np.array_equal(csls_hubness(vectors, pool, 10), want)
    finally:
        sys.setswitchinterval(interval)


def recorded_screen(sets, rows_seen):
    """A `similarity._threads` that runs as it does, after putting each
    scratch set it gets in `sets` and each row a block covers in
    `rows_seen`."""
    runner = similarity._threads

    @contextlib.contextmanager
    def recording(scratch):
        sets.extend(scratch)
        with runner(scratch) as run:
            def recorded(fn, blocks):
                def block(rows, *arrays):
                    rows_seen.append(range(rows.start, rows.stop))
                    fn(rows, *arrays)
                run(block, blocks)
            yield recorded
    return mock.patch.object(similarity, "_threads", recording)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("cells", [1, 5000, 2 ** 24])
def test_map_blocks_covers_every_row_once_within_the_budget(workers, cells):
    """The top-n screen's row blocks (`similarity._top_neighbors`): blocks
    of at most cells / workers cells, but where that is fewer than
    `_MIN_ROWS` rows, as tall as `_MIN_ROWS`, one block per thread and
    2 * cells allow, save the last; never more than `_MAX_ROWS` rows; and
    one scratch set per thread at most, allocated for the tallest block:
    its float32 screen, and its rows in float64 and in float32 beside the
    float64 pool rows it keeps in one column."""
    rng = np.random.default_rng(workers)
    vectors, pool = rng.standard_normal((1000, 5)), rng.standard_normal((70, 5))
    sets, rows_seen = [], []
    before = threading.active_count()
    with cell_budget(cells), threads(workers), \
            recorded_screen(sets, rows_seen):
        got = similarity._top_neighbors(vectors, pool, 3)
    assert threading.active_count() == before
    assert sorted(i for rows in rows_seen for i in rows) == list(range(1000))
    heights = [len(rows) for rows in rows_seen]
    assert len(heights) >= workers
    assert sorted(heights)[1:] == [max(heights)] * (len(heights) - 1)
    assert max(heights) >= min(similarity._MIN_ROWS, 1000 // workers,
                               2 * cells // 70)
    assert max(heights) <= similarity._MAX_ROWS
    assert len(sets) == min(workers, len(heights))
    for screen, q64, q32, picked in sets:
        assert screen.shape == (max(heights), 70) and screen.dtype == np.float32
        assert screen.size <= max(70, cells // workers,
                                  min(similarity._MIN_ROWS * 70, 2 * cells))
        assert q64.shape == q32.shape == picked.shape == (max(heights), 5)
        assert q64.dtype == picked.dtype == np.float64
        assert q32.dtype == np.float32
    assert_same_top(got, oracle_top_neighbors(vectors, pool, 3))


def test_a_worker_exception_reaches_the_caller():
    """An exception in a screen block of the top-n kernel is raised by the
    kernel, and no thread outlives it."""
    vectors, pool = duplicated_pool(4)
    before = threading.active_count()
    with cell_budget(5000), threads(2), \
            mock.patch.object(similarity, "_top_columns",
                              side_effect=RuntimeError("screen block")):
        with pytest.raises(RuntimeError, match="screen block"):
            csls_hubness(vectors, pool, 10)
    assert threading.active_count() == before


def test_one_scratch_set_runs_its_items_on_a_worker_thread():
    """`_threads` has one path: with one scratch set too, its items run on
    a pool thread, while meanwhile() runs in this thread; an item's
    exception reaches the caller; and no thread outlives the with block."""
    here, started = threading.get_ident(), threading.Event()
    item_threads, waited, meanwhile_threads = set(), [], set()

    def item(_, scratch):
        item_threads.add(threading.get_ident())
        waited.append(started.wait(5))
        scratch += 1

    def meanwhile():
        meanwhile_threads.add(threading.get_ident())
        started.set()

    def failing(n, _):
        if n == 2:
            raise RuntimeError(f"item {n}")

    scratch = np.zeros(1)
    before = threading.active_count()
    with similarity._threads([[scratch]]) as run:
        run(item, range(4), meanwhile)
        with pytest.raises(RuntimeError, match="item 2"):
            run(failing, range(4))
    assert threading.active_count() == before
    assert len(item_threads) == 1 and here not in item_threads
    assert meanwhile_threads == {here}
    assert waited == [True] * 4 and scratch[0] == 4


def test_no_rows_start_no_pool():
    """An empty query set gives `csls_hubness` an empty result and starts
    no thread pool, which could not start: ThreadPoolExecutor(max_workers=0)
    raises. So does the hubness pass of a CSLS sweep against an empty pool,
    whose one pool of threads is the sweep's own."""
    made = []
    executor = similarity.ThreadPoolExecutor

    def recording(max_workers):
        made.append(max_workers)
        return executor(max_workers=max_workers)

    rng = np.random.default_rng(3)
    with mock.patch.object(similarity, "ThreadPoolExecutor", recording), \
            threads(2):
        assert csls_hubness(np.empty((0, 5)), rng.standard_normal((7, 5)),
                            3).shape == (0,)
        assert made == []
        blocks = [(rows, scores.shape) for rows, scores in swept_blocks(
            rng.standard_normal((4, 5)), np.empty((0, 5)), "csls", 3)]
    assert blocks == [(slice(0, 4), (4, 0))]
    assert made == [1]


def test_no_thread_outlives_a_call():
    vectors, pool = duplicated_pool(6)
    before = threading.active_count()
    with cell_budget(3000), threads(3):
        csls_hubness(vectors, pool, 10)
    assert threading.active_count() == before


def test_no_public_function_runs_off_the_calling_thread(noisy_pair):
    """Every public function of every clembed module is wrapped, under each
    name that refers to it, as a span tracer wraps them, and records the
    thread it runs on. A tracer that keeps one span stack per process is
    only correct if that is always the calling thread. The run must reach
    the helpers that do run on the workers: the sweep's tile norms, taken
    through `_row_norms` and the planner, there, the reductions of
    proc-b's and self-learning's sweeps (`_dropout`, `_keep_first_max`),
    and every reducer the sweep hands stripes to, each recorded by its
    name: BLI's gold ranks (multi-gold, under cosine and CSLS), the row
    argmaxes of a rank-deficient proc-b round and the mutual argmaxes.
    That they run there is why none of them may be public."""
    modules = [clembed] + [importlib.import_module(f"clembed.{info.name}")
                           for info in pkgutil.iter_modules(clembed.__path__)]
    seen = set()

    def recording(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            seen.add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    publics = {fn: recording(fn) for module in modules[1:]
               for name, fn in vars(module).items()
               if not name.startswith("_") and inspect.isfunction(fn)
               and fn.__module__ == module.__name__}
    helper_threads = {name: set() for name in ("_row_norms", "_dropout",
                                                "_keep_first_max")}

    def recording_helper(name):
        helper = getattr(similarity, name)

        def wrapper(*args):
            helper_threads[name].add(threading.get_ident())
            return helper(*args)
        return wrapper

    reducer_threads = {}
    sweep = similarity._sweep

    def recording_sweep(queries, pool, metric, csls_n, r_pool, reduce,
                        *args):
        def recorded(rows, part, *arrays):
            reducer_threads.setdefault(reduce.__qualname__, set()).add(
                threading.get_ident())
            reduce(rows, part, *arrays)
        return sweep(queries, pool, metric, csls_n, r_pool, recorded, *args)

    aligned = build_aligned_matrices(noisy_pair.train_lex, noisy_pair.src,
                                     noisy_pair.tgt)
    multi_gold = make_lexicon(list(noisy_pair.test_lex)
                              + [("w0400", "w0001"), ("w0400", "w0450")])
    with contextlib.ExitStack() as stack:
        for module in modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in publics:
                    stack.enter_context(
                        mock.patch.object(module, name, publics[value]))
        stack.enter_context(cell_budget(3000))
        stack.enter_context(tiles(3))
        stack.enter_context(threads(2))
        for name in helper_threads:
            stack.enter_context(mock.patch.object(similarity, name,
                                                  recording_helper(name)))
        stack.enter_context(mock.patch.object(similarity, "_sweep",
                                              recording_sweep))
        pair = supervised.align_rcsls(aligned, noisy_pair.src.matrix,
                                      noisy_pair.tgt.matrix,
                                      RcslsConfig(neighborhood=5, epochs=2))
        for metric in ("cosine", "csls"):
            bli_evaluate(pair, noisy_pair.src, noisy_pair.tgt, multi_gold,
                         metric=metric)
        # a 10-pair seed in 20 dimensions is rank-deficient: a sweep each way
        deficient = supervised.align_proc_b(
            noisy_pair.src, noisy_pair.tgt,
            make_lexicon(noisy_pair.train_lex[:10]), iters=2, search_cap=300)
        # a 40-pair seed in 20 dimensions has full rank: one forward sweep
        boot = supervised.align_proc_b(
            noisy_pair.src, noisy_pair.tgt,
            make_lexicon(noisy_pair.train_lex[:40]), iters=2, search_cap=300,
            metric="csls", csls_n=4)
        # the first round drops out 90% of the scores
        unsupervised.self_learn(
            noisy_pair.src, noisy_pair.tgt,
            make_lexicon(noisy_pair.train_lex[:40]),
            SelfLearnConfig(vocab_cap=300, max_rounds=1, seed=5))
    assert boot.metadata["dict_sizes"][-1] > 40
    assert deficient.metadata["dict_sizes"][-1] > 10
    assert seen == {threading.get_ident()}
    assert sorted(reducer_threads) == [
        "_gold_ranks.<locals>.rank", "_row_argmax.<locals>.<lambda>",
        "mutual_argmax_pairs.<locals>.reduce"]
    for name, idents in reducer_threads.items():
        assert threading.get_ident() not in idents, name
    # the sweep's tiles took their row norms (`_row_norms`, and through it
    # the planner), their argmaxes and their dropout on the worker threads
    for name, idents in helper_threads.items():
        assert idents - {threading.get_ident()}, name


# --- the sweep's tiles against the row-block sweep ----------------------------------

TILES = (1, 3, similarity._TILE)


def tiles(width):
    return mock.patch.object(similarity, "_TILE", width)


def oracle_swept(queries, pool, metric="cosine", csls_n=10):
    return np.vstack([s for _, s in oracle_similarity_sweep(
        queries, pool, metric, csls_n)])


def sweep_consumers(pair, spiral):
    """What every consumer of the sweep makes of the fixtures: BLI under
    both metrics, proc-b under CSLS, self-learning with its random dropout
    under cosine, ICP, and the mutual pairs of a CSLS sweep."""
    proc = align_proc(build_aligned_matrices(pair.train_lex, pair.src,
                                             pair.tgt))
    queries, pool = pair.src.matrix @ proc.w_src, pair.tgt.matrix
    return {
        "bli-cosine": bli_evaluate(proc, pair.src, pair.tgt, pair.test_lex),
        "bli-csls": bli_evaluate(proc, pair.src, pair.tgt, pair.test_lex,
                                 metric="csls", csls_n=5),
        "pairs": similarity.mutual_argmax_pairs(queries, pool, "csls", 3),
        "proc-b": align_proc_b(pair.src, pair.tgt,
                               make_lexicon(pair.train_lex[:10]), iters=3,
                               search_cap=450, metric="csls", csls_n=4),
        "self-learn": self_learn(
            pair.src, pair.tgt, vecmap_seed(pair.src, pair.tgt, cap=300),
            SelfLearnConfig(vocab_cap=300, max_rounds=16, seed=5)),
        "icp": align_icp(spiral[0], spiral[1], IcpConfig(
            pca_dim=5, top_n_words=300, restarts=2, max_iters=5, seed=1)),
    }


@pytest.fixture(scope="module")
def oracle_consumers(noisy_pair, spiral_pair):
    """The consumers on the row-block sweep, reduced and dropped out by the
    oracles in this thread: BLI's gold ranks, proc-b's row argmaxes in its
    rank-deficient rounds and the induced dictionaries."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(similarity, "_gold_ranks",
                                              oracle_swept_gold_ranks))
        stack.enter_context(mock.patch.object(similarity, "_row_argmax",
                                              oracle_row_argmax))
        for module in (similarity, supervised, unsupervised):
            stack.enter_context(mock.patch.object(
                module, "mutual_argmax_pairs", oracle_induced))
        return sweep_consumers(noisy_pair, spiral_pair)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("width", TILES)
def test_sweep_consumers_match_the_row_block_oracle(
        noisy_pair, spiral_pair, oracle_consumers, width, workers):
    with tiles(width), threads(workers):
        got = sweep_consumers(noisy_pair, spiral_pair)
    for name in ("bli-cosine", "bli-csls", "pairs"):
        assert got[name] == oracle_consumers[name], name
    for name in ("proc-b", "self-learn", "icp"):
        assert_same_pair(got[name], oracle_consumers[name])
    assert len(got["pairs"]) > 200


@st.composite
def tiled_sweep_cases(draw):
    """Exact rows, with a pool drawn from a few base rows, one of them
    copied across the first tile boundary (or to the end of a pool that
    is one tile)."""
    dim = draw(st.integers(1, 4))
    width = draw(st.sampled_from(TILES))
    queries = draw(exact_rows(dim, 1, 8))
    base = draw(exact_rows(dim, 1, 5))
    pool = base[draw(st.lists(st.integers(0, len(base) - 1), min_size=1,
                              max_size=9))]
    at = min(width, len(pool))
    pool = np.insert(pool, at, pool[at - 1], axis=0)
    metric = draw(st.sampled_from(["cosine", "csls"]))
    return queries, pool, metric, draw(st.integers(1, 4)), width, at


def assert_induced_as_the_oracle(queries, pool, metric, csls_n, keep_prob,
                                 seed, sweep=oracle_similarity_sweep):
    """The pairs, the best scores and the blocks after the dropout that
    `mutual_argmax_pairs` takes are, bit for bit, those that the oracles
    make of `sweep`'s blocks in this thread (`oracle_dropout`,
    `oracle_block_mutual_pairs`): of the row-block oracle's by default."""
    pairs, best, got, blocks = induced(queries, pool, metric, csls_n,
                                       keep_prob, np.random.default_rng(seed))
    want_best = np.empty(len(queries))
    want = list(oracle_dropout(sweep(queries, pool, metric, csls_n),
                               want_best, keep_prob,
                               np.random.default_rng(seed)))
    assert [rows.start for rows in blocks] == [rows.start for rows, _ in want]
    assert np.array_equal(got, np.vstack([s for _, s in want]))
    assert np.array_equal(best, want_best)
    assert pairs == oracle_block_mutual_pairs(want, len(pool))
    assert pairs == mutual_argmax_pairs(queries, pool, metric, csls_n, None,
                                        keep_prob,
                                        np.random.default_rng(seed))


@settings(max_examples=300, deadline=None)
@given(tiled_sweep_cases(), st.sampled_from(CELL_BUDGETS), st.integers(1, 3),
       st.sampled_from([1.0, 0.5]), st.integers(0, 2 ** 16))
def test_tiled_sweep_is_bit_equal_to_the_oracle_on_exact_rows(
        case, cells, workers, keep_prob, seed):
    queries, pool, metric, csls_n, width, at = case
    with tiles(width), threads(workers), \
            cell_budget(cells):
        got = swept(queries, pool, metric, csls_n)
        pairs = mutual_argmax_pairs(queries, pool, metric, csls_n)
        # the dropout path, with the reductions it feeds
        assert_induced_as_the_oracle(queries, pool, metric, csls_n,
                                     keep_prob, seed)
    want = oracle_swept(queries, pool, metric, csls_n)
    assert np.array_equal(got, want)
    assert np.array_equal(got[:, at - 1], got[:, at])
    assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))
    assert np.all(got.argmax(axis=1) != at)      # the copy's tie goes lower
    assert pairs == oracle_block_mutual_pairs(
        oracle_similarity_sweep(queries, pool, metric, csls_n), len(pool))


@st.composite
def gold_rank_cases(draw):
    """Exact query rows (none at all too, under CSLS a sweep that skips its
    hubness pass) against a pool of a few base rows, one copied across the
    first tile boundary, and for each query 0-3 distinct gold columns:
    queries with no gold, and multi-gold queries in runs that stripes of
    1-3 rows cut (a budget of 32 * stripe rows * pool rows cells; blocks of
    8 stripes, or of up to `_MIN_ROWS` rows) or one-row blocks (a budget of
    one cell) cut."""
    dim = draw(st.integers(1, 4))
    width = draw(st.sampled_from(TILES))
    metric = draw(st.sampled_from(["cosine", "csls"]))
    n = draw(st.integers(0, 24))
    queries = draw(exact_rows(dim, n, n)) if n else np.empty((0, dim))
    base = draw(exact_rows(dim, 1, 5))
    pool = base[draw(st.lists(st.integers(0, len(base) - 1), min_size=1,
                              max_size=9))]
    at = min(width, len(pool))
    pool = np.insert(pool, at, pool[at - 1], axis=0)
    golds = [draw(st.lists(st.integers(0, len(pool) - 1), max_size=3,
                           unique=True)) for _ in range(n)]
    stripe = draw(st.sampled_from([0, 1, 2, 3]))
    cells = 32 * stripe * len(pool) if stripe else 1
    return (queries, pool, golds, metric, draw(st.integers(1, 4)), width,
            cells, draw(st.sampled_from([1, similarity._MIN_ROWS])))


def gold_lexicon(golds, n_pool):
    """The test dictionary of `golds` between words q<i> and p<j>, with an
    out-of-vocabulary source word and an out-of-vocabulary gold."""
    pairs = [(f"q{i}", f"p{g}") for i, cols in enumerate(golds) for g in cols]
    return make_lexicon(pairs + [("q-oov", "p0"), ("q0", f"p{n_pool}")])


@settings(max_examples=300, deadline=None)
@given(gold_rank_cases(), st.integers(1, 3))
def test_gold_ranks_and_row_argmaxes_match_the_block_oracles(case, workers):
    """The reductions that replaced a consumer's block loop in the calling
    thread, on the sweep's threads, give what those loops give on the
    row-block oracle's scores (`oracle_similarity_sweep`), exactly: the gold
    ranks (`similarity._gold_ranks`), also through `bli_evaluate` with
    out-of-vocabulary queries, and the row argmaxes
    (`similarity._row_argmax`)."""
    queries, pool, golds, metric, csls_n, width, cells, min_rows = case
    with tiles(width), threads(workers), cell_budget(cells), \
            mock.patch.object(similarity, "_MIN_ROWS", min_rows):
        ranks = similarity._gold_ranks(queries, pool, golds, metric, csls_n,
                                       None)
        argmaxes = similarity._row_argmax(queries, pool, metric, csls_n)
        want_ranks = oracle_swept_gold_ranks(queries, pool, golds, metric,
                                             csls_n)
        want_argmaxes = oracle_row_argmax(queries, pool, metric, csls_n)
        if any(golds):
            spaces = [WordVectorSpace(tuple(f"{side}{i}"
                                            for i in range(len(rows))), rows)
                      for side, rows in (("q", queries), ("p", pool))]
            args = (identity_pair(queries.shape[1]), *spaces,
                    gold_lexicon(golds, len(pool)), metric, csls_n)
            got = bli_evaluate(*args)
            with mock.patch.object(similarity, "_gold_ranks",
                                   oracle_swept_gold_ranks):
                assert got == bli_evaluate(*args)
            # q0's gold beyond the pool is dropped, or is its only one
            assert got.oov_skipped == 1 + (not golds[0])
    assert ranks == want_ranks
    assert [len(r) for r in ranks] == [len(cols) for cols in golds]
    assert np.array_equal(argmaxes, want_argmaxes)
    assert argmaxes.dtype == np.intp


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 60),
       st.integers(1, 40), st.sampled_from(TILES),
       st.sampled_from(["cosine", "csls"]))
def test_tiled_sweep_scores_do_not_depend_on_the_thread_count(
        seed, n, m, dim, width, metric):
    rng = np.random.default_rng(seed)
    queries, pool = rng.standard_normal((n, dim)), rng.standard_normal((m, dim))
    results = []
    for workers in (1, 2, 3):
        with tiles(width), threads(workers):
            results.append(swept(queries, pool, metric, 3))
    for got in results[1:]:
        assert np.array_equal(got, results[0])
    assert np.allclose(results[0], oracle_swept(queries, pool, metric, 3),
                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("width", TILES)
def test_tiled_sweep_on_a_fixture_does_not_depend_on_the_thread_count(
        noisy_pair, width):
    queries, pool = projected(noisy_pair)
    results = []
    for workers in (1, 2, 3):
        with tiles(width), threads(workers), \
                cell_budget(2 ** 16):
            results.append(swept(queries, pool, "csls", 5))
    for got in results[1:]:
        assert np.array_equal(got, results[0])


def test_tiled_sweep_under_thread_stress():
    """Eight threads, more than the cores, switching every 10 us: a tile's
    or a stripe's scratch handed to two threads at once, a tile left
    unfilled or a stripe reduced twice would change the scores, the dropout,
    the pairs, the gold ranks (1-3 golds a row, written into one shared
    array) or the row argmaxes."""
    queries, pool = duplicated_pool(8)
    golds = [list(range(i % 3 + 1)) for i in range(len(queries))]
    # stripes of one row, in blocks of 9
    with tiles(3), threads(1), cell_budget(3000):
        want = swept(queries, pool, "csls", 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with tiles(3), threads(8), cell_budget(3000):
            for _ in range(5):
                assert np.array_equal(swept(queries, pool, "csls", 5), want)
            # generic rows: the oracles reduce the library's own blocks,
            # whose scores the loop above holds to one thread's
            for seed in range(2):
                assert_induced_as_the_oracle(queries, pool, "csls", 5, 0.5,
                                             seed, swept_blocks)
            assert similarity._gold_ranks(queries, pool, golds, "csls", 5,
                                          None) == oracle_swept_gold_ranks(
                queries, pool, golds, "csls", 5, sweep=lambda *args: [
                    (slice(0, len(queries)), want)])
            assert np.array_equal(
                similarity._row_argmax(queries, pool, "csls", 5),
                want.argmax(axis=1))
    finally:
        sys.setswitchinterval(interval)


def assert_oracle_scores(queries, pool, width, metric):
    """The sweep's scores: the oracle's bit for bit where one tile holds
    the pool, within the last bits of a product otherwise."""
    with tiles(width), threads(2):
        got = swept(queries, pool, metric, 3)
    want = oracle_swept(queries, pool, metric, 3)
    if width >= len(pool):
        assert np.array_equal(got, want)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))
    return got


@pytest.mark.parametrize("width", TILES)
@pytest.mark.parametrize("metric", ["cosine", "csls"])
def test_tiled_sweep_keeps_a_zero_pool_row(width, metric):
    rng = np.random.default_rng(11)
    queries, pool = rng.standard_normal((40, 6)), rng.standard_normal((30, 6))
    pool[7] = 0.0
    got = assert_oracle_scores(queries, pool, width, metric)
    if metric == "cosine":
        assert np.all(got[:, 7] == 0.0)


@pytest.mark.parametrize("width", TILES)
@pytest.mark.parametrize("side", ["pool", "queries"])
def test_tiled_sweep_rescales_rows_below_the_tiny_norm(width, side):
    """A nonzero row whose squares underflow: its side goes through
    `unit_rows` whole, and its scores are those of its unit row."""
    rng = np.random.default_rng(12)
    queries, pool = rng.standard_normal((40, 6)), rng.standard_normal((30, 6))
    tiny = pool if side == "pool" else queries
    tiny[4] *= 1e-165
    assert similarity._unit_side(tiny)[1] is None
    got = assert_oracle_scores(queries, pool, width, "cosine")
    assert np.all(np.abs(got) <= 1.0 + 1e-15)


@pytest.mark.parametrize("workers", [2, 3])
def test_a_tile_exception_reaches_the_caller(workers):
    rng = np.random.default_rng(13)
    queries, pool = rng.standard_normal((300, 5)), rng.standard_normal((50, 5))
    gather = similarity._gather

    def failing(out, matrix, index, divisors):
        if matrix is pool and index[0] >= 21:
            raise RuntimeError(f"tile at row {index[0]}")
        return gather(out, matrix, index, divisors)

    before = threading.active_count()
    with tiles(3), threads(workers), \
            mock.patch.object(similarity, "_gather", failing):
        with pytest.raises(RuntimeError, match="tile at row"):
            swept(queries, pool)
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [2, 3])
def test_a_reducer_exception_reaches_the_caller(workers):
    """An exception in a stripe's reduction is raised by the sweep: no
    later block (of 60 rows here) is reduced, and no thread outlives it."""
    rng = np.random.default_rng(14)
    queries, pool = rng.standard_normal((300, 5)), rng.standard_normal((50, 5))
    reduced = []

    def failing(rows, part):
        reduced.append(rows)
        if rows.start >= 120:
            raise RuntimeError(f"stripe at row {rows.start}")

    before = threading.active_count()
    with tiles(3), threads(workers), cell_budget(3000):
        with pytest.raises(RuntimeError, match="stripe at row"):
            similarity._sweep(queries, pool, "csls", 3, None, failing)
    assert threading.active_count() == before
    assert max(rows.stop for rows in reduced) <= 180


# --- memory ------------------------------------------------------------------------

@pytest.mark.parametrize("metric", ["cosine", "csls"])
def test_mutual_nearest_neighbors_stays_within_its_blocks(metric):
    """2000 x 2000 float64 is 32 MB; blocks of 2**16 cells are 0.5 MB."""
    rng = np.random.default_rng(0)
    src = rng.standard_normal((2000, 20))
    tgt = src + 0.01 * rng.standard_normal((2000, 20))
    with cell_budget(2 ** 16):
        tracemalloc.start()
        try:
            pairs = capped_mutual_pairs(src, tgt, 20000, metric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(pairs) > 1900
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("queries", [1024, 4096])
def test_mutual_argmax_pairs_adds_under_a_quarter_of_a_block(queries):
    """Blocks of 1024 x 1024 float64 (8 MB) under a 2**22-cell budget: the
    reductions add under a quarter of a block to the sweep's own peak: the
    column argmax may not copy a block, or a stripe of one, as np.argmax
    over axis 0 would."""
    rng = np.random.default_rng(3)
    pool = rng.standard_normal((1024, 20))
    near = pool[rng.integers(0, len(pool), queries)]
    near += 0.01 * rng.standard_normal(near.shape)
    with cell_budget(2 ** 22):
        blocks = swept_blocks(near, pool)
        # the sweep with a reducer that does nothing
        _, sweep_peak = traced(similarity._sweep, near, pool, "cosine", 10,
                               None, lambda rows, part: None)
        pairs, peak = traced(mutual_argmax_pairs, near, pool)
    assert len(blocks) == queries // 1024
    assert pairs == oracle_mutual_argmax_pairs(np.vstack([s for _, s in blocks]))
    assert peak - sweep_peak <= blocks[0][1].nbytes / 4


def traced(fn, *args, **kwargs):
    """fn's result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("metric", ["cosine", "csls"])
def test_sweep_blocks_share_one_buffer(metric):
    """130 queries in blocks of 40 rows (as many as 4 * 4000 bytes hold
    against 50 pool rows): each block, the short last one too, is written
    into the first one's memory, which every stripe the reducer gets is a
    view of."""
    rng = np.random.default_rng(8)
    queries = rng.standard_normal((130, 6))
    pool = rng.standard_normal((50, 6))
    got, blocks, bases = np.empty((130, 50)), [], []

    def copy(rows, part):
        bases.append(part.base)
        got[rows] = part

    with cell_budget(2000):
        similarity._sweep(queries, pool, metric, 3, None, copy,
                          meanwhile=blocks.append)
    assert [rows.stop - rows.start for rows in blocks] == [40, 40, 40, 10]
    assert bases[0].shape == (40, 50)
    assert all(base is bases[0] for base in bases)
    assert np.allclose(got, oracle_similarity_matrix(queries, pool, metric, 3),
                       rtol=0, atol=1e-12)


def test_sweep_blocks_keep_min_rows_within_the_cell_budget():
    """A budget of 8000 bytes against 50 pool rows: it holds 20 float64
    rows, but a sweep's block keeps as many rows as 4 * 8000 bytes hold (80)
    up to `_MIN_ROWS`, where a plan with no floor does not."""
    rng = np.random.default_rng(9)
    queries = rng.standard_normal((200, 6))
    pool = rng.standard_normal((50, 6))
    with cell_budget(4000):
        heights = [len(scores) for _, scores in swept_blocks(queries, pool)]
        assert similarity._blocks(200, 8 * 50,
                                  similarity._BLOCK_BYTES)[0] == slice(0, 20)
    assert heights == [80, 80, 40]


class RecordingRng:
    """A Generator that records the `out` of each call to `random`."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.outs = []

    def random(self, *args, out=None, **kwargs):
        self.outs.append(out)
        return self.rng.random(*args, out=out, **kwargs)


def test_dropout_draws_one_matrix_into_one_block_buffer():
    """650 x 500 scores in blocks of 100 rows (400 KB; a budget of 50000
    cells) and a last of 50: the draws are those of one 650 x 500 draw,
    each block's made into the same buffer, and the dropout adds under 1.5
    blocks to the peak of the reductions without it, nothing near the
    2.6 MB matrix."""
    rng = np.random.default_rng(9)
    queries, pool = rng.standard_normal((650, 8)), rng.standard_normal((500, 8))
    with cell_budget(50000):
        blocks = swept_blocks(queries, pool)
        scores = np.vstack([s for _, s in blocks])
        _, dropped, got, _ = induced(queries, pool, keep_prob=0.3,
                                     rng=np.random.default_rng(3))
        _, plain_peak = traced(mutual_argmax_pairs, queries, pool,
                               best=np.empty(650))
        best, recorder = np.empty(650), RecordingRng(3)
        _, peak = traced(mutual_argmax_pairs, queries, pool, best=best,
                         keep_prob=0.3, rng=recorder)
    draws = np.random.default_rng(3).random(scores.shape)
    assert [len(s) for _, s in blocks] == [100] * 6 + [50]
    assert np.array_equal(got, np.where(draws < 0.3, scores, 0.0))
    assert np.array_equal(best, scores.max(axis=1))
    assert np.array_equal(dropped, best)
    assert len(recorder.outs) == 7
    assert all(out is not None and np.shares_memory(out, recorder.outs[0])
               for out in recorder.outs)
    assert peak - plain_peak < 1.5 * blocks[0][1].nbytes


def test_align_dlv_holds_one_similarity_matrix():
    """match_cap 1000: the 1000 x 1000 float64 cosines are 8 MB. Beside
    them dlv holds a candidate mask of a byte a cell (1 MB), blocks of 8
    rows and a few 1000 x 20 arrays (0.16 MB each)."""
    import scipy.optimize  # noqa: F401  (imported before the tracing)
    pair_fixture = RotatedPair(sigma=0.05, n=1000)
    seed = make_lexicon(pair_fixture.train_lex[:30])
    with cell_budget(2 ** 16):
        pair, peak = traced(align_dlv, pair_fixture.src, pair_fixture.tgt,
                            seed, em_iters=2, match_cap=1000)
    n = 1000
    assert min(pair.metadata["match_sizes"]) > 900
    assert peak < 1.4 * 8 * n * n


def test_vecmap_seed_holds_under_two_profile_matrices(noisy_pair):
    """cap 500: one 500 x 500 float64 profile matrix is 2 MB; blocks of
    32 rows are 0.125 MB."""
    with cell_budget(2 ** 14):
        got, peak = traced(vecmap_seed, noisy_pair.src, noisy_pair.tgt,
                           cap=500)
    assert got == oracle_vecmap_seed(noisy_pair.src, noisy_pair.tgt, cap=500)
    assert peak < 2 * 8 * 500 * 500


def test_csls_hubness_stays_within_its_blocks():
    """2000 x 2000 float64 is 32 MB; blocks of 2**16 cells are 0.25 MB."""
    rng = np.random.default_rng(1)
    vectors = rng.standard_normal((2000, 20))
    pool = rng.standard_normal((2000, 20))
    with cell_budget(2 ** 16):
        tracemalloc.start()
        try:
            got = csls_hubness(vectors, pool, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert np.allclose(got, oracle_csls_hubness(vectors, pool, 10),
                       rtol=0, atol=1e-15)
    assert peak < 4 * 2 ** 20


def test_csls_hubness_holds_one_float32_copy_of_its_pool():
    """4096 x 64 rows on one thread: a float64 copy of either side is 2 MiB,
    the float32 pool 1 MiB, and a screen block of 2 * 2**16 cells
    0.5 MiB."""
    rng = np.random.default_rng(6)
    vectors = rng.standard_normal((4096, 64))
    pool = rng.standard_normal((4096, 64))
    with cell_budget(2 ** 16), threads(1):
        tracemalloc.start()
        try:
            got = csls_hubness(vectors, pool, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert np.allclose(got, oracle_csls_hubness(vectors, pool, 10),
                       rtol=0, atol=1e-15)
    assert peak < 2.5 * 2 ** 20


def oracle_shuffling_test(labels_a, labels_b, iterations, seed):
    """The one iterations x n draw of sign flips that `shuffling_test` now
    takes in row blocks."""
    a = np.asarray(labels_a, dtype=float)
    b = np.asarray(labels_b, dtype=float)
    observed = abs(float(np.mean(a) - np.mean(b)))
    swaps = np.random.default_rng(seed).random((iterations, a.size)) < 0.5
    null = np.abs((np.where(swaps, -1.0, 1.0) * (a - b)).mean(axis=1))
    return (int(np.sum(null >= observed - 1e-15)) + 1) / (iterations + 1)


@pytest.mark.parametrize("cells", [7, 1000, 2 ** 24])
def test_shuffling_test_matches_its_one_shot_draw(cells):
    """One row per block, 20 rows per block and a single block."""
    rng = np.random.default_rng(4)
    a = rng.random(50)
    b = a + 0.05 * rng.standard_normal(50)
    with cell_budget(cells):
        for seed in range(3):
            assert shuffling_test(a, b, iterations=1001, seed=seed) == \
                oracle_shuffling_test(a, b, 1001, seed)


def test_shuffling_test_stays_within_its_blocks():
    """20000 x 200 float64 is 32 MB; blocks of 81 rows are 130 KB."""
    rng = np.random.default_rng(2)
    a = rng.random(200)
    b = a + 0.01 * rng.standard_normal(200)
    with cell_budget(2 ** 16):
        tracemalloc.start()
        try:
            got = shuffling_test(a, b, iterations=20000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert got == oracle_shuffling_test(a, b, 20000, 3)
    assert peak < 4 * 2 ** 20
