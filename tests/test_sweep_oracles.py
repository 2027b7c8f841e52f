"""The row-blocked similarity sweep against the dense code it replaced.

The oracles below are the earlier implementations: `oracle_csls_matrix` and
`oracle_similarity_matrix` build the full queries x pool matrix (the CSLS
hubness terms from its rows and its columns), `oracle_mutual_argmax_pairs`
takes both argmaxes of that matrix, and `oracle_align_proc_b`,
`oracle_self_learn` and `oracle_rcsls_neighbor_sets` are the aligner steps
that used them. The library scores queries in row blocks
(`similarity.similarity_sweep`, `similarity.row_blocks`) and reduces the
blocks one at a time. Indices, pairs and projection pairs must be equal, not
close, at three cell budgets, so that sweeps split into many blocks.

On generic vectors a one-row block (a matrix-vector product) and the
transposed product that gives the pool-side hubness may differ from the
dense matrix in the last bits, so there only scores are compared to a
tolerance. The hypothesis inputs are built so that every score is computed
exactly (zero, signed-axis and +-1 vectors, duplicated rows; see
`conftest.exact_row`): then equal scores are equal in both codes,
and the tie rule is what gets compared.

`oracle_csls_hubness` and `oracle_topk_mean` are the float64 hubness and
the full-width partition it used. The library screens hubness in float32
and rescores in float64 (`similarity.csls_hubness`), and selects top-n
columns through strided group maxima (`similarity.topk_mean`): on generic
inputs the means may differ from the oracles only in the last bits of a
float64 sum, and on exact inputs not at all.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clembed import similarity
from clembed.lexicon import (build_aligned_matrices, make_lexicon,
                             mutual_nearest_neighbors)
from clembed.linalg import solve_procrustes
from clembed.projection import ProjectionPair
from clembed.similarity import (cosine_matrix, csls_hubness,
                                mutual_argmax_pairs, mutual_pairs, row_blocks,
                                similarity_sweep, topk_mean, unit_rows)
from clembed.supervised import align_proc, align_proc_b, rcsls_neighbor_sets
from clembed.unsupervised import (IcpConfig, SelfLearnConfig, align_icp,
                                  self_learn, vecmap_seed)
from conftest import exact_rows

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
                           for rows in row_blocks(len(vu), len(pu))])


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


def oracle_mutual_argmax_pairs(sim):
    return mutual_pairs(np.argmax(sim, axis=1), np.argmax(sim, axis=0))


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
        lex = lex.union(induced)
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
    keep_prob = cfg.keep_prob_init
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
        unchanged = induced.pairs == lex.pairs
        if keep_prob >= 1.0 and unchanged:
            stable_rounds += 1
            if stable_rounds >= 3:
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


def oracle_rcsls_neighbor_sets(w, x_s, x_t, src_pool, tgt_pool, n):
    proj = x_s @ w
    sim_t = proj @ tgt_pool.T
    nt = np.argpartition(sim_t, sim_t.shape[1] - n, axis=1)[:, -n:]
    sim_s = x_t @ (src_pool @ w).T
    ns = np.argpartition(sim_s, sim_s.shape[1] - n, axis=1)[:, -n:]
    return nt, ns


def swept(queries, pool, metric="cosine", csls_n=10):
    """The sweep's blocks stacked back into one matrix, with their rows."""
    blocks = list(similarity_sweep(queries, pool, metric, csls_n))
    rows = [r for r, _ in blocks]
    assert [r.start for r in rows] == [0] + [r.stop for r in rows[:-1]]
    return np.vstack([s for _, s in blocks])


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
    with mock.patch.object(similarity, "_CELLS", cells):
        got = swept(queries, pool, metric, 5)
        pairs = mutual_argmax_pairs(
            similarity_sweep(queries, pool, metric, 5), len(pool))
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
        next(similarity_sweep(a, a, "euclid"))


@pytest.mark.parametrize("cells", CELL_BUDGETS)
@pytest.mark.parametrize("metric", ["cosine", "csls"])
def test_mutual_nearest_neighbors_match_oracle(noisy_pair, metric, cells):
    queries, pool = projected(noisy_pair)
    words = noisy_pair.src.words
    with mock.patch.object(similarity, "_CELLS", cells):
        got = mutual_nearest_neighbors(queries, pool, words, words,
                                       metric=metric, search_cap=400, csls_n=3)
    sim = oracle_similarity_matrix(queries[:400], pool[:400], metric, 3)
    want = make_lexicon((words[i], words[j])
                        for i, j in oracle_mutual_argmax_pairs(sim))
    assert got == want


# --- the aligners on fixtures ----------------------------------------------------

@pytest.mark.parametrize("cells", CELL_BUDGETS)
@pytest.mark.parametrize("metric", ["cosine", "csls"])
def test_proc_b_matches_oracle(noisy_pair, metric, cells):
    seed = make_lexicon(noisy_pair.train_lex.pairs[:10])
    with mock.patch.object(similarity, "_CELLS", cells):
        new = align_proc_b(noisy_pair.src, noisy_pair.tgt, seed, iters=3,
                           search_cap=450, metric=metric, csls_n=4)
    old = oracle_align_proc_b(noisy_pair.src, noisy_pair.tgt, seed, iters=3,
                              search_cap=450, metric=metric, csls_n=4)
    assert_same_pair(new, old)
    assert new.metadata["dict_sizes"][-1] > 10


@pytest.mark.parametrize("cells", CELL_BUDGETS)
@pytest.mark.parametrize("metric", ["cosine", "csls"])
def test_self_learn_matches_oracle(noisy_pair, metric, cells):
    seed_lex = vecmap_seed(noisy_pair.src, noisy_pair.tgt, cap=300)
    # keep_prob starts low and reaches 1, so rounds with and without the
    # random dropout both run
    cfg = SelfLearnConfig(vocab_cap=300, metric=metric, csls_n=4,
                          max_rounds=12, keep_prob_init=0.25, seed=5)
    with mock.patch.object(similarity, "_CELLS", cells):
        new = self_learn(noisy_pair.src, noisy_pair.tgt, seed_lex, cfg)
    old = oracle_self_learn(noisy_pair.src, noisy_pair.tgt, seed_lex, cfg)
    assert_same_pair(new, old)


@pytest.mark.parametrize("cells", CELL_BUDGETS)
def test_rcsls_neighbor_sets_match_oracle(noisy_pair, cells):
    aligned = build_aligned_matrices(noisy_pair.train_lex, noisy_pair.src,
                                     noisy_pair.tgt)
    x_s, x_t = unit_rows(aligned.x_src), unit_rows(aligned.x_tgt)
    src_pool = unit_rows(noisy_pair.src.matrix)
    tgt_pool = unit_rows(noisy_pair.tgt.matrix)
    w = solve_procrustes(x_s, x_t)
    with mock.patch.object(similarity, "_CELLS", cells):
        got = rcsls_neighbor_sets(w, x_s, x_t, src_pool, tgt_pool, 7)
    want = oracle_rcsls_neighbor_sets(w, x_s, x_t, src_pool, tgt_pool, 7)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("cells", CELL_BUDGETS[:2])
def test_icp_is_independent_of_the_cell_budget(spiral_pair, cells):
    src, tgt, _ = spiral_pair
    cfg = IcpConfig(pca_dim=5, top_n_words=300, restarts=2, max_iters=5,
                    seed=1)
    with mock.patch.object(similarity, "_CELLS", cells):
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
    with mock.patch.object(similarity, "_CELLS", cells):
        got = swept(queries, pool, metric, csls_n)
        pairs = mutual_argmax_pairs(
            similarity_sweep(queries, pool, metric, csls_n), len(pool))
    want = oracle_similarity_matrix(queries, pool, metric, csls_n)
    assert np.array_equal(got, want)
    assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))
    assert pairs == oracle_mutual_argmax_pairs(want)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(
    st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
             min_size=1, max_size=9),
    st.integers(1, 4))))
def test_mutual_argmax_pairs_match_dense_on_integer_blocks(case):
    rows, step = case
    sim = np.array(rows, dtype=float)
    blocks = [(slice(i, i + step), sim[i:i + step])
              for i in range(0, len(sim), step)]
    assert mutual_argmax_pairs(blocks, sim.shape[1]) == \
        oracle_mutual_argmax_pairs(sim)


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
    with mock.patch.object(similarity, "_CELLS", cells):
        got = rcsls_neighbor_sets(*case)
    want = oracle_rcsls_neighbor_sets(*case)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


# --- hubness and top-n means -----------------------------------------------------

def count_fallback_rows():
    """Patch the float64 fallback of `csls_hubness` to count the rows it gets."""
    rows = []
    exact = similarity._exact_hubness

    def counted(vectors, pool, k):
        rows.append(len(vectors))
        return exact(vectors, pool, k)
    return rows, mock.patch.object(similarity, "_exact_hubness", counted)


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
    with mock.patch.object(similarity, "_CELLS", cells), patch:
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
    with mock.patch.object(similarity, "_CELLS", cells):
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


# --- memory ------------------------------------------------------------------------

@pytest.mark.parametrize("metric", ["cosine", "csls"])
def test_mutual_nearest_neighbors_stays_within_its_blocks(metric):
    """2000 x 2000 float64 is 32 MB; blocks of 2**16 cells are 0.5 MB."""
    rng = np.random.default_rng(0)
    src = rng.standard_normal((2000, 20))
    tgt = src + 0.01 * rng.standard_normal((2000, 20))
    words = tuple(f"w{i}" for i in range(2000))
    with mock.patch.object(similarity, "_CELLS", 2 ** 16):
        tracemalloc.start()
        try:
            lex = mutual_nearest_neighbors(src, tgt, words, words,
                                           metric=metric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(lex) > 1900
    assert peak < 4 * 2 ** 20


def test_csls_hubness_stays_within_its_blocks():
    """2000 x 2000 float64 is 32 MB; blocks of 2**16 cells are 0.25 MB."""
    rng = np.random.default_rng(1)
    vectors = rng.standard_normal((2000, 20))
    pool = rng.standard_normal((2000, 20))
    with mock.patch.object(similarity, "_CELLS", 2 ** 16):
        tracemalloc.start()
        try:
            got = csls_hubness(vectors, pool, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert np.allclose(got, oracle_csls_hubness(vectors, pool, 10),
                       rtol=0, atol=1e-15)
    assert peak < 4 * 2 ** 20
