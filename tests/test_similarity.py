import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clembed import similarity, supervised, unsupervised
from clembed.embeddings import WordVectorSpace, save_text_embeddings
from clembed.evaluation import (average_precision_from_ranks, bli_evaluate,
                                shuffling_test)
from clembed.lexicon import make_lexicon
from clembed.projection import ProjectionPair
from clembed.similarity import (cosine_matrix, csls_hubness,
                                mutual_argmax_pairs, mutual_pairs, unit_rows)
from conftest import (capped_mutual_pairs, cell_budget, oracle_row_blocks,
                      swept, topk_mean)


def brute_hubness(vectors, pool, n):
    """Mean of the n largest cosines, one vector at a time."""
    return np.array([
        np.mean(sorted(cosine_matrix(v[None, :], pool)[0])[::-1][:n])
        for v in vectors])


def brute_force_csls(query, candidates, pool_for_cand, pool_for_query, n):
    """Direct transcription of the definition, one pair at a time."""
    qu = unit_rows(query)
    cu = unit_rows(candidates)
    r_cand = brute_hubness(candidates, pool_for_cand, n)
    r_query = brute_hubness(query, pool_for_query, n)
    out = np.empty((len(query), len(candidates)))
    for i in range(len(query)):
        for j in range(len(candidates)):
            out[i, j] = 2.0 * float(qu[i] @ cu[j]) - r_cand[j] - r_query[i]
    return out


def test_unit_rows_norms():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((6, 5))
    u = unit_rows(m)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0)


def test_unit_rows_keeps_zero_rows():
    m = np.array([[0.0, 0.0], [3.0, 4.0]])
    u = unit_rows(m)
    assert np.allclose(u[0], 0.0)
    assert np.allclose(u[1], [0.6, 0.8])


def test_unit_rows_scales_rows_whose_squares_underflow():
    m = np.array([[1e-170, -1e-170], [6.285e-161, 0.0], [0.0, 0.0], [3.0, 4.0]])
    u = unit_rows(m)
    assert np.allclose(np.linalg.norm(u[[0, 1, 3]], axis=1), 1.0, rtol=0,
                       atol=1e-15)
    assert np.array_equal(u[2], [0.0, 0.0])


@pytest.mark.parametrize("cells", [1, 2 ** 12, 2 ** 24])
def test_unit_rows_equals_the_whole_matrix_quotient(cells):
    """Norms taken in row blocks (one row, 4 rows of 300 and one block)
    give the bits of the whole matrix's np.linalg.norm; rows of zeros and
    rows whose squares underflow go through as before."""
    rng = np.random.default_rng(5)
    m = rng.standard_normal((301, 300)) * rng.uniform(1e-3, 1e3, (301, 1))
    m[[7, 150]] = 0.0
    m[200] = 1e-170
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    want = m / np.where(norms < similarity._TINY_NORM, 1.0, norms)
    want[200] = 1 / np.sqrt(300)
    with cell_budget(cells):
        got = unit_rows(m)
    assert np.array_equal(got, want)


def test_unit_rows_squares_one_block_at_a_time():
    """20000 x 50 rows: np.linalg.norm, which squares its whole input into
    a temporary, sees blocks of at most 2**19 cells (4 MB), not the 8 MB
    matrix."""
    m = np.random.default_rng(6).standard_normal((20000, 50))
    with mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm) as norm:
        got = unit_rows(m)
    assert max(call.args[0].size for call in norm.call_args_list) <= 2 ** 19
    assert np.array_equal(got, m / np.linalg.norm(m, axis=1, keepdims=True))


def test_cosine_matrix_matches_loop():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 6))
    b = rng.standard_normal((5, 6))
    got = cosine_matrix(a, b)
    for i in range(4):
        for j in range(5):
            want = a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
            assert got[i, j] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("k", [1, 3, 7])
def test_topk_mean_matches_sort(k):
    rng = np.random.default_rng(2)
    s = rng.standard_normal((5, 7))
    want = np.mean(np.sort(s, axis=1)[:, ::-1][:, :k], axis=1)
    assert np.allclose(topk_mean(s, k), want)


def test_csls_hubness_is_topk_mean_of_cosines():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((4, 5))
    pool = rng.standard_normal((9, 5))
    got = csls_hubness(v, pool, 3)
    want = topk_mean(cosine_matrix(v, pool), 3)
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("n", [1, 5, 10])
def test_bli_csls_ranks_match_brute_force(n):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((15, 8))
    y = rng.standard_normal((12, 8))
    w, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    pair = ProjectionPair(w_src=w, w_tgt=np.eye(8), orthogonal_src=True,
                          method="test")
    src = WordVectorSpace(tuple(f"s{i}" for i in range(15)), x)
    tgt = WordVectorSpace(tuple(f"t{j}" for j in range(12)), y)
    golds = {i: [i, (3 * i + 5) % 12] for i in range(6)}
    lex = make_lexicon((f"s{i}", f"t{j}") for i, js in golds.items() for j in js)
    res = bli_evaluate(pair, src, tgt, lex, metric="csls", csls_n=n)
    scores = brute_force_csls(x[:6] @ w, y, x @ w, y, n)
    assert res.query_count == 6
    for i, rec in enumerate(res.records):
        order = list(np.argsort(-scores[i], kind="stable"))
        ranks = [order.index(j) + 1 for j in golds[i]]
        assert rec.best_rank == min(ranks)
        assert rec.average_precision == average_precision_from_ranks(ranks)


def test_csls_sweep_consistent_with_scores():
    rng = np.random.default_rng(5)
    src = rng.standard_normal((7, 6))
    tgt = rng.standard_normal((9, 6))
    got = swept(src, tgt, "csls", 3)
    want = brute_force_csls(src, tgt, src, tgt, 3)
    assert np.allclose(got, want, atol=1e-12)


def test_similarity_sweep_dispatch():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((5, 3))
    assert np.allclose(swept(a, b, "cosine"), cosine_matrix(a, b))
    assert np.allclose(swept(a, b, "csls", csls_n=2),
                       brute_force_csls(a, b, a, b, 2))
    with pytest.raises(ValueError):
        swept(a, b, "euclid")


def test_mutual_argmax_pairs_hand_case():
    """Against the unit axes a query's scores are its unit row: row 2's
    best is column 0, but column 0 prefers row 0: not mutual."""
    sim = np.array([[0.9, 0.1, 0.0],
                    [0.2, 0.8, 0.3],
                    [0.7, 0.0, 0.1]])
    assert mutual_argmax_pairs(sim, np.eye(3)) == [(0, 0), (1, 1)]
    with cell_budget(1):                         # one row per block
        assert mutual_argmax_pairs(sim, np.eye(3)) == [(0, 0), (1, 1)]


def test_mutual_argmax_identity_on_self_similarity():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((10, 4))
    pairs = mutual_argmax_pairs(m, m)
    assert pairs == [(i, i) for i in range(10)]


@settings(max_examples=300, deadline=None)
@given(arrays(np.int64, st.tuples(st.integers(1, 12), st.integers(1, 12)),
              elements=st.integers(-2, 2), fill=st.nothing()), st.data())
def test_mutual_argmax_pairs_hold_the_first_global_maximum(queries, data):
    """The first maximum in row-major order is its row's lowest-index
    argmax and its column's lowest-index argmax, so a finite score matrix
    always has a mutual pair, in any blocking and tiling and with entries
    zeroed by self_learn's dropout. Against the unit axes the scores are
    the queries' unit rows, exactly."""
    queries = queries.astype(float)
    keep_prob = data.draw(st.sampled_from([1.0, 0.5, 0.2]))
    seed = data.draw(st.integers(0, 2 ** 16))
    scores = unit_rows(queries)
    if keep_prob < 1.0:
        draws = np.random.default_rng(seed).random(scores.shape)
        scores = np.where(draws < keep_prob, scores, 0.0)
    first = np.unravel_index(np.argmax(scores), scores.shape)
    with cell_budget(data.draw(st.sampled_from([1, 100, 2 ** 24]))), \
            mock.patch.object(similarity, "_TILE",
                              data.draw(st.integers(1, 4))):
        pairs = mutual_argmax_pairs(queries, np.eye(queries.shape[1]),
                                    keep_prob=keep_prob,
                                    rng=np.random.default_rng(seed))
    assert tuple(map(int, first)) in pairs


def test_mutual_nearest_neighbors_identity():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((12, 4))
    assert capped_mutual_pairs(m, m, 20000) == [(i, i) for i in range(12)]


def test_mutual_nearest_neighbors_respects_cap():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((12, 4))
    assert capped_mutual_pairs(m, m, 5) == [(i, i) for i in range(5)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda m: st.tuples(
    st.lists(st.integers(0, m - 1), min_size=0, max_size=8),
    st.lists(st.integers(0, 7), min_size=m, max_size=m))))
def test_mutual_pairs_match_list_comprehension(case):
    fwd, bwd = case
    fwd = np.array(fwd, dtype=np.intp)
    bwd = np.array(bwd, dtype=np.intp)
    want = [(i, int(j)) for i, j in enumerate(fwd) if bwd[int(j)] == i]
    assert mutual_pairs(fwd, bwd) == want


def test_csls_hubness_rejects_nonpositive_neighbours():
    with pytest.raises(ValueError, match="at least 1 neighbour"):
        csls_hubness(np.eye(3), np.eye(3), 0)


def test_blocks_size_rows_by_the_byte_budget():
    # rows per block = max(1, budget // row bytes, min(floor, 4 * budget //
    # row bytes)), the last block clipped to the rows
    blocks = similarity._blocks
    assert blocks(300, 8 * 2 ** 14, 2 ** 25) == [slice(0, 256),
                                                 slice(256, 300)]
    assert blocks(300, 8 * 2 ** 14, 2 ** 25, 128) == \
        blocks(300, 8 * 2 ** 14, 2 ** 25)
    assert blocks(150, 8 * 2 ** 16, 2 ** 25) == [slice(0, 64), slice(64, 128),
                                                 slice(128, 150)]
    assert blocks(300, 8 * 2 ** 16, 2 ** 25, 128) == [
        slice(0, 128), slice(128, 256), slice(256, 300)]
    assert blocks(20, 8 * 2 ** 21, 2 ** 25, 128) == [slice(0, 8), slice(8, 16),
                                                     slice(16, 20)]
    assert blocks(2, 8 * 2 ** 30, 2 ** 25) == [slice(0, 1), slice(1, 2)]
    assert blocks(2, 8 * 2 ** 30, 2 ** 25, 128) == [slice(0, 1), slice(1, 2)]
    assert blocks(5, 8, 2 ** 25) == [slice(0, 5)]
    assert blocks(7, 0, 10) == [slice(0, 7)]
    assert blocks(0, 800, 2 ** 25) == []


# --- every block plan, pinned to the formulas the planner replaced -----------

PLAN_ROWS = (0, 1, 2, 3, 7, 100, 127, 128, 129, 209, 1000, 4096, 20000,
             200000)
PLAN_WIDTHS = (1, 2, 3, 7, 31, 32, 33, 50, 300, 1000, 4096, 20000, 32768,
               32769, 131072, 131073, 200000, 10 ** 6)


def budget():
    return similarity._BLOCK_BYTES


def oracle_save_blocks(n_rows, width):
    """The save's format blocks: at most 2**15 values, in rows of at most
    1024."""
    step = min(1024, max(1, 2 ** 15 // width))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def oracle_map_blocks(n_rows, pool_rows, workers):
    """The top-n screen's row blocks by its formula of the cell budget."""
    cells = similarity._BLOCK_BYTES // 2
    per_thread = max(1, cells // workers // max(1, pool_rows))
    n_blocks = -(-n_rows // per_thread)
    n_blocks += -n_blocks % workers
    step = min(similarity._MAX_ROWS,
               max(1, -(-n_rows // max(1, n_blocks)),
                   min(similarity._MIN_ROWS, n_rows // workers,
                       2 * cells // max(1, pool_rows))))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def clipped(blocks, n_rows):
    return [slice(rows.start, min(rows.stop, n_rows)) for rows in blocks]


def rows_of(n, width, seed=0):
    return np.random.default_rng(seed).standard_normal((n, width))


def save_rows(n, width, path):
    space = WordVectorSpace(tuple(f"w{i}" for i in range(n)), rows_of(n, width))
    save_text_embeddings(space, path / "saved.txt")


# Each caller of `similarity._blocks`: (the row bytes, budget and floor of
# its blocks of rows `width` wide; its plan by the formula it had before
# the planner; a run of it on (n, width) rows; that n and width). The run
# must ask the planner for exactly those settings.
PLAN_SITES = {
    "sweep blocks": (
        lambda width: (8 * width, budget(), similarity._MIN_ROWS),
        lambda n, width: oracle_row_blocks(n, width, similarity._MIN_ROWS),
        lambda n, width, _: swept(rows_of(n, 3), rows_of(width, 3)),
        (5, 3)),
    # every score of a row against a pool of equal rows ties: all n rows
    # fall back
    "top-n fallback": (
        lambda width: (8 * width, budget(), similarity._MIN_ROWS),
        lambda n, width: oracle_row_blocks(n, width, similarity._MIN_ROWS),
        lambda n, width, _: csls_hubness(rows_of(n, 3), np.ones((width, 3)),
                                         2),
        (5, 20)),
    "vecmap_seed": (
        lambda width: (8 * width, budget(), 1),
        oracle_row_blocks,
        lambda n, width, _: unsupervised.vecmap_seed(
            *[WordVectorSpace(tuple(f"w{i}" for i in range(n)),
                              rows_of(n, 3, seed)) for seed in (1, 2)],
            cap=width),
        (6, 6)),
    "shuffling_test": (
        lambda width: (8 * width, budget(), 1),
        oracle_row_blocks,
        lambda n, width, _: shuffling_test(rows_of(1, width)[0],
                                           rows_of(1, width, 1)[0], n),
        (150, 4)),
    "_row_norms": (
        lambda width: (8 * width, budget() // 8, 1),
        lambda n, width: oracle_row_blocks(n, 8 * width),
        lambda n, width, _: similarity._row_norms(rows_of(n, width)),
        (5, 3)),
    "float32 pool fill": (
        lambda width: (8 * width, budget() // 8, 1),
        lambda n, width: oracle_row_blocks(n, 8 * width),
        lambda n, width, _: similarity._top_neighbors(
            rows_of(2, width), rows_of(n, width, 1), 1),
        (5, 3)),
    "_candidate_mask": (
        lambda width: (8 * width, budget() // 8, 1),
        lambda n, width: oracle_row_blocks(n, 8 * width),
        lambda n, width, _: supervised._candidate_mask(rows_of(n, width)),
        (5, 3)),
    # its blocks are the sweep's
    "mutual_argmax_pairs": (
        lambda width: (8 * width, budget(), similarity._MIN_ROWS),
        lambda n, width: oracle_row_blocks(n, width, similarity._MIN_ROWS),
        lambda n, width, _: mutual_argmax_pairs(rows_of(n, 3),
                                                rows_of(width, 3)),
        (5, 3)),
    # the stripes of a block that a thread finishes: CSLS's terms here
    "sweep stripes": (
        lambda width: (8 * width, budget() // 8, 1),
        lambda n, width: oracle_row_blocks(n, 8 * width),
        lambda n, width, _: swept(rows_of(n, 3), rows_of(width, 3), "csls",
                                  2),
        (5, 3)),
    "save_text_embeddings": (
        lambda width: (8 * width, budget() // 128, 1),
        oracle_save_blocks,
        save_rows,
        (5, 3)),
}


@pytest.mark.parametrize("site", PLAN_SITES)
def test_every_block_plan_is_the_one_before_the_planner(site, tmp_path):
    """At the library's budget, over rows 0-200k and widths 1-10**6, each
    caller's plan is the one its earlier formula made, the last block
    clipped; the save's, for rows of 32 values or more (its earlier cap of
    1024 rows binds only below that). And each caller asks for it."""
    settings, oracle, run, (n, width) = PLAN_SITES[site]
    for n_rows in PLAN_ROWS:
        for w in PLAN_WIDTHS:
            if site == "save_text_embeddings" and w < 32:
                continue
            assert similarity._blocks(n_rows, *settings(w)) == \
                clipped(oracle(n_rows, w), n_rows), (n_rows, w)
    with mock.patch.object(similarity, "_blocks",
                           wraps=similarity._blocks) as planner:
        run(n, width, tmp_path)
    asked = [call.args + (1,) * (4 - len(call.args))
             for call in planner.call_args_list]
    assert (n, *settings(width)) in asked


class Planned(Exception):
    """Raised in place of running a plan's blocks."""


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_blocks_plan_is_the_one_before_the_planner(workers):
    """The top-n screen's blocks (`_top_neighbors`), over the same grid,
    are the ones its own formula made, the last block clipped, with one
    scratch set per thread that has a block. No block is run: the scratch
    is allocated and not touched, and the kernel stops at its threads."""
    planned, sets = [], []

    @contextlib.contextmanager
    def recording(scratch):
        sets.append(len(scratch))

        def run(fn, blocks):
            planned.extend(blocks)
            raise Planned
        yield run

    with mock.patch.object(similarity, "_threads", recording), \
            mock.patch.object(similarity, "_workers", lambda: workers):
        for n_rows in PLAN_ROWS:
            for w in PLAN_WIDTHS:
                planned.clear()
                sets.clear()
                with contextlib.suppress(Planned):
                    similarity._top_neighbors(np.ones((n_rows, 1)),
                                              np.ones((w, 1)), 1)
                want = clipped(oracle_map_blocks(n_rows, w, workers), n_rows)
                assert planned == want, (n_rows, w)
                assert sets == ([min(workers, len(want))] if want else []), \
                    (n_rows, w)


@pytest.mark.parametrize("metric", ["cosine", "csls"])
@pytest.mark.parametrize("n_queries", [1, 5, 79, 80, 81, 300])
def test_sweep_rows_tile_the_queries(metric, n_queries):
    """The row blocks cover range(len(queries)) once, in order, and none
    stops past its end, also where one block would hold more rows than
    there are queries (blocks of 80 rows here); the stripes reduce every
    row once (`swept`)."""
    queries, pool = rows_of(n_queries, 4), rows_of(50, 4, 1)
    rows = []
    with cell_budget(4000):
        swept(queries, pool, metric, 3, blocks=rows)
    assert all(block.stop <= n_queries for block in rows)
    assert [i for block in rows for i in range(block.start, block.stop)] == \
        list(range(n_queries))


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (4, 3),
              elements=st.floats(-10, 10, allow_nan=False)))
def test_cosine_bounded(m):
    c = cosine_matrix(m, m)
    assert np.all(c <= 1.0 + 1e-9)
    assert np.all(c >= -1.0 - 1e-9)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (5, 4),
              elements=st.floats(-100, 100, allow_nan=False)))
@example(np.full((5, 4), 6.285e-161))       # squares underflow to subnormals
@example(np.full((5, 4), 1e-170))            # squares underflow to 0
def test_unit_rows_idempotent(m):
    once = unit_rows(m)
    assert np.allclose(unit_rows(once), once, atol=1e-12)
