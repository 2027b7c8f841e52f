import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clembed.embeddings import WordVectorSpace
from clembed.evaluation import average_precision_from_ranks, bli_evaluate
from clembed.lexicon import make_lexicon
from clembed.projection import ProjectionPair
from clembed.similarity import (cosine_matrix, csls_hubness,
                                mutual_argmax_pairs, mutual_pairs, row_blocks,
                                similarity_sweep, topk_mean, unit_rows)


def swept(queries, pool, metric="cosine", csls_n=10):
    """The sweep's row blocks stacked into one matrix."""
    return np.vstack([s for _, s in similarity_sweep(queries, pool, metric,
                                                     csls_n)])


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
    sim = np.array([[0.9, 0.1, 0.0],
                    [0.2, 0.8, 0.3],
                    [0.7, 0.0, 0.1]])
    # Row 2's best is column 0, but column 0 prefers row 0: not mutual.
    assert mutual_argmax_pairs([(slice(0, 3), sim)], 3) == [(0, 0), (1, 1)]
    one_row_blocks = [(slice(i, i + 1), sim[i:i + 1]) for i in range(3)]
    assert mutual_argmax_pairs(one_row_blocks, 3) == [(0, 0), (1, 1)]


def test_mutual_argmax_identity_on_self_similarity():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((10, 4))
    pairs = mutual_argmax_pairs(similarity_sweep(m, m), 10)
    assert pairs == [(i, i) for i in range(10)]


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


def test_row_blocks_size_rows_by_the_cell_budget():
    # rows per block = max(1, 2**24 // pool rows)
    assert row_blocks(5, 2 ** 23) == [slice(0, 2), slice(2, 4), slice(4, 6)]
    assert row_blocks(2, 2 ** 30) == [slice(0, 1), slice(1, 2)]
    assert row_blocks(5, 1) == [slice(0, 2 ** 24)]
    assert row_blocks(0, 100) == []


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
