"""The batched BLI and CLIR rankers against the per-query code they replaced.

`oracle_bli_evaluate` and `oracle_clir_run` are the earlier implementations:
one query at a time, a stable argsort of the whole row, and each gold item's
rank read off the inverse permutation (BLI) or off a walk down the ranking
(CLIR). The library scores queries in row blocks and counts ranks with
`gold_ranks`. Results must be equal, not close, including on inputs built to
tie: small-integer vectors, duplicated target rows and documents, zero
vectors, multi-gold and out-of-vocabulary queries. Every BLI comparison
also runs with a row budget small enough to split the queries into many
blocks.

The tie-heavy inputs are built so that every score is computed exactly
(see `conftest.exact_row`): then equal scores are equal in both codes and
the tie rule is what gets compared. With generic vectors, scores that are equal in
real arithmetic can round differently in the old matrix-vector and the new
matrix-matrix product (a fused multiply-add leaves a 1e-17 residue where the
other gives 0), and on larger shapes BLAS can even give identical rows
different last-bit scores depending on where they sit in the matrix. The
old code did not keep such ties either, so they are not compared.
"""

from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clembed import similarity
from clembed.clir import (ClirRun, DocumentCollection, TermWeighting,
                          aggregate_text, clir_run, idf_weighting)
from clembed.embeddings import WordVectorSpace
from clembed.evaluation import (BliResult, QueryRecord, P_AT_KS,
                                average_precision_from_ranks, bli_evaluate,
                                gold_ranks)
from clembed.lexicon import build_aligned_matrices, make_lexicon
from clembed.projection import ProjectionPair, identity_pair
from clembed.similarity import topk_mean, unit_rows
from clembed.supervised import align_proc
from conftest import exact_rows

CELL_BUDGETS = (1, 40, 2 ** 24)


def oracle_bli_evaluate(pair, src_space, tgt_space, test_lex,
                        metric="cosine", csls_n=10) -> BliResult:
    grouped = OrderedDict()
    for src, tgt in test_lex.pairs:
        grouped.setdefault(src, []).append(tgt)
    tgt_proj = pair.project_tgt(tgt_space.matrix)
    tgt_unit = unit_rows(tgt_proj)
    if metric == "csls":
        src_proj_full = pair.project_src(src_space.matrix)
        cand_hub = topk_mean(unit_rows(tgt_proj) @ unit_rows(src_proj_full).T,
                             csls_n)
    records = []
    oov = 0
    for src_word, golds in grouped.items():
        gold_idx = [tgt_space.index[g] for g in golds if g in tgt_space]
        if src_word not in src_space or not gold_idx:
            oov += 1
            continue
        query = src_space.vector(src_word) @ pair.w_src
        q = query / (np.linalg.norm(query) or 1.0)
        if metric == "cosine":
            scores = tgt_unit @ q
        else:
            scores = 2.0 * (unit_rows(tgt_proj) @ q) - cand_hub - 0.0
        order = np.argsort(-scores, kind="stable")
        positions = np.empty(len(scores), dtype=int)
        positions[order] = np.arange(1, len(scores) + 1)
        ranks = [int(positions[g]) for g in gold_idx]
        records.append(QueryRecord(
            source=src_word,
            golds=tuple(tgt_space.words[g] for g in gold_idx),
            best_rank=min(ranks),
            average_precision=average_precision_from_ranks(ranks)))
    if not records:
        raise ValueError("bli_evaluate: no usable queries")
    aps = [r.average_precision for r in records]
    p_at_k = {k: float(np.mean([r.best_rank <= k for r in records]))
              for k in P_AT_KS}
    return BliResult(records=tuple(records), map_score=float(np.mean(aps)),
                     p_at_k=p_at_k, query_count=len(records), oov_skipped=oov)


def oracle_clir_run(collection, pair, query_space, doc_space,
                    weighting) -> ClirRun:
    doc_ids = sorted(collection.docs)
    doc_vecs = np.vstack([
        aggregate_text(collection.docs[d], doc_space, weighting) @ pair.w_tgt
        for d in doc_ids])
    norms = np.linalg.norm(doc_vecs, axis=1)
    doc_unit = doc_vecs / np.where(norms == 0.0, 1.0, norms)[:, None]
    relevant_by_query = {}
    for qid, did in collection.qrels:
        relevant_by_query.setdefault(qid, set()).add(did)
    rankings = {}
    relevant_ranks = []
    aps = []
    skipped = 0
    empty_queries = []
    for qid in sorted(collection.queries):
        qvec = aggregate_text(collection.queries[qid], query_space,
                              weighting) @ pair.w_src
        qnorm = np.linalg.norm(qvec)
        if qnorm == 0.0:
            empty_queries.append(qid)
            scores = np.zeros(len(doc_ids))
        else:
            scores = doc_unit @ (qvec / qnorm)
        order = np.argsort(-scores, kind="stable")
        ranked = tuple(doc_ids[i] for i in order)
        rankings[qid] = ranked
        relevant = relevant_by_query.get(qid)
        if not relevant:
            skipped += 1
            continue
        hits = 0
        precisions = []
        for rank, did in enumerate(ranked, start=1):
            if did in relevant:
                hits += 1
                precisions.append(hits / rank)
                relevant_ranks.append((qid, did, rank))
        aps.append(float(np.mean(precisions)))
    if not aps:
        raise ValueError("clir_run: no query has relevant documents")
    return ClirRun(rankings=rankings, relevant_ranks=tuple(relevant_ranks),
                   map_score=float(np.mean(aps)), scored_queries=len(aps),
                   skipped_queries=skipped, empty_queries=tuple(empty_queries))


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return ("raised", str(exc))


def assert_same(new, old):
    assert new == old
    if isinstance(new, BliResult):
        for a, b in zip(new.records, old.records):
            assert type(a.best_rank) is type(b.best_rank) is int


# --- gold_ranks -----------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(
    st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
             min_size=1, max_size=5),
    st.lists(st.integers(0, m - 1), min_size=5, max_size=5))))
def test_gold_ranks_match_stable_argsort(case):
    rows, cols = case
    scores = np.array(rows, dtype=float)
    cols = cols[:len(rows)]
    want = [int(np.flatnonzero(np.argsort(-row, kind="stable") == c)[0]) + 1
            for row, c in zip(scores, cols)]
    assert gold_ranks(scores, cols).tolist() == want


# --- BLI -------------------------------------------------------------------------

@pytest.mark.parametrize("cells", CELL_BUDGETS)
@pytest.mark.parametrize("metric", ["cosine", "csls"])
def test_bli_matches_oracle_on_fixture(noisy_pair, metric, cells):
    aligned = build_aligned_matrices(noisy_pair.train_lex, noisy_pair.src,
                                     noisy_pair.tgt)
    pair = align_proc(aligned)
    # multi-gold and out-of-vocabulary queries on top of the test split
    test = make_lexicon(list(noisy_pair.test_lex.pairs)
                        + [("w0400", "w0001"), ("w0400", "w0450"),
                           ("w0010", "zzz"), ("zzz", "w0402")])
    with mock.patch.object(similarity, "_CELLS", cells):
        new = bli_evaluate(pair, noisy_pair.src, noisy_pair.tgt, test,
                           metric=metric, csls_n=5)
    old = oracle_bli_evaluate(pair, noisy_pair.src, noisy_pair.tgt, test,
                              metric=metric, csls_n=5)
    assert new.oov_skipped == 2
    assert_same(new, old)


@st.composite
def bli_cases(draw):
    dim = draw(st.integers(1, 4))
    x = draw(exact_rows(dim, 1, 7))
    base = draw(exact_rows(dim, 1, 5))
    # target rows drawn with replacement from a few base rows: many duplicates
    y = base[draw(st.lists(st.integers(0, len(base) - 1), min_size=1,
                           max_size=9))]
    src = WordVectorSpace(tuple(f"s{i}" for i in range(len(x))), x)
    tgt = WordVectorSpace(tuple(f"t{j}" for j in range(len(y))), y)
    # a signed permutation keeps every projected unit vector exact
    perm = draw(st.permutations(range(dim)))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=dim,
                          max_size=dim))
    w = np.eye(dim)[list(perm)] * np.array(signs)
    pair = ProjectionPair(w_src=w, w_tgt=np.eye(dim), orthogonal_src=True,
                          method="test")
    src_words = st.sampled_from(list(src.words) + ["oov-s"])
    tgt_words = st.sampled_from(list(tgt.words) + ["oov-t"])
    lex = make_lexicon(draw(st.lists(st.tuples(src_words, tgt_words),
                                     min_size=1, max_size=12)))
    metric = draw(st.sampled_from(["cosine", "csls"]))
    return pair, src, tgt, lex, metric, draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(bli_cases(), st.sampled_from(CELL_BUDGETS))
def test_bli_matches_oracle_on_ties(case, cells):
    pair, src, tgt, lex, metric, csls_n = case
    with mock.patch.object(similarity, "_CELLS", cells):
        new = outcome(bli_evaluate, pair, src, tgt, lex, metric=metric,
                      csls_n=csls_n)
    old = outcome(oracle_bli_evaluate, pair, src, tgt, lex, metric=metric,
                  csls_n=csls_n)
    assert_same(new, old)


# --- CLIR ------------------------------------------------------------------------

VOCAB = ("apple", "banana", "cherry", "date")


@st.composite
def clir_cases(draw):
    dim = draw(st.integers(1, 3))
    space = WordVectorSpace(VOCAB, draw(exact_rows(dim, len(VOCAB), len(VOCAB))))
    words = st.sampled_from(VOCAB + ("oov",))
    # few distinct token bags for many documents: duplicated documents tie
    bags = draw(st.lists(st.lists(words, max_size=4), min_size=1, max_size=4))
    docs = {f"d{i}": tuple(draw(st.sampled_from(bags)))
            for i in range(draw(st.integers(1, 9)))}
    # one word, repeated, or none in vocabulary: the query vector is a signed
    # axis or zero, so each score is one exact document coordinate
    query_bags = st.one_of(
        st.tuples(st.sampled_from(VOCAB), st.integers(1, 3)).map(
            lambda t: (t[0],) * t[1]),
        st.lists(st.just("oov"), max_size=2).map(tuple))
    queries = {f"q{i}": draw(query_bags)
               for i in range(draw(st.integers(1, 5)))}
    qrels = frozenset(draw(st.lists(st.tuples(st.sampled_from(sorted(queries)),
                                              st.sampled_from(sorted(docs))),
                                    max_size=8)))
    collection = DocumentCollection(docs=docs, queries=queries, qrels=qrels)
    if draw(st.booleans()):
        weighting = idf_weighting(collection)
    else:
        weighting = TermWeighting(scheme="uniform")
    return collection, space, weighting


@settings(max_examples=300, deadline=None)
@given(clir_cases())
def test_clir_matches_oracle_on_ties(case):
    collection, space, weighting = case
    pair = identity_pair(space.dim)
    new = outcome(clir_run, collection, pair, space, space, weighting)
    old = outcome(oracle_clir_run, collection, pair, space, space, weighting)
    assert_same(new, old)


def test_clir_matches_oracle_on_fixture(noisy_pair):
    rng = np.random.default_rng(11)
    words = noisy_pair.src.words
    docs = {f"d{i:03d}": tuple(rng.choice(words, size=12)) for i in range(120)}
    queries = {f"q{i:02d}": tuple(rng.choice(words, size=4)) for i in range(30)}
    queries["q99"] = ("not-a-word",)                  # an empty query
    qrels = frozenset((q, f"d{int(j):03d}") for q in sorted(queries)[:25]
                      for j in rng.choice(120, size=3, replace=False))
    collection = DocumentCollection(docs=docs, queries=queries, qrels=qrels)
    aligned = build_aligned_matrices(noisy_pair.train_lex, noisy_pair.src,
                                     noisy_pair.tgt)
    pair = align_proc(aligned)
    weighting = idf_weighting(collection)
    new = clir_run(collection, pair, noisy_pair.src, noisy_pair.tgt, weighting)
    old = oracle_clir_run(collection, pair, noisy_pair.src, noisy_pair.tgt,
                          weighting)
    assert new.empty_queries == ("q99",)
    assert_same(new, old)
