import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from clembed.clir import (ClirRun, DocumentCollection, aggregate_texts,
                          clir_run, clir_significance, idf_weighting,
                          ingest_collection, tokenize, write_trec_run)
from clembed.embeddings import WordVectorSpace
from clembed.evaluation import paired_ttest
from clembed.lexicon import build_aligned_matrices
from clembed.projection import identity_pair
from clembed.supervised import align_proc


def oracle_clir_significance(run_a, run_b):
    """The earlier paired t-test on relevant-document ranks, with its own
    identical and constant-shift cases."""
    key = lambda triple: (triple[0], triple[1])
    ranks_a = {key(t): t[2] for t in run_a.relevant_ranks}
    ranks_b = {key(t): t[2] for t in run_b.relevant_ranks}
    assert ranks_a.keys() == ranks_b.keys()
    keys = sorted(ranks_a)
    a = np.array([ranks_a[k] for k in keys], dtype=float)
    b = np.array([ranks_b[k] for k in keys], dtype=float)
    diffs = a - b
    if not diffs.any():
        return 1.0
    if np.all(diffs == diffs[0]):
        return 0.0
    return float(stats.ttest_rel(a, b).pvalue)


def text_vector(tokens, space, idf):
    """The aggregate vector of one text."""
    return aggregate_texts([tokens], space, idf)[0]


def toy_collection():
    """Five docs, two queries, hand-checkable with axis-aligned vectors."""
    docs = {
        "d1": tokenize("apple apple banana"),
        "d2": tokenize("banana banana cherry"),
        "d3": tokenize("cherry cherry cherry"),
        "d4": tokenize("apple cherry"),
        "d5": tokenize("banana"),
    }
    queries = {"q1": tokenize("apple"), "q2": tokenize("banana cherry")}
    qrels = frozenset({("q1", "d1"), ("q1", "d4"), ("q2", "d2")})
    return DocumentCollection(docs=docs, queries=queries, qrels=qrels)


def toy_space():
    words = ("apple", "banana", "cherry")
    return WordVectorSpace(words, np.eye(3))


class TestTokenize:
    def test_lowercases_and_strips_punctuation(self):
        assert tokenize("Hello, World! foo-bar") == ("hello", "world",
                                                     "foobar")

    def test_drops_single_char_tokens(self):
        assert tokenize("a bb c dd") == ("bb", "dd")

    def test_unicode_punctuation(self):
        assert tokenize("«quote» café") == ("quote", "café")

    def test_empty(self):
        assert tokenize("  . ! ") == ()

    @staticmethod
    def oracle_tokenize(text):
        """One `unicodedata.category` call per character."""
        stripped = "".join(
            ch for ch in text if not unicodedata.category(ch).startswith("P"))
        return tuple(tok for tok in stripped.lower().split() if len(tok) > 1)

    @settings(max_examples=500, deadline=None)
    @given(st.text())
    def test_matches_per_character_oracle(self, text):
        assert tokenize(text) == self.oracle_tokenize(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(st.sampled_from("aZé ß\t\n.,-'«»\u2019\u00a0\u3001İ")))
    def test_matches_oracle_on_punctuation_and_spaces(self, text):
        assert tokenize(text) == self.oracle_tokenize(text)


class TestWeighting:
    def test_idf_is_ln_n_over_df(self):
        coll = toy_collection()
        idf = idf_weighting(coll)
        # "apple" appears in d1, d4 -> df 2 of 5 docs.
        assert idf["apple"] == pytest.approx(np.log(5 / 2))
        assert idf["banana"] == pytest.approx(np.log(5 / 3))

    def test_negative_idf_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            aggregate_texts([("apple",)], toy_space(),
                            {"apple": 1.0, "kiwi": -0.5})


class TestAggregate:
    def test_uniform_mean(self):
        space = toy_space()
        v = aggregate_texts([("apple", "banana")], space, None)
        assert np.allclose(v, [[0.5, 0.5, 0.0]])

    def test_idf_weighted_mean(self):
        space = toy_space()
        v = aggregate_texts([("apple", "banana")], space,
                            {"apple": 3.0, "banana": 1.0})
        assert np.allclose(v, [[0.75, 0.25, 0.0]])

    def test_unseen_token_weight_one(self):
        space = toy_space()
        v = aggregate_texts([("apple", "banana")], space, {"apple": 3.0})
        assert np.allclose(v, [[0.75, 0.25, 0.0]])

    def test_all_oov_gives_zero_vector(self):
        v = aggregate_texts([("zebra",), ("apple",)], toy_space(), None)
        assert np.allclose(v, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


class TestClirRun:
    def hand_map(self):
        """Exhaustive cosine scoring done independently of clir_run."""
        coll = toy_collection()
        space = toy_space()
        idf = idf_weighting(coll)
        doc_ids = sorted(coll.docs)
        aps = []
        for qid in sorted(coll.queries):
            q = text_vector(coll.queries[qid], space, idf)
            scores = []
            for did in doc_ids:
                d = text_vector(coll.docs[did], space, idf)
                denom = np.linalg.norm(q) * np.linalg.norm(d)
                scores.append(q @ d / denom if denom else 0.0)
            order = sorted(range(len(doc_ids)), key=lambda i: (-scores[i], i))
            ranked = [doc_ids[i] for i in order]
            relevant = {d for (qq, d) in coll.qrels if qq == qid}
            hits, precs = 0, []
            for rank, did in enumerate(ranked, 1):
                if did in relevant:
                    hits += 1
                    precs.append(hits / rank)
            aps.append(np.mean(precs))
        return float(np.mean(aps))

    def test_map_matches_hand_scoring(self):
        coll = toy_collection()
        run = clir_run(coll, identity_pair(3), toy_space(), toy_space(),
                       idf_weighting(coll))
        assert run.map_score == pytest.approx(self.hand_map(), abs=1e-12)
        assert run.scored_queries == 2

    def test_ties_break_by_doc_id(self):
        docs = {"d2": ("apple",), "d1": ("apple",)}
        coll = DocumentCollection(docs=docs, queries={"q": ("apple",)},
                                  qrels=frozenset({("q", "d2")}))
        run = clir_run(coll, identity_pair(3), toy_space(), toy_space(), None)
        assert run.rankings["q"] == ("d1", "d2")

    def test_empty_vocabulary_query_reported(self):
        coll = DocumentCollection(
            docs={"d1": ("apple",), "d2": ("banana",)},
            queries={"q1": ("zzz",), "q2": ("apple",)},
            qrels=frozenset({("q1", "d1"), ("q2", "d1")}))
        run = clir_run(coll, identity_pair(3), toy_space(), toy_space(),
                       idf_weighting(coll))
        assert run.empty_queries == ("q1",)

    def test_zero_query_ranks_by_doc_id(self):
        docs = {f"d{i}": (("apple",), ("banana",), ())[i % 3]
                for i in range(9)}
        coll = DocumentCollection(docs=docs, queries={"q": ("zzz",)},
                                  qrels=frozenset({("q", "d4")}))
        run = clir_run(coll, identity_pair(3), toy_space(), toy_space(),
                       idf_weighting(coll))
        assert run.rankings["q"] == tuple(sorted(docs))
        assert run.relevant_ranks == (("q", "d4", 5),)

    def test_duplicate_documents_tie_exactly(self, noisy_pair):
        """Document 0 duplicated as document 120 among 121 documents with
        generic vectors (d = 20): the copy follows the original in every
        ranking, for all queries at once and for each query alone, whose
        single score row would otherwise come from a matrix-vector product
        that can round the two copies differently."""
        rng = np.random.default_rng(11)
        words = noisy_pair.src.words
        docs = {f"d{i:03d}": tuple(rng.choice(words, size=12))
                for i in range(120)}
        docs["d120"] = docs["d000"]
        queries = {f"q{i:02d}": tuple(rng.choice(words, size=4))
                   for i in range(30)}
        pair = align_proc(build_aligned_matrices(
            noisy_pair.train_lex, noisy_pair.src, noisy_pair.tgt))
        runs = []
        for subset in [sorted(queries)] + [[q] for q in sorted(queries)]:
            coll = DocumentCollection(
                docs=docs, queries={q: queries[q] for q in subset},
                qrels=frozenset((q, "d120") for q in subset))
            runs.append(clir_run(coll, pair, noisy_pair.src, noisy_pair.tgt,
                                 None))
        for run in runs:
            for ranking in run.rankings.values():
                assert ranking.index("d120") == ranking.index("d000") + 1

    def test_qrel_referential_integrity(self):
        with pytest.raises(ValueError):
            DocumentCollection(docs={"d1": ("x",)}, queries={"q1": ("y",)},
                               qrels=frozenset({("q1", "ghost")}))


class TestSignificance:
    def test_identical_runs_p_one(self):
        coll = toy_collection()
        run = clir_run(coll, identity_pair(3), toy_space(), toy_space(),
                       idf_weighting(coll))
        assert clir_significance(run, run) == 1.0

    @staticmethod
    def run_with_ranks(ranks):
        triples = tuple((f"q{i // 3}", f"d{i}", r)
                        for i, r in enumerate(ranks))
        return ClirRun(rankings={}, relevant_ranks=triples, map_score=0.0,
                       scored_queries=len(ranks), skipped_queries=0,
                       empty_queries=())

    def test_matches_hand_computed_paired_t(self):
        a = [1, 4, 2, 9, 3, 7, 1, 12]
        b = [2, 3, 5, 14, 3, 9, 6, 13]
        d = np.subtract(a, b, dtype=float)
        t = d.mean() / (d.std(ddof=1) / np.sqrt(len(d)))
        want = 2 * stats.t.sf(abs(t), len(d) - 1)
        got = clir_significance(self.run_with_ranks(a), self.run_with_ranks(b))
        assert got == pytest.approx(want, rel=1e-12)
        # pairing matters: the unpaired test on the same ranks differs
        assert got != pytest.approx(stats.ttest_ind(a, b).pvalue, rel=1e-3)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40)),
                    min_size=2, max_size=12), st.randoms())
    def test_is_paired_ttest_on_ranks_sorted_by_query_and_doc(self, ranks,
                                                             random):
        keys = [(f"q{i % 3}", f"d{i}") for i in range(len(ranks))]
        runs = []
        for side in (0, 1):
            triples = [(*key, pair[side]) for key, pair in zip(keys, ranks)]
            random.shuffle(triples)
            runs.append(ClirRun(rankings={}, relevant_ranks=tuple(triples),
                                map_score=0.0, scored_queries=3,
                                skipped_queries=0, empty_queries=()))
        ordered = [pair for _, pair in sorted(zip(keys, ranks))]
        got = clir_significance(*runs)
        assert got == paired_ttest([a for a, _ in ordered],
                                   [b for _, b in ordered])
        assert got == oracle_clir_significance(*runs)

    @pytest.mark.parametrize("shared", [0, 1])
    def test_fewer_than_two_relevant_documents_rejected(self, shared):
        run = self.run_with_ranks([3] * shared)
        with pytest.raises(ValueError, match="at least 2 paired scores"):
            clir_significance(run, run)

    def test_constant_shift_p_zero(self):
        a = [1, 4, 2, 9]
        got = clir_significance(self.run_with_ranks(a),
                                self.run_with_ranks([r + 2 for r in a]))
        assert got == 0.0

    def test_mismatched_runs_rejected(self):
        coll = toy_collection()
        run = clir_run(coll, identity_pair(3), toy_space(), toy_space(),
                       idf_weighting(coll))
        other = ClirRun(rankings={}, relevant_ranks=(("qx", "d9", 1),),
                        map_score=1.0, scored_queries=1, skipped_queries=0,
                        empty_queries=())
        with pytest.raises(ValueError):
            clir_significance(run, other)


class TestTrecRoundTrip:
    def test_round_trip(self, tmp_path):
        coll = toy_collection()
        run = clir_run(coll, identity_pair(3), toy_space(), toy_space(),
                       idf_weighting(coll))
        p = tmp_path / "run.trec"
        write_trec_run(run, p)
        want = [[qid, "Q0", did, str(rank), f"{1 / rank:.6f}", "clembed"]
                for qid in sorted(run.rankings)
                for rank, did in enumerate(run.rankings[qid], start=1)]
        assert [line.split(" ") for line in
                p.read_text(encoding="utf-8").splitlines()] == want


def test_ingest_round_trip(tmp_path):
    (tmp_path / "docs.tsv").write_text(
        "d1\tApple pie recipe\nd2\tBanana split\n")
    (tmp_path / "queries.tsv").write_text("q1\tapple\n")
    (tmp_path / "qrels.txt").write_text("q1 0 d1 1\n")
    coll = ingest_collection(tmp_path / "docs.tsv", tmp_path / "queries.tsv",
                             tmp_path / "qrels.txt")
    assert coll.docs["d1"] == ("apple", "pie", "recipe")
    assert ("q1", "d1") in coll.qrels


def test_ingest_duplicate_doc_id(tmp_path):
    (tmp_path / "docs.tsv").write_text("d1\ta b\nd1\tc d\n")
    (tmp_path / "queries.tsv").write_text("q1\tx y\n")
    (tmp_path / "qrels.txt").write_text("")
    with pytest.raises(ValueError, match="duplicate"):
        ingest_collection(tmp_path / "docs.tsv", tmp_path / "queries.tsv",
                          tmp_path / "qrels.txt")


@pytest.mark.parametrize("ident", ["", "d 1", " d1", "d\x0b1", "d\u00a01"])
@pytest.mark.parametrize("side", ["docs", "queries"])
def test_ingest_rejects_an_id_run_trec_cannot_hold(tmp_path, side, ident):
    """run.trec's columns are split on whitespace, so an empty id or one
    holding whitespace would shift them; such an id is refused naming its
    file and line."""
    for name in ("docs", "queries"):
        second = ident if name == side else f"{name[0]}1"
        (tmp_path / f"{name}.tsv").write_text(
            f"{name[0]}0\ta b\n{second}\tc d\n", encoding="utf-8")
    (tmp_path / "qrels.txt").write_text("")
    with pytest.raises(ValueError) as exc:
        ingest_collection(tmp_path / "docs.tsv", tmp_path / "queries.tsv",
                          tmp_path / "qrels.txt")
    assert str(exc.value) == (f"{tmp_path / side}.tsv: line 2: id "
                              f"{ident!r} is empty or holds whitespace")
