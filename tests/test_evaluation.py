import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clembed.embeddings import WordVectorSpace
from clembed.evaluation import (average_precision_from_ranks, bli_evaluate,
                                bli_summary, bonferroni, paired_ttest,
                                rank_correlation, read_bli_report,
                                shuffling_test, write_bli_report)
from clembed.lexicon import make_lexicon
from clembed.projection import identity_pair


def test_average_precision_hand_values():
    assert average_precision_from_ranks([1]) == 1.0
    assert average_precision_from_ranks([2]) == 0.5
    # Three golds at ranks 1, 2, 4: (1/1 + 2/2 + 3/4) / 3.
    assert average_precision_from_ranks([1, 2, 4]) == \
        pytest.approx(0.9166666666666666, abs=1e-12)


def test_ap_order_insensitive():
    assert average_precision_from_ranks([4, 1, 2]) == \
        average_precision_from_ranks([1, 2, 4])


class TestBliEvaluate:
    def spaces(self):
        # Axis-aligned points: w0->(1,0,0), w1->(0,1,0), w2->(0,0,1).
        m = np.eye(3)
        src = WordVectorSpace(("a0", "a1", "a2"), m)
        tgt = WordVectorSpace(("b0", "b1", "b2"), m)
        return src, tgt

    def test_identity_projection_perfect(self):
        src, tgt = self.spaces()
        lex = make_lexicon([("a0", "b0"), ("a1", "b1")])
        res = bli_evaluate(identity_pair(3), src, tgt, lex)
        assert res.map_score == 1.0
        assert res.p_at_k[1] == 1.0
        assert res.query_count == 2

    def test_map_equals_mrr_for_single_gold(self, noisy_pair):
        from clembed.lexicon import build_aligned_matrices
        from clembed.supervised import align_proc
        aligned = build_aligned_matrices(noisy_pair.train_lex, noisy_pair.src,
                                         noisy_pair.tgt)
        res = bli_evaluate(align_proc(aligned), noisy_pair.src,
                           noisy_pair.tgt, noisy_pair.test_lex)
        mrr = np.mean([1.0 / r.best_rank for r in res.records])
        assert res.map_score == pytest.approx(mrr, abs=1e-12)

    def test_multi_gold_grouping(self):
        src, tgt = self.spaces()
        lex = make_lexicon([("a0", "b0"), ("a0", "b1")])
        res = bli_evaluate(identity_pair(3), src, tgt, lex)
        assert res.query_count == 1
        # Golds rank 1 and 2 among 3 candidates: AP = (1 + 1)/2 = 1 only if
        # b1 is second; with a0=(1,0,0), cos to b1 is 0 and ties with b2 at
        # 0, broken to the lower index, so ranks are 1, 2.
        assert res.records[0].average_precision == 1.0

    def test_oov_queries_skipped_and_counted(self):
        src, tgt = self.spaces()
        lex = make_lexicon([("a0", "b0"), ("zz", "b1"), ("a1", "qq")])
        res = bli_evaluate(identity_pair(3), src, tgt, lex)
        assert res.query_count == 1
        assert res.oov_skipped == 2

    def test_csls_metric_runs(self, noisy_pair):
        lex = make_lexicon(noisy_pair.test_lex.pairs[:20])
        from clembed.lexicon import build_aligned_matrices
        from clembed.supervised import align_proc
        aligned = build_aligned_matrices(noisy_pair.train_lex, noisy_pair.src,
                                         noisy_pair.tgt)
        res = bli_evaluate(align_proc(aligned), noisy_pair.src,
                           noisy_pair.tgt, lex, metric="csls")
        assert res.map_score >= 0.9

    def test_csls_needs_a_positive_neighbourhood(self):
        src, tgt = self.spaces()
        lex = make_lexicon([("a0", "b0")])
        with pytest.raises(ValueError, match="at least 1 neighbour"):
            bli_evaluate(identity_pair(3), src, tgt, lex, metric="csls",
                         csls_n=0)

    def test_success_threshold(self):
        src, tgt = self.spaces()
        lex = make_lexicon([("a0", "b0")])
        res = bli_evaluate(identity_pair(3), src, tgt, lex)
        assert res.successful


class TestStatistics:
    def test_paired_ttest_identical_is_one(self):
        assert paired_ttest([0.5, 0.6, 0.7], [0.5, 0.6, 0.7]) == 1.0

    def test_paired_ttest_constant_shift_is_zero(self):
        assert paired_ttest([1.0, 2.0, 3.0], [0.9, 1.9, 2.9]) == 0.0

    def test_paired_ttest_matches_scipy(self):
        from scipy import stats
        rng = np.random.default_rng(0)
        a = rng.random(30)
        b = rng.random(30)
        assert paired_ttest(a, b) == pytest.approx(
            stats.ttest_rel(a, b).pvalue)

    def test_bonferroni_exact(self):
        assert bonferroni(0.05, 5) == 0.01

    def test_bonferroni_validation(self):
        with pytest.raises(ValueError):
            bonferroni(0.0, 3)
        with pytest.raises(ValueError):
            bonferroni(0.05, 0)

    def test_shuffling_identical_inputs_near_one(self):
        p = shuffling_test([1.0, 0.0, 1.0], [1.0, 0.0, 1.0],
                           iterations=1000, seed=0)
        assert p == 1.0

    def test_shuffling_add_one_smoothing_floor(self):
        a = np.ones(40)
        b = np.zeros(40)
        p = shuffling_test(a, b, iterations=1000, seed=0)
        assert p == pytest.approx(1 / 1001)

    def test_rank_correlations(self):
        assert rank_correlation([1, 2, 3, 4], [2, 4, 6, 8]) == \
            pytest.approx(1.0)
        assert rank_correlation([1, 2, 3, 4], [10, 7, 4, 1],
                                kind="spearman") == pytest.approx(-1.0)
        with pytest.raises(ValueError):
            rank_correlation([1, 1, 1], [1, 2, 3])


def test_report_round_trip(tmp_path, noisy_pair):
    from clembed.lexicon import build_aligned_matrices
    from clembed.supervised import align_proc
    aligned = build_aligned_matrices(noisy_pair.train_lex, noisy_pair.src,
                                     noisy_pair.tgt)
    res = bli_evaluate(align_proc(aligned), noisy_pair.src, noisy_pair.tgt,
                       noisy_pair.test_lex)
    path = tmp_path / "report.tsv"
    write_bli_report(res, path)
    back = read_bli_report(path)
    assert [r.source for r in back] == [r.source for r in res.records]
    assert [r.best_rank for r in back] == [r.best_rank for r in res.records]
    summary = bli_summary(res)
    assert summary["map"] == res.map_score
    assert summary["successful"]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 50), min_size=1, max_size=8, unique=True))
def test_ap_in_unit_interval(ranks):
    ap = average_precision_from_ranks(ranks)
    assert 0.0 < ap <= 1.0
