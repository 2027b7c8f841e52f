import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clembed.embeddings import WordVectorSpace
from clembed.lexicon import (build_aligned_matrices, frequency_split,
                             load_lexicon, make_lexicon, save_lexicon)


def lex_of(n):
    return make_lexicon((f"s{i}", f"t{i}") for i in range(n))


def test_make_lexicon_dedupes_keeping_first():
    lex = make_lexicon([("a", "x"), ("a", "x"), ("a", "y"), ("b", "x")])
    assert lex == (("a", "x"), ("a", "y"), ("b", "x"))


def test_union_preserves_order():
    a = make_lexicon([("a", "x")])
    b = make_lexicon([("b", "y"), ("a", "x")])
    assert make_lexicon(a + b) == (("a", "x"), ("b", "y"))


def oracle_make_lexicon(pairs):
    """The pair-by-pair loop `make_lexicon` replaced."""
    seen = set()
    out = []
    for pair in pairs:
        pair = (str(pair[0]), str(pair[1]))
        if pair not in seen:
            seen.add(pair)
            out.append(pair)
    return tuple(out)


# a few values, so duplicates are common; 1 and "1" coerce to the same word
ITEMS = st.sampled_from(("a", "b", "1", "ü", "", 1, 2.5, None, True))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(ITEMS, ITEMS), max_size=30))
def test_make_lexicon_matches_the_loop(pairs):
    lex = make_lexicon(iter(pairs))
    assert lex == oracle_make_lexicon(pairs)
    assert all(type(s) is str and type(t) is str for s, t in lex)


def test_round_trip(tmp_path):
    lex = lex_of(5)
    p = tmp_path / "dict.txt"
    save_lexicon(lex, p)
    assert load_lexicon(p) == lex


def test_load_space_separated(tmp_path):
    p = tmp_path / "dict.txt"
    p.write_text("cat Katze\ndog Hund\n")
    assert load_lexicon(p) == (("cat", "Katze"), ("dog", "Hund"))


def test_load_prefers_tab(tmp_path):
    p = tmp_path / "dict.txt"
    p.write_text("new york\tNew York\n")
    assert load_lexicon(p) == (("new york", "New York"),)


def test_parse_error_reports_line(tmp_path):
    p = tmp_path / "dict.txt"
    p.write_text("cat Katze\nlonesome\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: line 2")):
        load_lexicon(p)


class TestFrequencySplit:
    def test_nested_prefixes_and_disjoint_test(self):
        lex = lex_of(100)
        trains, test = frequency_split(lex, train_sizes=[10, 40], test_size=30)
        assert trains[0] == lex[:10]
        assert trains[1] == lex[:40]
        assert test == lex[40:70]

    def test_capacity_error(self):
        with pytest.raises(ValueError):
            frequency_split(lex_of(20), train_sizes=[15], test_size=10)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True),
           st.integers(1, 20))
    def test_property_nesting(self, sizes, test_size):
        lex = lex_of(80)
        trains, test = frequency_split(lex, train_sizes=sizes,
                                       test_size=test_size)
        by_size = dict(zip(sizes, trains))
        ordered = sorted(sizes)
        for small, big in zip(ordered, ordered[1:]):
            assert by_size[big][:small] == by_size[small]
        assert not set(by_size[max(sizes)]) & set(test)


class TestBuildAlignedMatrices:
    def space(self, words, seed):
        rng = np.random.default_rng(seed)
        return WordVectorSpace(tuple(words),
                               rng.standard_normal((len(words), 3)))

    def test_rows_follow_pair_order(self):
        src = self.space(["a", "b", "c"], 0)
        tgt = self.space(["x", "y", "z"], 1)
        lex = make_lexicon([("b", "z"), ("a", "x")])
        out = build_aligned_matrices(lex, src, tgt)
        assert np.allclose(out.x_src[0], src.matrix[src.index["b"]])
        assert np.allclose(out.x_tgt[0], tgt.matrix[tgt.index["z"]])
        assert out.coverage == 1.0

    def test_oov_pairs_skipped_and_counted(self):
        src = self.space(["a", "b"], 0)
        tgt = self.space(["x", "y"], 1)
        lex = make_lexicon([("a", "x"), ("a", "missing"), ("ghost", "y")])
        out = build_aligned_matrices(lex, src, tgt)
        assert out.kept_pairs == (("a", "x"),)
        assert out.coverage == pytest.approx(1 / 3)

    def test_all_oov_is_error(self):
        src = self.space(["a"], 0)
        tgt = self.space(["x"], 1)
        with pytest.raises(ValueError):
            build_aligned_matrices(make_lexicon([("q", "q")]), src, tgt)

