import re

import numpy as np
import pytest

from clembed.embeddings import (EmbeddingParseError, PreprocessChain,
                                WordVectorSpace, load_text_embeddings,
                                normalize, save_text_embeddings)


def write(tmp_path, text, name="vec.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestWordVectorSpace:
    def test_basic_lookup(self, tiny_space):
        assert tiny_space.dim == 4
        assert len(tiny_space) == 8
        assert np.allclose(tiny_space.vector("w0003"), tiny_space.matrix[3])

    def test_mismatched_rows_rejected(self):
        with pytest.raises(ValueError):
            WordVectorSpace(("a", "b"), np.zeros((3, 2)))

    def test_duplicate_words_rejected(self):
        with pytest.raises(ValueError):
            WordVectorSpace(("a", "a"), np.zeros((2, 2)))

    def test_matrix_is_read_only(self, tiny_space):
        with pytest.raises(ValueError):
            tiny_space.matrix[0, 0] = 99.0

    def test_unknown_word(self, tiny_space):
        with pytest.raises(KeyError):
            tiny_space.vector("missing")


class TestLoadSave:
    def test_round_trip_with_header(self, tmp_path, tiny_space):
        p = tmp_path / "out.txt"
        save_text_embeddings(tiny_space, p)
        first = p.read_text().splitlines()[0]
        assert first.split() == ["8", "4"]
        back = load_text_embeddings(p)
        assert back.words == tiny_space.words
        assert np.allclose(back.matrix, tiny_space.matrix, atol=1e-5)

    def test_headerless_file(self, tmp_path):
        p = write(tmp_path, "cat 1.0 2.0\ndog 3.0 4.0\n")
        space = load_text_embeddings(p)
        assert space.words == ("cat", "dog")
        assert space.dim == 2

    def test_max_vocab_prefix(self, tmp_path):
        p = write(tmp_path, "a 1 0\nb 0 1\nc 1 1\n")
        space = load_text_embeddings(p, max_vocab=2)
        assert space.words == ("a", "b")

    def test_duplicates_dropped_with_warning(self, tmp_path):
        p = write(tmp_path, "a 1 0\na 9 9\nb 0 1\n")
        with pytest.warns(UserWarning, match="duplicate"):
            space = load_text_embeddings(p)
        assert space.words == ("a", "b")
        assert np.allclose(space.vector("a"), [1, 0])

    def test_dim_mismatch_reports_line(self, tmp_path):
        p = write(tmp_path, "a 1 0\nb 0 1 5\n")
        with pytest.raises(EmbeddingParseError, match="line 2"):
            load_text_embeddings(p)

    def test_bad_number_reports_line(self, tmp_path):
        p = write(tmp_path, "a 1 0\nb zero 1\n")
        with pytest.raises(EmbeddingParseError, match="line 2"):
            load_text_embeddings(p)

    def test_empty_file_rejected(self, tmp_path):
        p = write(tmp_path, "")
        with pytest.raises(EmbeddingParseError):
            load_text_embeddings(p)

    @pytest.mark.parametrize("word", ["a b", "a\nb", "a\rb"])
    def test_save_rejects_words_the_loader_would_split(self, tmp_path, word):
        p = tmp_path / "out.txt"
        space = WordVectorSpace((word, "c"), np.eye(2))
        with pytest.raises(ValueError, match=re.escape(repr(word))):
            save_text_embeddings(space, p)
        assert not p.exists()

    def test_save_round_trips_other_unusual_words(self, tmp_path):
        p = tmp_path / "out.txt"
        words = ("", "a\tb", "a\x0bb", "a\x85b", "a\u2028b")
        save_text_embeddings(WordVectorSpace(words, np.eye(5)), p)
        assert load_text_embeddings(p).words == words


class TestPreprocess:
    def test_unit_length(self, tiny_space):
        out = normalize(tiny_space, PreprocessChain(("unit-length",)))
        assert np.allclose(np.linalg.norm(out.matrix, axis=1), 1.0)

    def test_unit_length_counts_only_rows_of_zeros(self):
        space = WordVectorSpace(("a", "b", "c"),
                                np.array([[0.0, 0.0], [1e-170, 1e-170], [3.0, 4.0]]))
        with pytest.warns(UserWarning, match="1 zero rows left unchanged"):
            out = normalize(space, PreprocessChain(("unit-length",)))
        assert np.allclose(np.linalg.norm(out.matrix[1:], axis=1), 1.0)

    def test_mean_center(self, tiny_space):
        out = normalize(tiny_space, PreprocessChain(("mean-center",)))
        assert np.allclose(out.matrix.mean(axis=0), 0.0, atol=1e-12)

    def test_zca_whiten(self, tiny_space):
        out = normalize(tiny_space,
                        PreprocessChain(("mean-center", "zca-whiten")))
        cov = out.matrix.T @ out.matrix / (len(out.matrix) - 1)
        assert np.allclose(cov, np.eye(tiny_space.dim), atol=1e-6)

    def test_chain_applies_in_order(self, tiny_space):
        chain = PreprocessChain(("unit-length", "mean-center"))
        out = normalize(tiny_space, chain)
        step1 = normalize(tiny_space, PreprocessChain(("unit-length",)))
        step2 = normalize(step1, PreprocessChain(("mean-center",)))
        assert np.allclose(out.matrix, step2.matrix)

    def test_unknown_step_rejected(self):
        with pytest.raises(ValueError):
            PreprocessChain(("l2",))

    def test_too_many_steps_rejected(self):
        with pytest.raises(ValueError):
            PreprocessChain(("unit-length", "mean-center", "zca-whiten",
                             "unit-length"))

    def test_empty_chain_is_identity(self, tiny_space):
        out = normalize(tiny_space, PreprocessChain(()))
        assert np.allclose(out.matrix, tiny_space.matrix)
