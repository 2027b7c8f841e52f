import re

import numpy as np
import pytest

from clembed.embeddings import (WordVectorSpace, load_text_embeddings,
                                normalize, save_text_embeddings)


def write(tmp_path, text, name="vec.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestWordVectorSpace:
    def test_basic_lookup(self, tiny_space):
        assert tiny_space.dim == 4
        assert len(tiny_space) == 8
        assert tiny_space.index["w0003"] == 3

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
            tiny_space.matrix[tiny_space.index["missing"]]


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
        assert np.allclose(space.matrix[space.index["a"]], [1, 0])

    def test_dim_mismatch_reports_line(self, tmp_path):
        p = write(tmp_path, "a 1 0\nb 0 1 5\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: line 2")):
            load_text_embeddings(p)

    def test_bad_number_reports_line(self, tmp_path):
        p = write(tmp_path, "a 1 0\nb zero 1\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: line 2")):
            load_text_embeddings(p)

    def test_empty_file_rejected(self, tmp_path):
        p = write(tmp_path, "")
        with pytest.raises(ValueError, match=re.escape(f"{p}: ")):
            load_text_embeddings(p)

    @pytest.mark.parametrize("needed", [set(), {"x"}, {"x", "y"}])
    def test_load_keeping_no_word_is_empty(self, tmp_path, needed):
        p = write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n")
        space = load_text_embeddings(p, needed=needed)
        assert space.words == () and space.matrix.shape == (0, 3)

    @pytest.mark.parametrize("text", ["2 3\n", "2 3\n\n\n", "\n"])
    def test_no_embedding_line_rejected_with_needed_words(self, tmp_path,
                                                          text):
        p = write(tmp_path, text)
        with pytest.raises(ValueError,
                           match=re.escape(f"{p}: ") + ".*embedding"):
            load_text_embeddings(p, needed={"a"})

    @staticmethod
    def latin1_last_line(tmp_path):
        """3001 UTF-8 lines, then line 3002 `caf\xe9 5 6` in Latin-1."""
        p = tmp_path / "vec.txt"
        lines = "".join(f"w{i} {i} {i + 1}\n" for i in range(3001))
        p.write_bytes(lines.encode() + "caf\xe9 5 6\n".encode("latin-1"))
        return p

    @pytest.mark.parametrize("kwargs", [{"needed": {"w0"}}, {"max_vocab": 1}])
    def test_a_bad_byte_after_the_stop_is_not_read(self, tmp_path, kwargs):
        """The decoder reads ahead of the line a load stops at, here by
        3000 lines; the byte it meets there is not the load's."""
        space = load_text_embeddings(self.latin1_last_line(tmp_path), **kwargs)
        assert space.words == ("w0",)

    @pytest.mark.parametrize("kwargs", [{}, {"needed": {"w0", "absent"}},
                                        {"max_vocab": 3002}])
    def test_a_bad_byte_up_to_the_stop_is_named(self, tmp_path, kwargs):
        p = self.latin1_last_line(tmp_path)
        with pytest.raises(ValueError, match=re.escape(
                f"{p}: line 3002: byte 0xe9 is not UTF-8")):
            load_text_embeddings(p, **kwargs)

    def test_the_first_bad_line_is_named_before_a_bad_byte(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_bytes(b"a 1 0\nb zero 1\nc 0 1\ncaf\xe9 5 6\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: line 2: unparseable")):
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
        out = normalize(tiny_space, ("unit-length",))
        assert np.allclose(np.linalg.norm(out.matrix, axis=1), 1.0)

    def test_unit_length_counts_only_rows_of_zeros(self):
        space = WordVectorSpace(("a", "b", "c"),
                                np.array([[0.0, 0.0], [1e-170, 1e-170], [3.0, 4.0]]))
        with pytest.warns(UserWarning, match="1 zero rows left unchanged"):
            out = normalize(space, ("unit-length",))
        assert np.allclose(np.linalg.norm(out.matrix[1:], axis=1), 1.0)

    def test_mean_center(self, tiny_space):
        out = normalize(tiny_space, ("mean-center",))
        assert np.allclose(out.matrix.mean(axis=0), 0.0, atol=1e-12)

    def test_zca_whiten(self, tiny_space):
        out = normalize(tiny_space, ("mean-center", "zca-whiten"))
        cov = out.matrix.T @ out.matrix / (len(out.matrix) - 1)
        assert np.allclose(cov, np.eye(tiny_space.dim), atol=1e-6)

    def test_chain_applies_in_order(self, tiny_space):
        out = normalize(tiny_space, ("unit-length", "mean-center"))
        step1 = normalize(tiny_space, ("unit-length",))
        step2 = normalize(step1, ("mean-center",))
        assert np.allclose(out.matrix, step2.matrix)

    def test_unknown_step_rejected(self, tiny_space):
        with pytest.raises(ValueError, match="unknown preprocessing step"):
            normalize(tiny_space, ("l2",))

    def test_too_many_steps_rejected(self, tiny_space):
        with pytest.raises(ValueError, match="exceeds 3 steps"):
            normalize(tiny_space, ("unit-length", "mean-center", "zca-whiten",
                                   "unit-length"))

    def test_empty_chain_is_identity(self, tiny_space):
        out = normalize(tiny_space, ())
        assert np.allclose(out.matrix, tiny_space.matrix)
