import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clembed.embeddings import load_text_embeddings
from clembed.projection import (ProjectionPair, identity_pair,
                                load_matrix_text, load_projection,
                                save_matrix_text, save_projection)
from clembed.lexicon import build_aligned_matrices
from clembed.supervised import align_cca
from conftest import random_rotation


def test_identity_pair_projects_unchanged():
    pair = identity_pair(4)
    m = np.arange(12.0).reshape(3, 4)
    assert pair.project_src(m) is m
    assert pair.project_tgt(m) is m


def test_identity_skip_equals_the_product_up_to_the_sign_of_zero():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((7, 5))
    m[0, :2] = -0.0
    pair = identity_pair(5)
    assert np.array_equal(pair.project_src(m), m @ np.eye(5))


def test_cca_pair_still_multiplies(noisy_pair):
    pair = align_cca(build_aligned_matrices(noisy_pair.train_lex,
                                            noisy_pair.src, noisy_pair.tgt))
    m = noisy_pair.tgt.matrix[:10]
    assert np.array_equal(pair.project_tgt(m), m @ pair.w_tgt)
    assert np.array_equal(pair.project_src(m), m @ pair.w_src)
    assert not np.array_equal(pair.project_tgt(m), m)


def test_almost_identity_still_multiplies():
    w = np.eye(3)
    w[1, 1] = np.nextafter(1.0, 2.0)
    pair = ProjectionPair(w_src=np.eye(3), w_tgt=w, orthogonal_src=True,
                          method="x")
    m = np.full((2, 3), 3.0)
    assert pair.project_src(m) is m
    assert np.array_equal(pair.project_tgt(m), m @ w)
    assert not np.array_equal(pair.project_tgt(m), m)


def test_orthogonality_enforced_when_claimed():
    bad = np.diag([2.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        ProjectionPair(w_src=bad, w_tgt=np.eye(3), orthogonal_src=True,
                       method="proc")


def test_non_orthogonal_allowed_when_not_claimed():
    pair = ProjectionPair(w_src=np.diag([2.0, 1.0]), w_tgt=np.eye(2),
                          orthogonal_src=False, method="rcsls")
    assert np.allclose(pair.project_src(np.eye(2)), np.diag([2.0, 1.0]))


def test_non_square_rejected():
    with pytest.raises(ValueError):
        ProjectionPair(w_src=np.zeros((3, 2)), w_tgt=np.eye(2),
                       orthogonal_src=False, method="x")


def test_matrix_text_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 5))
    p = tmp_path / "w.txt"
    save_matrix_text(m, p)
    assert np.array_equal(load_matrix_text(p), m)


def test_projection_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    w = random_rotation(6, rng)
    pair = ProjectionPair(w_src=w, w_tgt=np.eye(6), orthogonal_src=True,
                          method="proc", metadata={"dict_size": 42})
    save_projection(pair, tmp_path)
    back = load_projection(tmp_path)
    assert np.array_equal(back.w_src, pair.w_src)
    assert np.array_equal(back.w_tgt, pair.w_tgt)
    assert back.method == "proc"
    assert back.orthogonal_src is True
    assert back.metadata["dict_size"] == 42


def companion(path):
    return path.with_name(path.name + ".clembed.npz")


def counting_parses():
    """numpy's text parser, counting its calls (`call_count`)."""
    return mock.patch("numpy.loadtxt", wraps=np.loadtxt)


def assert_parsed_from_text(path):
    """A load of `path` parses it, and gives what np.loadtxt of it gives."""
    want = np.loadtxt(path, ndmin=2)
    with counting_parses() as parse:
        got = load_matrix_text(path)
    assert parse.call_count > 0
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return got


EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
            -1e308, 1.7976931348623157e308, -1.7976931348623157e308)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
              elements=st.one_of(st.floats(allow_nan=False,
                                           allow_infinity=False),
                                 st.sampled_from(EXTREMES))))
def test_a_saved_matrix_is_served_bit_for_bit_as_its_text_parses(
        tmp_path_factory, matrix):
    """The text is np.savetxt's, byte for byte, and a load of it is served
    from its companion without a parse: bit for bit what np.loadtxt of the
    text gives, and the matrix saved (-0.0, subnormals and +-1e308 too)."""
    root = tmp_path_factory.mktemp("matrix")
    save_matrix_text(matrix, root / "w.txt")
    np.savetxt(root / "savetxt.txt", matrix, fmt="%.17g")
    assert (root / "w.txt").read_bytes() == \
        (root / "savetxt.txt").read_bytes()
    want = np.loadtxt(root / "savetxt.txt", ndmin=2)
    with counting_parses() as parse:
        got = load_matrix_text(root / "w.txt")
    assert parse.call_count == 0
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes() == matrix.tobytes()


def edit_a_digit(path):
    """Rewrite `path` with the first decimal of its first value changed: a
    text of the same size, a different matrix."""
    text = path.read_bytes()
    at = text.index(b".") + 1
    digit = b"7" if text[at:at + 1] != b"7" else b"3"
    path.write_bytes(text[:at] + digit + text[at + 1:])


@pytest.mark.parametrize("spoil", [
    edit_a_digit,
    lambda path: companion(path).write_bytes(companion(path).read_bytes()[:-9]),
    lambda path: companion(path).write_bytes(b"garbage"),
    lambda path: companion(path).unlink(),
], ids=["edited-text", "truncated", "corrupt", "missing"])
def test_a_stale_damaged_or_missing_companion_falls_back_to_the_parse(
        tmp_path, spoil):
    path = tmp_path / "w.txt"
    matrix = np.random.default_rng(4).standard_normal((5, 5))
    save_matrix_text(matrix, path)
    spoil(path)
    got = assert_parsed_from_text(path)
    assert np.array_equal(got, matrix) == (spoil is not edit_a_digit)


def test_a_matrix_companion_with_a_byte_changed_never_changes_a_load(
        tmp_path):
    """Whatever one changed byte of a companion breaks (its zip CRCs, its
    shapes, the digest), the load gives the text's matrix."""
    path = tmp_path / "w.txt"
    matrix = np.random.default_rng(5).standard_normal((4, 4))
    save_matrix_text(matrix, path)
    good = companion(path).read_bytes()
    for at in np.random.default_rng(0).choice(len(good), 300, replace=False):
        spoiled = bytearray(good)
        spoiled[at] ^= 0x5A
        companion(path).write_bytes(bytes(spoiled))
        assert load_matrix_text(path).tobytes() == matrix.tobytes()


def test_an_embedding_files_companion_never_serves_a_matrix(tmp_path):
    """Headerless numeric embedding lines are a matrix too: the companion a
    whole embedding load writes holds the rows without their first column,
    and the matrix load parses the text instead."""
    path = tmp_path / "w.txt"
    path.write_text("1 2 3\n4 5 6\n")
    assert load_text_embeddings(path).matrix.tolist() == [[2, 3], [5, 6]]
    assert companion(path).exists()
    assert assert_parsed_from_text(path).tolist() == [[1, 2, 3], [4, 5, 6]]


@pytest.mark.parametrize("matrix", [np.full((2, 2), np.nan),
                                    np.array([[1.0, np.inf]]),
                                    np.empty((0, 3))],
                         ids=["nan", "inf", "empty"])
def test_a_matrix_a_companion_cannot_hold_exactly_gets_none(tmp_path, matrix):
    save_matrix_text(matrix, tmp_path / "w.txt")
    assert os.listdir(tmp_path) == ["w.txt"]


@pytest.mark.parametrize("failing", ["tempfile.mkstemp", "os.fchmod",
                                     "numpy.lib.format.write_array",
                                     "os.replace"])
def test_a_matrix_whose_companion_cannot_be_written_is_written(tmp_path,
                                                               failing):
    """As when its directory refuses new files (`tempfile.mkstemp`): the
    text is written, no companion and no temporary file, and it loads."""
    matrix = np.random.default_rng(6).standard_normal((3, 3))
    np.savetxt(tmp_path / "savetxt.txt", matrix, fmt="%.17g")
    with mock.patch(failing, side_effect=OSError("disk full")):
        save_matrix_text(matrix, tmp_path / "w.txt")
    assert sorted(os.listdir(tmp_path)) == ["savetxt.txt", "w.txt"]
    assert (tmp_path / "w.txt").read_bytes() == \
        (tmp_path / "savetxt.txt").read_bytes()
    assert np.array_equal(assert_parsed_from_text(tmp_path / "w.txt"), matrix)


def test_saved_projections_are_byte_reproducible(tmp_path):
    """Two saves of one pair write the same files, companions included
    (their members carry a fixed time)."""
    rng = np.random.default_rng(7)
    pair = ProjectionPair(w_src=random_rotation(6, rng), w_tgt=np.eye(6),
                          orthogonal_src=True, method="proc")
    for name in ("a", "b"):
        save_projection(pair, tmp_path / name)
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == ["projection.json", "w_src.txt", "w_src.txt.clembed.npz",
                     "w_tgt.txt", "w_tgt.txt.clembed.npz"]
    assert sorted(os.listdir(tmp_path / "b")) == names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
