import numpy as np
import pytest

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
