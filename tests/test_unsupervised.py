import warnings
from unittest import mock

import numpy as np
import pytest

from clembed import unsupervised
from clembed.embeddings import WordVectorSpace
from clembed.evaluation import bli_evaluate
from clembed.lexicon import make_lexicon
from clembed.linalg import pca_project
from clembed.unsupervised import (IcpConfig, SelfLearnConfig, align_gwa,
                                  align_icp, gromov_wasserstein_plan, icp_loss,
                                  icp_restart, self_learn, vecmap_seed)
from conftest import random_rotation, words_for


class TestVecmapSeed:
    def permuted_copy(self, n=60, d=10, seed=0):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, d))
        perm = rng.permutation(n)
        src = WordVectorSpace(words_for(n), m)
        tgt = WordVectorSpace(tuple(f"t{i:04d}" for i in range(n)), m[perm])
        return src, tgt, perm

    def test_recovers_permutation(self):
        src, tgt, perm = self.permuted_copy()
        lex = vecmap_seed(src, tgt)
        inverse = np.argsort(perm)
        want = tuple((src.words[i], tgt.words[int(inverse[i])])
                     for i in range(len(src)))
        assert lex == want

    def test_invariant_to_rotation_of_target(self):
        src, tgt, _ = self.permuted_copy()
        rng = np.random.default_rng(1)
        rotated = WordVectorSpace(tgt.words,
                                  tgt.matrix @ random_rotation(10, rng))
        assert vecmap_seed(src, tgt) == vecmap_seed(src, rotated)


class TestSelfLearn:
    def test_reaches_high_map_from_heuristic_seed(self, noisy_pair):
        seed_lex = vecmap_seed(noisy_pair.src, noisy_pair.tgt, cap=500)
        cfg = SelfLearnConfig(vocab_cap=500, seed=0)
        pair = self_learn(noisy_pair.src, noisy_pair.tgt, seed_lex, cfg)
        res = bli_evaluate(pair, noisy_pair.src, noisy_pair.tgt,
                           noisy_pair.test_lex)
        assert res.map_score >= 0.9

    def test_deterministic_given_seed(self, noisy_pair):
        seed_lex = vecmap_seed(noisy_pair.src, noisy_pair.tgt, cap=300)
        cfg = SelfLearnConfig(vocab_cap=300, seed=11, max_rounds=10)
        a = self_learn(noisy_pair.src, noisy_pair.tgt, seed_lex, cfg)
        b = self_learn(noisy_pair.src, noisy_pair.tgt, seed_lex, cfg)
        assert np.array_equal(a.w_src, b.w_src)
        assert a.metadata["rounds"] == b.metadata["rounds"]

    def test_empty_init_rejected(self, noisy_pair):
        with pytest.raises(ValueError):
            self_learn(noisy_pair.src, noisy_pair.tgt, make_lexicon([]))


def rank_warnings(align, *args):
    """The map `align(*args)` returns and its rank-deficiency warnings,
    recorded despite pyproject's filter."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pair = align(*args)
    return pair, [w for w in caught if "rank-deficient" in str(w.message)]


def shifted_axes(space, seed=5):
    """A rotated copy of `space` with noise of std 3 added along its third
    coordinate: that noise is the copy's first principal axis, so the copy's
    PCA axes do not correspond to the source's, and ICP's signed start
    fails there as a random start does."""
    rng = np.random.default_rng(seed)
    matrix = space.matrix.copy()
    matrix[:, 2] += 3.0 * rng.standard_normal(len(matrix))
    return WordVectorSpace(space.words,
                           matrix @ random_rotation(space.dim, rng))


def flattened(space):
    """`space` with its last coordinate zeroed: every cross-covariance of
    two such spaces is rank-deficient."""
    matrix = space.matrix.copy()
    matrix[:, -1] = 0.0
    return WordVectorSpace(space.words, matrix)


class TestRankDeficiencyWarning:
    """Only the solve whose map is returned warns that it is not unique."""

    def test_self_learn_silent_when_only_early_rounds_are_deficient(
            self, noisy_pair):
        seed_lex = make_lexicon((w, w) for w in noisy_pair.src.words[:5])
        pair, caught = rank_warnings(self_learn, noisy_pair.src, noisy_pair.tgt,
                                     seed_lex, SelfLearnConfig(vocab_cap=500))
        assert caught == [] and pair.metadata["dict_size"] > noisy_pair.src.dim

    def test_self_learn_warns_once_for_a_deficient_final_solve(self, noisy_pair):
        seed_lex = make_lexicon((w, w) for w in noisy_pair.src.words[:100])
        _, caught = rank_warnings(
            self_learn, flattened(noisy_pair.src), flattened(noisy_pair.tgt),
            seed_lex, SelfLearnConfig(vocab_cap=500, max_rounds=5))
        assert len(caught) == 1

    def test_icp_seed_solve_is_silent(self, spiral_pair):
        src, _, _ = spiral_pair
        cfg = IcpConfig(pca_dim=5, top_n_words=300, restarts=1)
        pair, caught = rank_warnings(align_icp, src, shifted_axes(src), cfg)
        # the seed dictionary has fewer pairs than dimensions, the final one
        # more
        assert pair.metadata["assignment_pairs"] < src.dim
        assert caught == [] and pair.metadata["dict_size"] > src.dim

    def test_icp_warns_once_for_a_deficient_final_solve(self, spiral_pair):
        src, tgt, _ = spiral_pair
        cfg = IcpConfig(pca_dim=5, top_n_words=300, restarts=1)
        _, caught = rank_warnings(align_icp, flattened(src), flattened(tgt),
                                  cfg)
        assert len(caught) == 1


class TestIcp:
    def test_loss_zero_for_exact_match(self):
        rng = np.random.default_rng(0)
        p = rng.standard_normal((20, 4))
        rot = random_rotation(4, rng)
        ident = np.arange(20)
        loss = icp_loss(p, p @ rot, rot, rot.T, ident, ident, 1.0)
        assert loss == pytest.approx(0.0, abs=1e-18)

    def test_restart_loss_nonincreasing_without_cyclic_term(self):
        rng = np.random.default_rng(1)
        p1 = rng.standard_normal((40, 3))
        p2 = rng.standard_normal((40, 3))
        w0 = random_rotation(3, rng)
        out = icp_restart(p1, p2, w0, lambda_cyc=0.0, max_iters=60)
        history = out[-1]
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_recovers_rotation_on_spiral(self, spiral_pair):
        src, tgt, test_lex = spiral_pair
        cfg = IcpConfig(pca_dim=3, top_n_words=300, restarts=20,
                        max_iters=400, seed=0)
        pair = align_icp(src, tgt, cfg)
        res = bli_evaluate(pair, src, tgt, test_lex)
        assert res.map_score >= 0.8
        assert pair.metadata["best_loss"] < 1.0

    def test_restart_zero_starts_from_the_signed_pca_identity(
            self, spiral_pair):
        """Restart 0 starts from diag(sign(sum p1**3) * sign(sum p2**3));
        restart i >= 1 from the random rotation drawn from stream i of the
        seed."""
        src, tgt, _ = spiral_pair
        cfg = IcpConfig(pca_dim=5, top_n_words=300, restarts=3, seed=4)
        starts = []

        def recording(p1, p2, w_init, *args):
            starts.append(w_init)
            return icp_restart(p1, p2, w_init, *args)

        with mock.patch.object(unsupervised, "icp_restart", recording):
            align_icp(src, tgt, cfg)
        p1 = pca_project(src.matrix[:300], 5)
        p2 = pca_project(tgt.matrix[:300], 5)
        signs = np.sign(np.sum(p1 ** 3, axis=0)) * np.sign(
            np.sum(p2 ** 3, axis=0))
        assert np.array_equal(starts[0], np.diag(signs))
        for start, stream in zip(starts[1:], np.random.SeedSequence(
                4).spawn(3)[1:]):
            rng = np.random.default_rng(stream)
            assert np.array_equal(start, np.linalg.qr(
                rng.standard_normal((5, 5)))[0])

    def test_a_random_restart_with_a_lower_loss_wins(self, spiral_pair):
        """Where the PCA axes do not correspond, the signed start ends
        higher than one of the random restarts, which then wins."""
        src, _, _ = spiral_pair
        tgt = shifted_axes(src)
        signed = align_icp(src, tgt, IcpConfig(pca_dim=5, top_n_words=300,
                                               restarts=1))
        pair = align_icp(src, tgt, IcpConfig(pca_dim=5, top_n_words=300,
                                             restarts=8))
        assert pair.metadata["best_restart"] > 0
        assert pair.metadata["best_loss"] < signed.metadata["best_loss"]

    @pytest.mark.parametrize("rotate", ["src", "tgt", "both"])
    def test_restart_zero_does_not_change_when_a_space_is_rotated(
            self, spiral_pair, rotate):
        """Rotating the source by R and the target by T gives restart 0 the
        same assignments and loss, so the same dictionary, the map
        R' W T and the same held-out MAP."""
        src, tgt, test_lex = spiral_pair
        cfg = IcpConfig(pca_dim=5, top_n_words=300, restarts=1)
        rng = np.random.default_rng(8)
        r = random_rotation(20, rng) if rotate != "tgt" else np.eye(20)
        t = random_rotation(20, rng) if rotate != "src" else np.eye(20)
        moved_src = WordVectorSpace(src.words, src.matrix @ r)
        moved_tgt = WordVectorSpace(tgt.words, tgt.matrix @ t)
        want = align_icp(src, tgt, cfg)
        got = align_icp(moved_src, moved_tgt, cfg)
        for key in ("dict_size", "assignment_pairs", "best_restart"):
            assert got.metadata[key] == want.metadata[key]
        assert got.metadata["loss_history"] == pytest.approx(
            want.metadata["loss_history"], rel=1e-9)
        np.testing.assert_allclose(got.w_src, r.T @ want.w_src @ t,
                                   atol=1e-12)
        assert bli_evaluate(got, moved_src, moved_tgt, test_lex).map_score \
            == bli_evaluate(want, src, tgt, test_lex).map_score

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IcpConfig(restarts=0)

    def test_max_iters_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            IcpConfig(max_iters=0)


def oracle_solve_linear_map(points, targets, cyc_self, other_map,
                            cyc_other_points, cyc_other_targets, lam):
    """The earlier solve of P W + Q W R = S through its p^2 x p^2 Kronecker
    lift: (I kron P + R' kron Q) vec(W) = vec(S)."""
    p_dim = points.shape[1]
    lhs_p = points.T @ points
    rhs = points.T @ targets
    if lam > 0:
        lhs_p += lam * (cyc_other_points.T @ cyc_other_points)
        rhs += lam * (cyc_self.T @ cyc_self) @ other_map.T
        rhs += lam * (cyc_other_points.T @ cyc_other_targets)
        q = lam * (cyc_self.T @ cyc_self)
        r = other_map @ other_map.T
        system = np.kron(np.eye(p_dim), lhs_p) + np.kron(r.T, q)
    else:
        system = np.kron(np.eye(p_dim), lhs_p)
    vec = np.linalg.solve(system, rhs.reshape(-1, order="F"))
    return vec.reshape(p_dim, p_dim, order="F")


class TestIcpMapSolve:
    """The generalized-eigen solve against the Kronecker lift it replaced."""

    @staticmethod
    def problem(p_dim, seed):
        # random points make P, Q and R random symmetric positive definite
        rng = np.random.default_rng(seed)
        p1 = rng.standard_normal((4 * p_dim, p_dim))
        p2 = rng.standard_normal((4 * p_dim, p_dim)) * rng.uniform(0.1, 3.0, p_dim)
        w2 = rng.standard_normal((p_dim, p_dim))
        return p1, p2[rng.permutation(len(p2))], p1, w2, p2 @ w2, p2

    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0, 25.0])
    @pytest.mark.parametrize("p_dim", range(2, 13))
    def test_matches_kronecker_oracle(self, p_dim, lam):
        args = self.problem(p_dim, seed=p_dim)
        got = unsupervised._solve_linear_map(*args, lam)
        want = oracle_solve_linear_map(*args, lam)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_singular_points_raise(self, lam):
        p1, p2, _, w2, _, _ = self.problem(4, seed=0)
        flat = p1.copy()
        flat[:, 3] = flat[:, 0]                   # rank 3 < p = 4
        with pytest.raises(np.linalg.LinAlgError):
            unsupervised._solve_linear_map(flat, p2, flat, w2, flat, flat, lam)

    def test_align_icp_is_the_same_with_either_solve(self, spiral_pair):
        src, tgt, _ = spiral_pair
        cfg = IcpConfig(pca_dim=3, top_n_words=300, restarts=4,
                        max_iters=60, seed=0)
        new = align_icp(src, tgt, cfg)
        with mock.patch.object(unsupervised, "_solve_linear_map",
                               oracle_solve_linear_map):
            old = align_icp(src, tgt, cfg)
        assert np.array_equal(new.w_src, old.w_src)
        losses = ("best_loss", "loss_history")
        assert {k: v for k, v in new.metadata.items() if k not in losses} == \
            {k: v for k, v in old.metadata.items() if k not in losses}
        assert new.metadata["best_loss"] == pytest.approx(
            old.metadata["best_loss"], rel=1e-10)
        assert new.metadata["loss_history"] == pytest.approx(
            old.metadata["loss_history"], rel=1e-10)


class TestGwa:
    def make_space(self, n, d=6, seed=0):
        rng = np.random.default_rng(seed)
        return WordVectorSpace(words_for(n), rng.standard_normal((n, d)))

    def test_plan_marginals(self):
        src = self.make_space(8)
        tgt = self.make_space(8, seed=1)
        gamma, violation = gromov_wasserstein_plan(src.matrix, tgt.matrix)
        assert np.allclose(gamma.sum(axis=1), 1 / 8, atol=1e-6)
        assert np.allclose(gamma.sum(axis=0), 1 / 8, atol=1e-6)
        assert np.all(gamma >= 0)
        assert violation < 1e-9

    def test_plan_invariant_to_target_rotation(self):
        src = self.make_space(10)
        rng = np.random.default_rng(2)
        rot = random_rotation(6, rng)
        a, _ = gromov_wasserstein_plan(src.matrix, src.matrix)
        b, _ = gromov_wasserstein_plan(src.matrix, src.matrix @ rot)
        assert np.allclose(a, b, atol=1e-10)

    def test_degenerate_identical_vectors_keep_uniform_plan(self):
        m = np.tile([1.0, 2.0, 0.5], (5, 1))
        gamma, _ = gromov_wasserstein_plan(m, m)
        assert np.allclose(gamma, np.full((5, 5), 1 / 25), atol=1e-9)

    def test_identity_on_identical_spaces(self):
        src = self.make_space(20)
        pair = align_gwa(src, src, cap=20)
        assert np.allclose(pair.w_src, np.eye(6), atol=1e-6)

    def test_lambda_must_be_positive(self):
        src = self.make_space(5)
        with pytest.raises(ValueError):
            gromov_wasserstein_plan(src.matrix, src.matrix, lam=0.0)


def test_pca_dim_larger_than_cloud_dim_rejected():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        pca_project(rng.standard_normal((10, 3)), 4)
