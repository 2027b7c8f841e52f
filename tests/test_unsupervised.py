from unittest import mock

import numpy as np
import pytest

from clembed import unsupervised
from clembed.embeddings import WordVectorSpace
from clembed.evaluation import bli_evaluate
from clembed.lexicon import build_aligned_matrices, make_lexicon
from clembed.linalg import pca_project
from clembed.supervised import align_proc
from clembed.unsupervised import (IcpConfig, PostprocessOptions,
                                  SelfLearnConfig, align_gwa, align_icp,
                                  gromov_wasserstein_plan, icp_loss,
                                  icp_restart, self_learn, vecmap_postprocess,
                                  vecmap_seed)
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
        assert lex.pairs == want

    def test_invariant_to_rotation_of_target(self):
        src, tgt, _ = self.permuted_copy()
        rng = np.random.default_rng(1)
        rotated = WordVectorSpace(tgt.words,
                                  tgt.matrix @ random_rotation(10, rng))
        assert vecmap_seed(src, tgt).pairs == vecmap_seed(src, rotated).pairs


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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SelfLearnConfig(keep_prob_init=0.0)
        with pytest.raises(ValueError):
            SelfLearnConfig(keep_prob_growth=1.0)


class TestPostprocess:
    def test_all_off_returns_input(self, clean_pair):
        aligned = build_aligned_matrices(clean_pair.train_lex, clean_pair.src,
                                         clean_pair.tgt)
        pair = align_proc(aligned)
        assert vecmap_postprocess(pair, aligned, PostprocessOptions()) is pair

    def test_reweight_power_zero_keeps_rankings(self, noisy_pair):
        aligned = build_aligned_matrices(noisy_pair.train_lex, noisy_pair.src,
                                         noisy_pair.tgt)
        pair = align_proc(aligned)
        post = vecmap_postprocess(pair, aligned,
                                  PostprocessOptions(reweight_power=0.0))
        base = bli_evaluate(pair, noisy_pair.src, noisy_pair.tgt,
                            noisy_pair.test_lex)
        alt = bli_evaluate(post, noisy_pair.src, noisy_pair.tgt,
                           noisy_pair.test_lex)
        assert [r.best_rank for r in base.records] == \
            [r.best_rank for r in alt.records]

    def test_full_chain_stays_near_base_quality(self, noisy_pair):
        aligned = build_aligned_matrices(noisy_pair.train_lex, noisy_pair.src,
                                         noisy_pair.tgt)
        pair = align_proc(aligned)
        post = vecmap_postprocess(
            pair, aligned,
            PostprocessOptions(whiten=True, reweight_power=0.5,
                               dewhiten=True, reduce_dim=noisy_pair.src.dim))
        base = bli_evaluate(pair, noisy_pair.src, noisy_pair.tgt,
                            noisy_pair.test_lex).map_score
        alt = bli_evaluate(post, noisy_pair.src, noisy_pair.tgt,
                           noisy_pair.test_lex).map_score
        assert abs(alt - base) <= 0.05

    def test_reduce_dim_out_of_range(self, clean_pair):
        aligned = build_aligned_matrices(clean_pair.train_lex, clean_pair.src,
                                         clean_pair.tgt)
        pair = align_proc(aligned)
        with pytest.raises(ValueError):
            vecmap_postprocess(pair, aligned,
                               PostprocessOptions(reduce_dim=0))


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
        cfg = IcpConfig(pca_dim=3, top_n_words=300, lambda_cyc=1.0,
                        restarts=20, max_iters=400, seed=0)
        pair = align_icp(src, tgt, cfg)
        res = bli_evaluate(pair, src, tgt, test_lex)
        assert res.map_score >= 0.8
        assert pair.metadata["best_loss"] < 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IcpConfig(restarts=0)
        with pytest.raises(ValueError):
            IcpConfig(lambda_cyc=-1.0)


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
        cfg = IcpConfig(pca_dim=3, top_n_words=300, lambda_cyc=1.0,
                        restarts=4, max_iters=60, seed=0)
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
        plan = gromov_wasserstein_plan(src.matrix, tgt.matrix)
        assert np.allclose(plan.gamma.sum(axis=1), 1 / 8, atol=1e-6)
        assert np.allclose(plan.gamma.sum(axis=0), 1 / 8, atol=1e-6)
        assert np.all(plan.gamma >= 0)

    def test_plan_invariant_to_target_rotation(self):
        src = self.make_space(10)
        rng = np.random.default_rng(2)
        rot = random_rotation(6, rng)
        a = gromov_wasserstein_plan(src.matrix, src.matrix)
        b = gromov_wasserstein_plan(src.matrix, src.matrix @ rot)
        assert np.allclose(a.gamma, b.gamma, atol=1e-10)

    def test_degenerate_identical_vectors_keep_uniform_plan(self):
        m = np.tile([1.0, 2.0, 0.5], (5, 1))
        plan = gromov_wasserstein_plan(m, m)
        assert np.allclose(plan.gamma, np.full((5, 5), 1 / 25), atol=1e-9)

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
