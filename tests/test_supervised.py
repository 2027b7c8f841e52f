import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clembed import supervised
from clembed.evaluation import bli_evaluate
from clembed.lexicon import build_aligned_matrices, make_lexicon
from clembed.linalg import solve_procrustes
from clembed.similarity import unit_rows
from clembed.supervised import (RcslsConfig, _sparsified_assignment, align_cca,
                                align_dlv, align_proc, align_proc_b,
                                align_rcsls, rcsls_gradient,
                                rcsls_neighbor_sets)
from conftest import oracle_rcsls_objective


def held_out_map(pair, rotated):
    return bli_evaluate(pair, rotated.src, rotated.tgt,
                        rotated.test_lex).map_score


class TestProc:
    def test_recovers_rotation(self, clean_pair):
        aligned = build_aligned_matrices(clean_pair.train_lex, clean_pair.src,
                                         clean_pair.tgt)
        pair = align_proc(aligned)
        assert np.linalg.norm(pair.w_src - clean_pair.rotation) < 1e-6
        assert pair.orthogonal_src
        assert pair.metadata["final_objective"] < 1e-9

    def test_tgt_side_is_identity(self, clean_pair):
        aligned = build_aligned_matrices(clean_pair.train_lex, clean_pair.src,
                                         clean_pair.tgt)
        pair = align_proc(aligned)
        assert np.array_equal(pair.w_tgt, np.eye(clean_pair.src.dim))


class TestProcB:
    def seed_lexicon(self, rotated, n=10):
        return make_lexicon(rotated.train_lex[:n])

    def test_single_iteration_matches_plain_solve(self, noisy_pair):
        seed = self.seed_lexicon(noisy_pair)
        aligned = build_aligned_matrices(seed, noisy_pair.src, noisy_pair.tgt)
        plain = align_proc(aligned)
        boot = align_proc_b(noisy_pair.src, noisy_pair.tgt, seed, iters=1)
        assert np.allclose(boot.w_src, plain.w_src, atol=1e-12)

    def test_bootstrap_grows_dictionary_and_map(self, noisy_pair):
        seed = self.seed_lexicon(noisy_pair)
        aligned = build_aligned_matrices(seed, noisy_pair.src, noisy_pair.tgt)
        base_map = held_out_map(align_proc(aligned), noisy_pair)
        boot = align_proc_b(noisy_pair.src, noisy_pair.tgt, seed, iters=2)
        assert boot.metadata["dict_sizes"][-1] > len(seed)
        assert held_out_map(boot, noisy_pair) >= base_map

    @pytest.mark.parametrize("iters", [1, 2, 3])
    def test_solves_the_target_map_only_for_a_next_round(self, noisy_pair,
                                                          iters):
        """Every iteration solves the source map; the target map, which only
        the next augmentation reads, is solved by an iteration but the last
        whose dictionary is rank-deficient, and right after its source map.
        The 10-pair seed in 20 dimensions is; the 90 pairs it grows to are
        not. Only the returned map goes through the warning solve."""
        seed = self.seed_lexicon(noisy_pair)
        solves, procrustes = [], supervised._procrustes

        def recording(x_src, x_tgt):
            w, deficient = procrustes(x_src, x_tgt)
            solves.append((x_src, x_tgt, deficient))
            return w, deficient

        with mock.patch.object(supervised, "solve_procrustes",
                               wraps=solve_procrustes) as solve, \
                mock.patch.object(supervised, "_procrustes", recording):
            align_proc_b(noisy_pair.src, noisy_pair.tgt, seed, iters=iters)
        assert solve.call_count == 1
        # the seed round solves both ways, the next one forward only
        assert [deficient for *_, deficient in solves] == \
            [[], [True, True], [True, True, False]][iters - 1]
        if iters > 1:
            (x_src, x_tgt, _), (y_src, y_tgt, _) = solves[:2]
            assert y_src is x_tgt and y_tgt is x_src

    def test_warns_only_about_the_returned_map(self, noisy_pair):
        """A 10-pair seed in 20 dimensions is rank-deficient; the maps
        solved from it only seed the augmentation, and the returned map's
        dictionary has full rank."""
        seed = self.seed_lexicon(noisy_pair)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pair = align_proc_b(noisy_pair.src, noisy_pair.tgt, seed, iters=2)
        assert pair.metadata["dict_sizes"][-1] > noisy_pair.src.dim
        assert [str(w.message) for w in caught] == []


class TestCca:
    def test_rotated_copy_fully_correlated(self, clean_pair):
        aligned = build_aligned_matrices(clean_pair.train_lex, clean_pair.src,
                                         clean_pair.tgt)
        pair = align_cca(aligned)
        assert np.allclose(pair.metadata["correlations"], 1.0, atol=1e-6)
        assert not pair.orthogonal_src

    def test_held_out_retrieval(self, noisy_pair):
        aligned = build_aligned_matrices(noisy_pair.train_lex, noisy_pair.src,
                                         noisy_pair.tgt)
        pair = align_cca(aligned)
        assert held_out_map(pair, noisy_pair) >= 0.9

    def test_keep_dims_pads_to_square(self, noisy_pair):
        aligned = build_aligned_matrices(noisy_pair.train_lex, noisy_pair.src,
                                         noisy_pair.tgt)
        pair = align_cca(aligned, keep_dims=5)
        d = noisy_pair.src.dim
        assert pair.w_src.shape == (d, d)
        assert np.allclose(pair.w_src[:, 5:], 0.0)


class TestDlv:
    def test_em_does_not_hurt_a_clean_seed(self, clean_pair):
        seed = make_lexicon(clean_pair.train_lex[:50])
        aligned = build_aligned_matrices(seed, clean_pair.src, clean_pair.tgt)
        base_map = held_out_map(align_proc(aligned), clean_pair)
        pair = align_dlv(clean_pair.src, clean_pair.tgt, seed, em_iters=2,
                         match_cap=300)
        assert pair.orthogonal_src
        assert held_out_map(pair, clean_pair) >= base_map

    def test_match_metadata_present(self, clean_pair):
        seed = make_lexicon(clean_pair.train_lex[:50])
        pair = align_dlv(clean_pair.src, clean_pair.tgt, seed, em_iters=1,
                         match_cap=200)
        assert pair.metadata["match_sizes"]

    @settings(max_examples=100, deadline=None)
    @given(arrays(float, st.tuples(st.integers(1, 30), st.integers(1, 30)),
                  elements=st.one_of(st.sampled_from((-1.0, 0.0, 1.0)),
                                     st.floats(-1, 1)), fill=st.nothing()))
    def test_assignment_always_matches(self, sim):
        """An assignment using one candidate edge (cosine >= -1) outweighs
        any that uses only padded edges, so dlv's E-step never comes back
        empty; the matches are one-to-one."""
        matches = _sparsified_assignment(sim)
        assert matches
        rows, cols = zip(*matches)
        assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)


class TestRcsls:
    def gradient_setup(self, d=5, k=8, n=2, seed=0):
        rng = np.random.default_rng(seed)
        x_s = unit_rows(rng.standard_normal((k, d)))
        x_t = unit_rows(rng.standard_normal((k, d)))
        src_pool = unit_rows(rng.standard_normal((k + 6, d)))
        tgt_pool = unit_rows(rng.standard_normal((k + 6, d)))
        w = np.eye(d) + 0.1 * rng.standard_normal((d, d))
        neighbors = rcsls_neighbor_sets(w, x_s, x_t, src_pool, tgt_pool, n)
        return w, x_s, x_t, src_pool, tgt_pool, neighbors

    def test_gradient_matches_central_differences(self):
        w, x_s, x_t, sp, tp, nb = self.gradient_setup()
        analytic = rcsls_gradient(x_s, x_t, sp, tp, nb)
        h = 1e-6
        numeric = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                wp, wm = w.copy(), w.copy()
                wp[i, j] += h
                wm[i, j] -= h
                numeric[i, j] = (
                    oracle_rcsls_objective(wp, x_s, x_t, sp, tp, nb)
                    - oracle_rcsls_objective(wm, x_s, x_t, sp, tp, nb)
                ) / (2 * h)
        scale = np.maximum(np.abs(numeric), 1e-8)
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-4

    @pytest.mark.parametrize("epochs", [1, 4])
    def test_takes_one_pair_of_neighbour_means_per_neighbourhood(
            self, noisy_pair, epochs):
        """epochs + 1 neighbourhoods (the start's and one per epoch), each
        reduced to its two means once, for both the loss and the step."""
        aligned = build_aligned_matrices(noisy_pair.train_lex, noisy_pair.src,
                                         noisy_pair.tgt)
        with mock.patch.object(supervised, "_neighbor_means",
                               wraps=supervised._neighbor_means) as means:
            align_rcsls(aligned, noisy_pair.src.matrix, noisy_pair.tgt.matrix,
                        RcslsConfig(epochs=epochs))
        assert means.call_count == 2 * (epochs + 1)

    def test_descent_keeps_procrustes_quality(self, clean_pair):
        aligned = build_aligned_matrices(clean_pair.train_lex, clean_pair.src,
                                         clean_pair.tgt)
        pair = align_rcsls(aligned, clean_pair.src.matrix,
                           clean_pair.tgt.matrix,
                           RcslsConfig(epochs=3))
        assert not pair.orthogonal_src
        assert held_out_map(pair, clean_pair) >= 0.99

    def test_training_metadata_kept(self, clean_pair):
        aligned = build_aligned_matrices(clean_pair.train_lex, clean_pair.src,
                                         clean_pair.tgt)
        pair = align_rcsls(aligned, clean_pair.src.matrix,
                           clean_pair.tgt.matrix, RcslsConfig(epochs=2))
        assert pair.metadata["epochs"] == 2
        assert np.isfinite(pair.metadata["final_objective"])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RcslsConfig(neighborhood=0)
        with pytest.raises(ValueError):
            RcslsConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            RcslsConfig(epochs=0)
