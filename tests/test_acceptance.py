"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single ``ACCEPTANCE n: PASS`` line on success (visible
with ``pytest -s``); a failed assertion means the line is never printed.
All expected values come from independent oracles: closed-form
constructions, brute-force enumeration, hand-scored toys, or central
finite differences - never from the implementation under test.
"""

import itertools
import os
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from clembed.clir import (DocumentCollection, aggregate_text, clir_run,
                          idf_weighting, read_trec_run, tokenize,
                          write_trec_run)
from clembed.embeddings import WordVectorSpace, load_text_embeddings
from clembed.evaluation import (average_precision_from_ranks, bli_evaluate,
                                bonferroni, paired_ttest, shuffling_test)
from clembed.lexicon import (build_aligned_matrices, load_lexicon,
                             make_lexicon)
from clembed.linalg import pca_project
from clembed.projection import identity_pair
from clembed.similarity import cosine_matrix, similarity_sweep, unit_rows
from clembed.supervised import (RcslsConfig, align_proc, align_proc_b,
                                align_rcsls, rcsls_gradient,
                                rcsls_neighbor_sets, rcsls_objective)
from clembed.unsupervised import (IcpConfig, align_gwa, align_icp,
                                  gromov_wasserstein_plan, icp_restart,
                                  self_learn, vecmap_seed, SelfLearnConfig)
from conftest import (RotatedPair, make_spiral_pair, random_rotation,
                      words_for)


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def held_out_map(pair, rotated: RotatedPair) -> float:
    return bli_evaluate(pair, rotated.src, rotated.tgt,
                        rotated.test_lex).map_score


def test_criterion_1_rotation_recovery(clean_pair):
    start = time.monotonic()
    aligned = build_aligned_matrices(clean_pair.train_lex, clean_pair.src,
                                     clean_pair.tgt)
    pair = align_proc(aligned)
    assert np.linalg.norm(pair.w_src - clean_pair.rotation) < 1e-6
    assert held_out_map(pair, clean_pair) == 1.0
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, f"exact rotation recovered, held-out MAP 1.0 in {elapsed:.2f}s")


def test_criterion_2_noise_ladder():
    maps = []
    for sigma in (0.01, 0.05, 0.1):
        rotated = RotatedPair(sigma=sigma)
        aligned = build_aligned_matrices(rotated.train_lex, rotated.src,
                                         rotated.tgt)
        maps.append(held_out_map(align_proc(aligned), rotated))
    assert all(b <= a + 1e-12 for a, b in zip(maps, maps[1:]))
    assert maps[0] >= 0.95
    report(2, "MAP nonincreasing over sigma 0.01/0.05/0.1: "
              + "/".join(f"{m:.3f}" for m in maps))


def test_criterion_3_bootstrap_advantage(noisy_pair):
    seed = make_lexicon(noisy_pair.train_lex.pairs[:10])
    aligned = build_aligned_matrices(seed, noisy_pair.src, noisy_pair.tgt)
    base = held_out_map(align_proc(aligned), noisy_pair)
    boot_pair = align_proc_b(noisy_pair.src, noisy_pair.tgt, seed, iters=2)
    boot = held_out_map(boot_pair, noisy_pair)
    assert boot >= base
    assert boot_pair.metadata["dict_sizes"][-1] > len(seed)
    report(3, f"10-pair seed: bootstrapped MAP {boot:.3f} >= plain {base:.3f}, "
              f"dictionary grew to {boot_pair.metadata['dict_sizes'][-1]}")


def test_criterion_4_csls_oracle():
    rng = np.random.default_rng(17)
    src = rng.standard_normal((50, 12))
    tgt = rng.standard_normal((50, 12))
    su, tu = unit_rows(src), unit_rows(tgt)
    for n in (1, 5, 10):
        got = np.vstack([s for _, s in similarity_sweep(src, tgt, "csls", n)])
        for i in range(50):
            for j in range(50):
                cos_ij = float(su[i] @ tu[j])
                r_i = np.mean(sorted(su[i] @ tu.T)[::-1][:n])
                r_j = np.mean(sorted(tu[j] @ su.T)[::-1][:n])
                want = 2.0 * cos_ij - r_i - r_j
                assert abs(got[i, j] - want) < 1e-12
    report(4, "50x50 CSLS matches brute force to 1e-12 for N in {1,5,10}")


def test_criterion_5_map_mrr_identity(noisy_pair):
    aligned = build_aligned_matrices(noisy_pair.train_lex, noisy_pair.src,
                                     noisy_pair.tgt)
    res = bli_evaluate(align_proc(aligned), noisy_pair.src, noisy_pair.tgt,
                       noisy_pair.test_lex)
    assert all(len(r.golds) == 1 for r in res.records)
    mrr = float(np.mean([1.0 / r.best_rank for r in res.records]))
    assert abs(res.map_score - mrr) < 1e-12
    fixture = float(np.mean([average_precision_from_ranks([r])
                             for r in (1, 2, 4)]))
    assert fixture == pytest.approx(0.5833333333333334, abs=1e-12)
    report(5, "single-gold MAP == MRR; ranks {1,2,4} average 0.58333...")


def exact_gw_assignment(vectors_a, vectors_b):
    """Best permutation by enumeration of the squared cosine-cost mismatch."""
    c1 = cosine_matrix(vectors_a, vectors_a)
    c2 = cosine_matrix(vectors_b, vectors_b)
    n = len(c1)
    best, best_cost = None, np.inf
    for perm in itertools.permutations(range(n)):
        p = np.array(perm)
        cost = float(np.sum((c1 - c2[np.ix_(p, p)]) ** 2))
        if cost < best_cost:
            best, best_cost = p, cost
    return best


def test_criterion_6_gwa_micro_scale():
    start = time.monotonic()
    rng = np.random.default_rng(5)
    for cap in (4, 5, 6):
        vecs = rng.standard_normal((cap, 6))
        rot = random_rotation(6, rng)
        perm = rng.permutation(cap)
        other = (vecs @ rot)[perm]
        plan = gromov_wasserstein_plan(vecs, other)
        got = np.argmax(plan.gamma, axis=1)
        want = exact_gw_assignment(vecs, other)
        assert np.array_equal(got, want)
    cloud = rng.standard_normal((20, 8))
    space = WordVectorSpace(words_for(20), cloud)
    pair = align_gwa(space, space, cap=20)
    plan = gromov_wasserstein_plan(cloud, cloud)
    assert np.array_equal(np.argmax(plan.gamma, axis=1), np.arange(20))
    assert np.allclose(pair.w_src, np.eye(8), atol=1e-6)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(6, f"GW plan matches enumeration (caps 4-6) and identity at "
              f"cap 20 in {elapsed:.1f}s")


def test_criterion_7_icp_recovery(spiral_pair):
    src, tgt, test_lex = spiral_pair
    cfg = IcpConfig(pca_dim=3, top_n_words=300, lambda_cyc=1.0, restarts=20,
                    max_iters=400, seed=0)
    pair = align_icp(src, tgt, cfg)
    score = bli_evaluate(pair, src, tgt, test_lex).map_score
    assert score >= 0.8
    # Exact monotonicity of the alternating objective at lambda_cyc = 0,
    # checked per restart.
    p1 = pca_project(src.matrix[:300], 3)
    p2 = pca_project(tgt.matrix[:300], 3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        w0 = random_rotation(3, rng)
        *_, history = icp_restart(p1, p2, w0, lambda_cyc=0.0, max_iters=200)
        assert all(b <= a for a, b in zip(history, history[1:]))
    report(7, f"ICP restarts=20 held-out MAP {score:.3f}; lambda=0 loss "
              "exactly nonincreasing in each restart")


def test_criterion_8_vecmap_pipeline(noisy_pair):
    rng = np.random.default_rng(23)
    base = rng.standard_normal((80, 10))
    perm = rng.permutation(80)
    src = WordVectorSpace(words_for(80), base)
    tgt = WordVectorSpace(tuple(f"t{i:04d}" for i in range(80)), base[perm])
    seed_lex = vecmap_seed(src, tgt)
    inverse = np.argsort(perm)
    assert seed_lex.pairs == tuple(
        (src.words[i], tgt.words[int(inverse[i])]) for i in range(80))

    heur = vecmap_seed(noisy_pair.src, noisy_pair.tgt, cap=500)
    pair = self_learn(noisy_pair.src, noisy_pair.tgt, heur,
                      SelfLearnConfig(vocab_cap=500, seed=0))
    score = held_out_map(pair, noisy_pair)
    assert score >= 0.9
    report(8, f"seed heuristic exact on permuted copy; self-learning MAP "
              f"{score:.3f} on the sigma=0.05 fixture")


def test_criterion_9_rcsls_gradient(clean_pair):
    rng = np.random.default_rng(31)
    d, k, n = 5, 8, 2
    x_s = unit_rows(rng.standard_normal((k, d)))
    x_t = unit_rows(rng.standard_normal((k, d)))
    src_pool = unit_rows(rng.standard_normal((k + 4, d)))
    tgt_pool = unit_rows(rng.standard_normal((k + 4, d)))
    w = np.eye(d) + 0.05 * rng.standard_normal((d, d))
    nb = rcsls_neighbor_sets(w, x_s, x_t, src_pool, tgt_pool, n)
    analytic = rcsls_gradient(w, x_s, x_t, src_pool, tgt_pool, nb)
    h = 1e-6
    numeric = np.zeros_like(w)
    for i in range(d):
        for j in range(d):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += h
            wm[i, j] -= h
            numeric[i, j] = (
                rcsls_objective(wp, x_s, x_t, src_pool, tgt_pool, nb)
                - rcsls_objective(wm, x_s, x_t, src_pool, tgt_pool, nb)
            ) / (2 * h)
    rel = np.max(np.abs(analytic - numeric)
                 / np.maximum(np.abs(numeric), 1e-8))
    assert rel < 1e-4

    aligned = build_aligned_matrices(clean_pair.train_lex, clean_pair.src,
                                     clean_pair.tgt)
    scores = []
    for epochs in (1, 3, 5):
        pair = align_rcsls(aligned, clean_pair.src.matrix,
                           clean_pair.tgt.matrix, RcslsConfig(epochs=epochs))
        scores.append(held_out_map(pair, clean_pair))
    assert min(scores) >= 0.99
    report(9, f"gradient rel. error {rel:.2e} < 1e-4; descent keeps MAP >= "
              f"{min(scores):.3f}")


def test_criterion_10_statistics_calibration():
    trials, n = 5000, 20
    rng = np.random.default_rng(41)
    # Paired t-test under the null: both systems draw from the same normal.
    a = rng.standard_normal((trials, n))
    b = rng.standard_normal((trials, n))
    pvals = scipy_stats.ttest_rel(a, b, axis=1).pvalue
    t_rate = float(np.mean(pvals < 0.05))
    assert abs(t_rate - 0.05) <= 0.015
    # Shuffling test under the null, same construction.
    hits = 0
    for t in range(trials):
        p = shuffling_test(a[t], b[t], iterations=200, seed=t)
        hits += p < 0.05
    s_rate = hits / trials
    assert abs(s_rate - 0.05) <= 0.015
    assert bonferroni(0.05, 5) == 0.01
    assert paired_ttest([0.1, 0.4, 0.7], [0.1, 0.4, 0.7]) == 1.0
    assert shuffling_test([1.0, 2.0], [1.0, 2.0], iterations=500) == 1.0
    report(10, f"null rejection rates: t-test {t_rate:.3f}, shuffle "
               f"{s_rate:.3f}; bonferroni(0.05, 5) = 0.01; identical p = 1")


def test_criterion_11_clir_oracle(tmp_path):
    docs = {
        "d1": tokenize("apple apple banana"),
        "d2": tokenize("banana banana cherry"),
        "d3": tokenize("cherry cherry cherry"),
        "d4": tokenize("apple cherry"),
        "d5": tokenize("banana"),
    }
    queries = {"q1": tokenize("apple"), "q2": tokenize("banana cherry")}
    qrels = frozenset({("q1", "d1"), ("q1", "d4"), ("q2", "d2")})
    coll = DocumentCollection(docs=docs, queries=queries, qrels=qrels)
    space = WordVectorSpace(("apple", "banana", "cherry"), np.eye(3))
    weighting = idf_weighting(coll)

    # Hand-scored oracle: cosine of weighted averages, ties by doc id.
    doc_ids = sorted(docs)
    aps = []
    for qid in sorted(queries):
        q = aggregate_text(queries[qid], space, weighting)
        scored = []
        for did in doc_ids:
            d = aggregate_text(docs[did], space, weighting)
            denom = np.linalg.norm(q) * np.linalg.norm(d)
            scored.append((q @ d / denom if denom else 0.0, did))
        ranked = [did for _, did in
                  sorted(scored, key=lambda t: (-t[0], t[1]))]
        relevant = {d for qq, d in qrels if qq == qid}
        hits, precs = 0, []
        for rank, did in enumerate(ranked, 1):
            if did in relevant:
                hits += 1
                precs.append(hits / rank)
        aps.append(float(np.mean(precs)))
    oracle_map = float(np.mean(aps))

    run = clir_run(coll, identity_pair(3), space, space, weighting)
    assert run.map_score == pytest.approx(oracle_map, abs=1e-12)

    path = tmp_path / "run.trec"
    write_trec_run(run, path, tag="acceptance")
    back = read_trec_run(path)
    for qid, ranked in run.rankings.items():
        assert tuple(d for d, _, _ in back[qid]) == ranked
    report(11, f"toy CLIR MAP {run.map_score:.4f} equals hand scoring; "
               "TREC file round-trips")


FULL_SCALE_VARS = ("CLEMBED_FT_SRC", "CLEMBED_FT_TGT",
                   "CLEMBED_DICT_TRAIN", "CLEMBED_DICT_TEST")


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in FULL_SCALE_VARS),
    reason="full-scale smoke needs user-downloaded vectors and dictionaries "
           f"via {', '.join(FULL_SCALE_VARS)}")
def test_criterion_12_full_scale_smoke():
    src = load_text_embeddings(os.environ["CLEMBED_FT_SRC"], max_vocab=200000)
    tgt = load_text_embeddings(os.environ["CLEMBED_FT_TGT"], max_vocab=200000)
    train = load_lexicon(os.environ["CLEMBED_DICT_TRAIN"])
    test = load_lexicon(os.environ["CLEMBED_DICT_TEST"])
    aligned = build_aligned_matrices(train, src, tgt)
    pair = align_proc(aligned)
    score = bli_evaluate(pair, src, tgt, test).map_score
    assert 0.3 <= score <= 0.7
    report(12, f"full-scale Procrustes MAP {score:.3f} in [0.3, 0.7]")
