"""The paper's evaluation shape, each test run once in a fresh process.

V = 200k words per side, d = 300. One test aligns with a 5k-pair training
dictionary and runs a CSLS `bli_evaluate` over the full target vocabulary
and `align_proc_b` with CSLS at search cap 20000. Another runs two epochs
of `align_rcsls` over both full vocabularies on the same dictionary, then a
cosine `bli_evaluate`. Another runs `align_gwa` at its default cap (2000
words per side) and 30 outer iterations. Another takes VecMap's seed
dictionary at its default cap (4000 words) and one CSLS self-learning round
over the 20000 most frequent words. The last runs an idf-weighted
`clir_run` of 200 queries over 50k documents of 100 tokens each, with 5
relevant documents per query. Another saves a 200k x 300 space, which
writes its companion, then loads the 20000 most frequent words, and 1000
of them by `needed`, from that companion. Each process's peak resident
set must stay under 6 GiB, so that the paper's configuration runs on a
7 GB machine.

Marked `slow` (several minutes, several GB): deselected by default, run
with `pytest -m slow tests/test_paper_scale.py`.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import clembed

RSS_BUDGET_KIB = 6 * 2 ** 20

# The paper's BLI shape: a noisy rotated pair and 5k training pairs drawn
# from its 20k most frequent words, with 1000 more as test pairs.
BLI_SPACES = textwrap.dedent("""
    import json, resource, time
    import numpy as np
    from clembed.embeddings import WordVectorSpace
    from clembed.evaluation import bli_evaluate
    from clembed.lexicon import build_aligned_matrices, make_lexicon
    from clembed.supervised import (RcslsConfig, align_proc, align_proc_b,
                                    align_rcsls)

    vocab, dim, train, test = 200_000, 300, 5000, 1000
    rng = np.random.default_rng(0)
    x = rng.standard_normal((vocab, dim))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    y = x @ q
    y += 0.3 * rng.standard_normal((vocab, dim))
    words = tuple(f"w{i}" for i in range(vocab))
    src, tgt = WordVectorSpace(words, x), WordVectorSpace(words, y)
    del x, y
    pick = rng.permutation(20_000)
    train_lex = make_lexicon((words[i], words[i]) for i in pick[:train])
    test_lex = make_lexicon((words[i], words[i])
                            for i in pick[train:train + test])
""")

SCRIPT = BLI_SPACES + textwrap.dedent("""
    start = time.perf_counter()
    pair = align_proc(build_aligned_matrices(train_lex, src, tgt))
    csls = bli_evaluate(pair, src, tgt, test_lex, metric="csls")
    eval_s = time.perf_counter() - start
    start = time.perf_counter()
    boot = align_proc_b(src, tgt, train_lex, metric="csls", search_cap=20000)
    print(json.dumps({
        "csls_map": csls.map_score, "queries": csls.query_count,
        "eval_s": eval_s, "proc_b_s": time.perf_counter() - start,
        "dict_size": boot.metadata["dict_size"],
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
""")

# RCSLS over the full 200k-word pools of both sides: each epoch takes the
# nearest neighbours of 5000 training pairs among all 200k words, per side.
RCSLS_SCRIPT = BLI_SPACES + textwrap.dedent("""
    start = time.perf_counter()
    pair = align_rcsls(build_aligned_matrices(train_lex, src, tgt),
                       src.matrix, tgt.matrix, RcslsConfig(epochs=2))
    rcsls_s = time.perf_counter() - start
    cosine = bli_evaluate(pair, src, tgt, test_lex)
    print(json.dumps({
        "map": cosine.map_score, "queries": cosine.query_count,
        "rcsls_s": rcsls_s, "epochs": pair.metadata["epochs"],
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
""")

# Gromov-Wasserstein transport between the 2000 most frequent words of each
# side, at align_gwa's defaults: 30 outer iterations of up to 1000 Sinkhorn
# steps each, to a marginal tolerance of 1e-9.
GWA_SCRIPT = BLI_SPACES + textwrap.dedent("""
    from clembed.unsupervised import align_gwa

    start = time.perf_counter()
    pair = align_gwa(src, tgt)
    print(json.dumps({
        "gwa_s": time.perf_counter() - start,
        "dict_size": pair.metadata["dict_size"],
        "outer_iters": pair.metadata["outer_iters"],
        "marginal_violation": pair.metadata["marginal_violation"],
        "distinct_targets": pair.metadata["distinct_targets"],
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
""")

# VecMap's configuration: the seed dictionary from the sorted similarity
# profiles of the 4000 most frequent words per side, then one round of
# stochastic self-learning over the 20000 most frequent, under CSLS.
VECMAP_SCRIPT = BLI_SPACES + textwrap.dedent("""
    from clembed.unsupervised import SelfLearnConfig, self_learn, vecmap_seed

    start = time.perf_counter()
    seed_lex = vecmap_seed(src, tgt, cap=4000)
    seed_s = time.perf_counter() - start
    start = time.perf_counter()
    pair = self_learn(src, tgt, seed_lex, SelfLearnConfig(
        vocab_cap=20000, metric="csls", max_rounds=1))
    print(json.dumps({
        "seed_pairs": len(seed_lex), "seed_s": seed_s,
        "self_learn_s": time.perf_counter() - start,
        "rounds": pair.metadata["rounds"],
        "dict_size": pair.metadata["dict_size"],
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
""")


CLIR_SCRIPT = textwrap.dedent("""
    import json, resource, time
    import numpy as np
    from clembed.clir import DocumentCollection, clir_run, idf_weighting
    from clembed.embeddings import WordVectorSpace
    from clembed.projection import ProjectionPair

    vocab, dim, n_docs, doc_len, n_queries, query_len, n_relevant = (
        200_000, 300, 50_000, 100, 200, 10, 5)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((vocab, dim))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    y = x @ q
    y += 0.3 * rng.standard_normal((vocab, dim))
    words = tuple(f"w{i}" for i in range(vocab))
    src, tgt = WordVectorSpace(words, x), WordVectorSpace(words, y)
    del x, y
    # Zipfian word choice, so that idf varies. Query k has n_relevant
    # relevant documents: document n_relevant * k, whose tokens it draws
    # query_len of, and the next n_relevant - 1, which hold the same tokens
    # in other orders
    zipf = 1.0 / np.arange(1, vocab + 1)
    ids = rng.choice(vocab, size=(n_docs, doc_len), p=zipf / zipf.sum())
    for first in range(0, n_relevant * n_queries, n_relevant):
        for k in range(first + 1, first + n_relevant):
            ids[k] = rng.permutation(ids[first])
    docs = {f"d{k:05d}": tuple(words[i] for i in row.tolist())
            for k, row in enumerate(ids)}
    relevant = {f"q{k:03d}": [f"d{n_relevant * k + j:05d}"
                              for j in range(n_relevant)]
                for k in range(n_queries)}
    queries = {qid: tuple(rng.choice(docs[dids[0]], size=query_len))
               for qid, dids in relevant.items()}
    collection = DocumentCollection(
        docs=docs, queries=queries,
        qrels=frozenset((qid, did) for qid, dids in relevant.items()
                        for did in dids))
    pair = ProjectionPair(w_src=q, w_tgt=np.eye(dim), orthogonal_src=True,
                          method="rotation")
    start = time.perf_counter()
    weighting = idf_weighting(collection)
    run = clir_run(collection, pair, src, tgt, weighting)
    print(json.dumps({
        "clir_map": run.map_score, "scored_queries": run.scored_queries,
        "relevant_ranks": len(run.relevant_ranks),
        "docs_ranked": len(run.rankings["q000"]),
        "clir_s": time.perf_counter() - start,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
""")


# The paper's 200k-word prefix of a saved file: the save writes the text
# and its companion, one chunk at a time; the loads that follow are served
# from the companion's first chunks.
SAVE_SCRIPT = textwrap.dedent("""
    import json, os, resource, sys, time
    import numpy as np
    from clembed.embeddings import (WordVectorSpace, load_text_embeddings,
                                    save_text_embeddings)

    vocab, dim, prefix, needed = 200_000, 300, 20_000, 1000
    rng = np.random.default_rng(0)
    words = tuple(f"w{i}" for i in range(vocab))
    space = WordVectorSpace(words, rng.standard_normal((vocab, dim)))
    path = os.path.join(sys.argv[1], "vec.txt")
    start = time.perf_counter()
    save_text_embeddings(space, path)
    save_s = time.perf_counter() - start
    start = time.perf_counter()
    head = load_text_embeddings(path, max_vocab=prefix)
    prefix_s = time.perf_counter() - start
    wanted = {words[i] for i in rng.choice(prefix, needed, replace=False)}
    start = time.perf_counter()
    kept = load_text_embeddings(path, needed=iter(wanted))
    needed_s = time.perf_counter() - start
    print(json.dumps({
        "save_s": save_s, "prefix_s": prefix_s, "needed_s": needed_s,
        "prefix_words": head.words == words[:prefix],
        "prefix_close": bool(np.allclose(head.matrix, space.matrix[:prefix],
                                         rtol=1e-5, atol=0)),
        "needed_words": set(kept.words) == wanted,
        "needed_rows": bool(np.array_equal(
            kept.matrix, head.matrix[[head.index[w] for w in kept.words]])),
        "text_mb": os.path.getsize(path) / 2 ** 20,
        "companion_mb": os.path.getsize(path + ".clembed.npz") / 2 ** 20,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
""")


def run_script(script: str, *args: str) -> dict:
    """Run `script` with `args` in a fresh interpreter; its last stdout
    line, as JSON."""
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(clembed.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=3600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    print(report)
    return report


@pytest.mark.slow
def test_paper_shape_csls_runs_within_the_memory_budget():
    report = run_script(SCRIPT)
    assert report["queries"] == 1000
    assert report["csls_map"] > 0.9
    assert report["dict_size"] > 5000
    assert report["maxrss_kib"] < RSS_BUDGET_KIB


@pytest.mark.slow
def test_paper_shape_rcsls_runs_within_the_memory_budget():
    report = run_script(RCSLS_SCRIPT)
    assert report["epochs"] == 2
    assert report["queries"] == 1000
    assert report["map"] > 0.9
    assert report["maxrss_kib"] < RSS_BUDGET_KIB


@pytest.mark.slow
def test_paper_shape_gwa_runs_within_the_memory_budget():
    report = run_script(GWA_SCRIPT)
    assert report["dict_size"] == 2000
    assert report["outer_iters"] == 30
    assert report["marginal_violation"] < 1e-6
    assert report["maxrss_kib"] < RSS_BUDGET_KIB


@pytest.mark.slow
def test_paper_shape_vecmap_runs_within_the_memory_budget():
    report = run_script(VECMAP_SCRIPT)
    assert report["seed_pairs"] == 4000
    assert report["rounds"] == 1
    assert report["dict_size"] > 0
    assert report["maxrss_kib"] < RSS_BUDGET_KIB


@pytest.mark.slow
def test_paper_shape_clir_runs_within_the_memory_budget():
    report = run_script(CLIR_SCRIPT)
    assert report["scored_queries"] == 200
    assert report["relevant_ranks"] == 1000
    assert report["docs_ranked"] == 50_000
    assert report["clir_map"] > 0.5    # a random ranking averages ~2e-4
    assert report["maxrss_kib"] < RSS_BUDGET_KIB


@pytest.mark.slow
def test_paper_shape_save_and_prefix_loads_run_within_the_memory_budget(
        tmp_path):
    report = run_script(SAVE_SCRIPT, str(tmp_path))
    assert report["prefix_words"] and report["prefix_close"]
    assert report["needed_words"] and report["needed_rows"]
    assert report["maxrss_kib"] < RSS_BUDGET_KIB
