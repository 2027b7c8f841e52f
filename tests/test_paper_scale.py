"""The paper's evaluation shape, run once in a fresh process.

V = 200k words per side, d = 300, a 5k-pair training dictionary: a CSLS
`bli_evaluate` over the full target vocabulary and `align_proc_b` with
CSLS at search cap 20000. The process's peak resident set must stay under
6 GiB, so that the paper's configuration runs on a 7 GB machine.

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

SCRIPT = textwrap.dedent("""
    import json, resource, time
    import numpy as np
    from clembed.embeddings import WordVectorSpace
    from clembed.evaluation import bli_evaluate
    from clembed.lexicon import build_aligned_matrices, make_lexicon
    from clembed.supervised import align_proc, align_proc_b

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


@pytest.mark.slow
def test_paper_shape_csls_runs_within_the_memory_budget():
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(clembed.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=3600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    print(report)
    assert report["queries"] == 1000
    assert report["csls_map"] > 0.9
    assert report["dict_size"] > 5000
    assert report["maxrss_kib"] < RSS_BUDGET_KIB
