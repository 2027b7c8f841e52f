"""Tests of the benchmark itself, at smoke size (seconds, not minutes).

    python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import synth  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

# operations per round that fail on today's code: the fastText-style load
EXPECTED_FAILURES = {"bli-eval": 0, "align-grid": 0, "cli-pipeline": 1}


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                     "1", "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    ops_per_round = result["attempted"] / json.loads(
        proc.stdout.strip().splitlines()[-2])["rounds"]
    assert result["failed"] * ops_per_round == \
        EXPECTED_FAILURES[workload] * result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "bli-eval", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_text_writer_round_trips_exactly(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.uniform(-9.9, 9.9, (7, 5))
    m[0, 0] = -0.000004                      # rounds to zero: no "-0.00000"
    path = str(tmp_path / "v.vec")
    synth.write_vectors(path, [f"w{i}" for i in range(7)], m, trailing_space=True)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "7 5" and lines[1].startswith("w0 0.00000 ")
    assert all(line.endswith(" ") for line in lines[1:])
    words, back = synth.read_vectors(path)
    assert words == [f"w{i}" for i in range(7)]
    assert np.array_equal(back, np.rint(m * 1e5) / 1e5)


def test_csls_ranks_match_a_full_computation():
    rng = np.random.default_rng(1)
    tgt = checks.unit(rng.standard_normal((300, 8)))
    pool = checks.unit(rng.standard_normal((250, 8)))
    hub = checks.topn_mean_sorted(tgt @ pool.T, 5)
    sub = tgt @ pool[:40].T
    lower = np.sort(sub, axis=1)[:, -5:].mean(axis=1)
    for _ in range(20):
        q = rng.standard_normal(8)
        scores = 2 * tgt @ checks.unit(q) - hub
        golds = rng.choice(300, size=2, replace=False).tolist()
        assert checks.csls_gold_ranks(q, tgt, pool, golds, 5, lower) == \
            [checks.rank_of(scores, g) for g in golds]


def test_tracer_rebinds_every_name_and_restores_them():
    import clembed
    import clembed.evaluation as ev
    import clembed.similarity as sim
    original = sim.csls_hubness
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ev.csls_hubness is sim.csls_hubness is not original
        assert clembed.bli_evaluate is ev.bli_evaluate
        sim.cosine_matrix(np.eye(3), np.eye(3))
    finally:
        tracer.uninstall()
    assert ev.csls_hubness is original and sim.csls_hubness is original
    totals = tracer.summary()
    assert totals["similarity.cosine_matrix.calls"] == 1
    assert totals["similarity.unit_rows.calls"] == 2
    assert totals["similarity.unit_rows.rows"] == 6
    assert totals["similarity.self_s"] == pytest.approx(
        totals["similarity.cosine_matrix.s"])
