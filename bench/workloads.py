"""The three workloads: seeded inputs, one round of operations, checks, metrics.

A workload object has four parts. `setup` builds the inputs from the seed
(arrays for the library workloads, files for the CLI one). `run` performs
one round of operations through `Round.op`, which times each one and counts
it as attempted, and as failed when it raises or a command exits non-zero.
`check` compares the first round's outputs against independent
recomputations (`checks.py`) and returns a list of problems. `metrics`
turns the rounds into the end-to-end figures; every workload reports all
of them, from its own operations.

clembed is always reached through module attributes (`ev.bli_evaluate`),
so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import statistics
import time

import numpy as np

import clembed.cli as cli
import clembed.clir as clir
import clembed.embeddings as emb
import clembed.evaluation as ev
import clembed.lexicon as lexicon
import clembed.projection as projection
import clembed.supervised as sup
import clembed.unsupervised as unsup

import checks
import synth


class Round:
    """Operations of one pass over a workload, with their wall times."""

    def __init__(self):
        self.ops: list[tuple[str, float, bool]] = []
        self.results: dict[str, object] = {}
        self.wall_s = 0.0

    def op(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
        except Exception as exc:  # a failed operation is counted, not fatal
            result, ok = exc, False
        self.ops.append((name, time.perf_counter() - start, ok))
        self.results[name] = result
        return result

    def cli(self, name: str, argv: list[str]) -> str:
        """Run `clembed <argv>` in-process; returns what it printed."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.op(name, cli.main, argv)
        if code != 0:
            self.ops[-1] = (name, self.ops[-1][1], False)
            self.results[name] = RuntimeError(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def seconds(self, name: str) -> float:
        """Median time of the operation's runs in this round."""
        return statistics.median(t for n, t, _ in self.ops if n == name)

    def result(self, name: str):
        value = self.results[name]
        if isinstance(value, BaseException):
            raise RuntimeError(f"operation {name} failed: {value}") from value
        return value


def median_over(rounds, fn) -> float:
    return statistics.median(fn(r) for r in rounds)


def collection_texts(seed: int, g: dict, size: dict):
    return synth.clir_collection(
        seed, g["src_words"], g["tgt_words"], g["perm"], size["docs"],
        size["queries"], size["doc_len"], size["query_len"], size["rel"])


def library_collection(seed: int, g: dict, size: dict):
    docs, queries, qrels = collection_texts(seed, g, size)
    return clir.DocumentCollection(
        docs={i: tuple(t.split()) for i, t in docs},
        queries={i: tuple(t.split()) for i, t in queries},
        qrels=frozenset(qrels))


def read_summary(directory: str) -> dict:
    with open(os.path.join(directory, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_clir_run(run, collection) -> list[str]:
    got = checks.mean_ap_from_rankings(
        {q: list(r) for q, r in run.rankings.items()}, set(collection.qrels))
    if abs(got - run.map_score) > 1e-12:
        return [f"clir MAP {run.map_score} != recomputed {got}"]
    return []


def check_bli_counts(name: str, result, test_pairs) -> list[str]:
    problems = []
    sources = len({s for s, _ in test_pairs})
    if result.query_count + result.oov_skipped != sources:
        problems.append(f"{name}: {result.query_count} queries + "
                        f"{result.oov_skipped} OOV != {sources} sources")
    aps = [r.average_precision for r in result.records]
    if result.query_count != len(aps) or abs(np.mean(aps) - result.map_score) > 1e-12:
        problems.append(f"{name}: MAP is not the mean of the per-query APs")
    return problems


class Workload:
    """Inputs of one size; `notes` collects figures for the run record."""

    SIZES: dict[str, dict] = {}

    def __init__(self, size: str):
        self.size = self.SIZES[size]
        self.notes: dict[str, object] = {}


# --- bli-eval ---------------------------------------------------------------

class BliEval(Workload):
    """BLI ranking of the full target vocabulary with cosine and CSLS."""

    SIZES = {
        "full": dict(vocab=20000, dim=300, train=5000, test=100, multi=10,
                     oov=8, sample=8, clir=dict(docs=600, queries=200,
                                                doc_len=40, query_len=12, rel=3)),
        "smoke": dict(vocab=2000, dim=40, train=500, test=40, multi=4, oov=4,
                      sample=6, clir=dict(docs=60, queries=10, doc_len=20,
                                          query_len=5, rel=2)),
    }

    def setup(self, seed: int, workdir: str) -> dict:
        z = self.size
        g = synth.bli_spaces(seed, z["vocab"], z["dim"], z["train"], z["test"],
                             z["multi"], z["oov"])
        g["src"] = emb.WordVectorSpace(g["src_words"], g["x"])
        g["tgt"] = emb.WordVectorSpace(g["tgt_words"], g["y"])
        g["train_lex"] = lexicon.make_lexicon(g["train"])
        g["test_lex"] = lexicon.make_lexicon(g["test"])
        g["collection"] = library_collection(seed, g, z["clir"])
        g["seed"] = seed
        return g

    def sizes(self, g) -> dict:
        return {"vocab": len(g["src_words"]), "dim": g["x"].shape[1],
                "train_pairs": len(g["train"]), "test_pairs": len(g["test"]),
                "test_sources": len({s for s, _ in g["test"]}),
                "clir_docs": len(g["collection"].docs),
                "clir_queries": len(g["collection"].queries)}

    def run(self, g, rec: Round) -> None:
        src, tgt, test = g["src"], g["tgt"], g["test_lex"]

        def short_ops():
            pair = rec.op("align_proc", lambda: sup.align_proc(
                lexicon.build_aligned_matrices(g["train_lex"], src, tgt)))
            rec.op("bli_cosine", ev.bli_evaluate, pair, src, tgt, test)
            rec.op("clir", lambda: clir.clir_run(
                g["collection"], pair, src, tgt, clir.idf_weighting(g["collection"])))
            return pair

        # The long CSLS evaluation runs twice and the short operations seven
        # times, spread over the round (2 short, CSLS, 3 short, CSLS, 2
        # short), so that a slow spell of a shared host sets no median.
        for _ in range(2):
            pair = short_ops()
        rec.op("bli_csls", ev.bli_evaluate, pair, src, tgt, test, metric="csls")
        for _ in range(3):
            short_ops()
        rec.op("bli_csls", ev.bli_evaluate, pair, src, tgt, test, metric="csls")
        for _ in range(2):
            short_ops()

    def check(self, g, rec: Round) -> list[str]:
        pair = rec.result("align_proc")
        problems = []
        for name in ("bli_cosine", "bli_csls"):
            problems += check_bli_counts(name, rec.result(name), g["test"])
        tgt_index = {w: i for i, w in enumerate(g["tgt_words"])}
        src_index = {w: i for i, w in enumerate(g["src_words"])}
        tgt_unit = checks.unit(g["y"] @ pair.w_tgt)
        pool_unit = checks.unit(g["x"] @ pair.w_src)
        # a lower bound on each candidate's hubness: its top 10 in a sub-pool
        sub = tgt_unit @ pool_unit[:2048].T
        lower = np.partition(sub, sub.shape[1] - 10, axis=1)[:, -10:].mean(axis=1)
        rng = np.random.default_rng(g["seed"])
        for name in ("bli_cosine", "bli_csls"):
            records = rec.result(name).records
            for k in rng.choice(len(records), size=self.size["sample"], replace=False):
                r = records[k]
                golds = [tgt_index[w] for w in r.golds]
                q = g["x"][src_index[r.source]] @ pair.w_src
                if name == "bli_cosine":
                    scores = tgt_unit @ checks.unit(q)
                    ranks = [checks.rank_of(scores, j) for j in golds]
                else:
                    ranks = checks.csls_gold_ranks(q, tgt_unit, pool_unit, golds,
                                                   10, lower)
                want = (min(ranks), checks.average_precision(ranks))
                if (r.best_rank, r.average_precision) != want:
                    problems.append(f"{name} {r.source}: got ({r.best_rank}, "
                                    f"{r.average_precision}), brute force {want}")
        return problems + check_clir_run(rec.result("clir"), g["collection"])

    def metrics(self, g, rounds) -> dict:
        return {
            "align_s": median_over(rounds, lambda r: r.seconds("align_proc")),
            "bli_cosine_qps": median_over(rounds, lambda r: r.result(
                "bli_cosine").query_count / r.seconds("bli_cosine")),
            "bli_csls_qps": median_over(rounds, lambda r: r.result(
                "bli_csls").query_count / r.seconds("bli_csls")),
            "clir_qps": median_over(rounds, lambda r: len(
                g["collection"].queries) / r.seconds("clir")),
            "bli_map": float(np.mean([rounds[0].result(n).map_score
                                      for n in ("bli_cosine", "bli_csls")])),
            "clir_map": rounds[0].result("clir").map_score,
        }


# --- align-grid ---------------------------------------------------------------

class AlignGrid(Workload):
    """All eight aligners on one structured pair, each followed by cosine BLI."""

    ORTHOGONAL = ("proc", "proc-b", "dlv", "vecmap", "icp", "gwa")
    SIZES = {
        "full": dict(vocab=5000, dim=300, train=1500, test=120, rcsls_epochs=5,
                     vecmap_cap=2000, vecmap_rounds=10, icp_top=2500,
                     icp_restarts=1, icp_iters=4, gwa_cap=1000, gwa_iters=10,
                     clir=dict(docs=2000, queries=600, doc_len=40,
                               query_len=12, rel=3)),
        "smoke": dict(vocab=600, dim=30, train=200, test=40, rcsls_epochs=3,
                      vecmap_cap=300, vecmap_rounds=5, icp_top=300,
                      icp_restarts=1, icp_iters=3, gwa_cap=200, gwa_iters=5,
                      clir=dict(docs=60, queries=10, doc_len=20,
                                query_len=5, rel=2)),
    }

    def setup(self, seed: int, workdir: str) -> dict:
        z = self.size
        g = synth.grid_spaces(seed, z["vocab"], z["dim"], z["train"], z["test"])
        g["src"] = emb.WordVectorSpace(g["src_words"], g["x"])
        g["tgt"] = emb.WordVectorSpace(g["tgt_words"], g["y"])
        g["train_lex"] = lexicon.make_lexicon(g["train"])
        g["test_lex"] = lexicon.make_lexicon(g["test"])
        g["collection"] = library_collection(seed, g, z["clir"])
        return g

    def sizes(self, g) -> dict:
        return {"vocab": len(g["src_words"]), "dim": g["x"].shape[1],
                "train_pairs": len(g["train"]), "test_pairs": len(g["test"]),
                "clir_docs": len(g["collection"].docs),
                "clir_queries": len(g["collection"].queries)}

    def aligners(self, g):
        z, src, tgt, train = self.size, g["src"], g["tgt"], g["train_lex"]

        def aligned():
            return lexicon.build_aligned_matrices(train, src, tgt)

        def vecmap():
            seed_lex = unsup.vecmap_seed(src, tgt, cap=z["vecmap_cap"])
            return unsup.self_learn(src, tgt, seed_lex, unsup.SelfLearnConfig(
                vocab_cap=z["vecmap_cap"], metric="csls",
                max_rounds=z["vecmap_rounds"], seed=0))

        return {
            "proc": lambda: sup.align_proc(aligned()),
            "proc-b": lambda: sup.align_proc_b(src, tgt, train, iters=2,
                                               metric="csls"),
            "cca": lambda: sup.align_cca(aligned()),
            "dlv": lambda: sup.align_dlv(src, tgt, train),
            "rcsls": lambda: sup.align_rcsls(
                aligned(), src.matrix, tgt.matrix,
                sup.RcslsConfig(epochs=z["rcsls_epochs"])),
            "vecmap": vecmap,
            "icp": lambda: unsup.align_icp(src, tgt, unsup.IcpConfig(
                top_n_words=z["icp_top"], restarts=z["icp_restarts"],
                max_iters=z["icp_iters"], seed=0)),
            # a fixed number of Sinkhorn steps, so every seed does the same work
            "gwa": lambda: unsup.align_gwa(
                src, tgt, cap=z["gwa_cap"], lam=0.02, outer_iters=z["gwa_iters"],
                sinkhorn_max_iter=100, sinkhorn_tol=0.0),
        }

    def run(self, g, rec: Round) -> None:
        src, tgt, test = g["src"], g["tgt"], g["test_lex"]
        for i, (method, fn) in enumerate(self.aligners(g).items()):
            pair = rec.op(f"align_{method}", fn)
            rec.op(f"bli_{method}", ev.bli_evaluate, pair, src, tgt, test)
            proc = rec.result("align_proc")
            # The CSLS evaluation and the CLIR run of the proc map alternate
            # between the aligners, four times each, so that one slow spell
            # of a shared host does not set their median.
            if i % 2 == 0:
                rec.op("bli_csls_proc", ev.bli_evaluate, proc, src, tgt, test,
                       metric="csls")
            else:
                rec.op("clir", lambda: clir.clir_run(
                    g["collection"], proc, src, tgt,
                    clir.idf_weighting(g["collection"])))

    def check(self, g, rec: Round) -> list[str]:
        problems = []
        pairs = {m: rec.result(f"align_{m}") for m in self.aligners(g)}
        for m in self.ORTHOGONAL:
            w = pairs[m].w_src
            err = float(np.max(np.abs(w.T @ w - np.eye(w.shape[0]))))
            if err > 1e-6:
                problems.append(f"{m}: |W'W - I|_max = {err:.2e}")
        idx = [int(w[1:]) for w, _ in g["train"]]
        xs, ys = g["x"][idx], g["y"][g["perm"][idx]]
        res_proc = np.linalg.norm(xs @ pairs["proc"].w_src - ys)
        res_true = np.linalg.norm(xs @ g["rotation"] - ys)
        if res_proc > res_true * (1 + 1e-12):
            problems.append(f"proc residual {res_proc} > generating rotation's {res_true}")
        corr = np.array(pairs["cca"].metadata["correlations"])
        if corr.min() < 0 or corr.max() > 1 or np.any(np.diff(corr) > 0):
            problems.append("cca correlations leave [0, 1] or increase")
        xs_u, ys_u = checks.unit(xs), checks.unit(ys)
        start = checks.rcsls_objective(
            checks.procrustes(xs_u, ys_u), xs_u, ys_u, checks.unit(g["x"]),
            checks.unit(g["y"]), pairs["rcsls"].metadata["neighborhood"])
        if pairs["rcsls"].metadata["final_objective"] > start + 1e-9:
            problems.append(f"rcsls objective {pairs['rcsls'].metadata['final_objective']}"
                            f" worse than its Procrustes start {start}")
        baseline = ev.bli_evaluate(projection.identity_pair(g["x"].shape[1]),
                                   g["src"], g["tgt"], g["test_lex"]).map_score
        self.notes["identity_map"] = baseline
        for m in pairs:
            result = rec.result(f"bli_{m}")
            self.notes[f"map_{m}"] = result.map_score
            problems += check_bli_counts(f"bli_{m}", result, g["test"])
            if m != "icp" and result.map_score <= baseline:
                problems.append(f"{m}: MAP {result.map_score:.4f} not above the "
                                f"identity baseline {baseline:.4f}")
        history = pairs["icp"].metadata["loss_history"]
        if not history or not all(math.isfinite(v) for v in history):
            problems.append("icp: empty or non-finite loss history")
        return problems + check_clir_run(rec.result("clir"), g["collection"])

    def metrics(self, g, rounds) -> dict:
        methods = list(self.aligners(g))

        def cosine_qps(r):
            queries = sum(r.result(f"bli_{m}").query_count for m in methods)
            return queries / sum(r.seconds(f"bli_{m}") for m in methods)

        first = rounds[0]
        maps = [first.result(f"bli_{m}").map_score for m in methods]
        maps.append(first.result("bli_csls_proc").map_score)
        return {
            "align_s": median_over(rounds, lambda r: sum(
                r.seconds(f"align_{m}") for m in methods)),
            "bli_cosine_qps": median_over(rounds, cosine_qps),
            "bli_csls_qps": median_over(rounds, lambda r: r.result(
                "bli_csls_proc").query_count / r.seconds("bli_csls_proc")),
            "clir_qps": median_over(rounds, lambda r: len(
                g["collection"].queries) / r.seconds("clir")),
            "bli_map": float(np.mean(maps)),
            "clir_map": first.result("clir").map_score,
        }


# --- cli-pipeline ---------------------------------------------------------------

TREC_DEPTH = 1000  # documents per query that eval-clir writes to run.trec


class CliPipeline(Workload):
    """The `clembed` command line end to end, one command after another."""

    STEPS = "unit-length,mean-center,unit-length"
    SIZES = {
        "full": dict(vocab=20000, dim=300, train_sizes=(1000, 5000), test=100,
                     csls_vocab=6000, fasttext_rows=200, sample=5,
                     clir=dict(docs=2000, queries=300, doc_len=50,
                               query_len=12, rel=3)),
        "smoke": dict(vocab=2000, dim=30, train_sizes=(100, 500), test=50,
                      csls_vocab=1000, fasttext_rows=50, sample=3,
                      clir=dict(docs=100, queries=10, doc_len=20,
                                query_len=5, rel=2)),
    }

    def setup(self, seed: int, workdir: str) -> dict:
        z = self.size
        g = synth.bli_spaces(seed, z["vocab"], z["dim"], max(z["train_sizes"]),
                             1, 0, 0)
        os.makedirs(workdir, exist_ok=True)
        p = {k: os.path.join(workdir, k) for k in (
            "src.vec", "tgt.vec", "src.norm.vec", "dict.txt", "ft.vec", "splits",
            "proj", "bli-cosine", "bli-csls", "clir")}
        synth.write_vectors(p["src.vec"], g["src_words"], g["x"])
        synth.write_vectors(p["tgt.vec"], g["tgt_words"], g["y"])
        rows = z["fasttext_rows"]
        synth.write_vectors(p["ft.vec"], g["tgt_words"][:rows], g["y"][:rows],
                            trailing_space=True)
        synth.write_pairs(p["dict.txt"], [(g["src_words"][i], g["tgt_words"][j])
                                          for i, j in enumerate(g["perm"])])
        docs, queries, qrels = collection_texts(seed, g, z["clir"])
        p.update(synth.write_collection(workdir, docs, queries, qrels))
        g.update(paths=p, docs=dict(docs), queries=dict(queries), qrels=set(qrels),
                 seed=seed)
        return g

    def sizes(self, g) -> dict:
        z = self.size
        return {"vocab": len(g["src_words"]), "dim": g["x"].shape[1],
                "dictionary_pairs": len(g["src_words"]),
                "train_sizes": list(z["train_sizes"]), "test_pairs": z["test"],
                "csls_max_vocab": z["csls_vocab"],
                "fasttext_rows": z["fasttext_rows"],
                "space_file_mb": round(os.path.getsize(g["paths"]["src.vec"]) / 2**20, 1),
                "clir_docs": len(g["docs"]), "clir_queries": len(g["queries"])}

    def run(self, g, rec: Round) -> None:
        z, p = self.size, g["paths"]
        largest = max(z["train_sizes"])
        rec.cli("preprocess", ["preprocess", "--input", p["src.vec"],
                               "--output", p["src.norm.vec"], "--steps", self.STEPS])
        rec.cli("dict-split", ["dict-split", "--input", p["dict.txt"],
                               "--train-sizes", ",".join(map(str, z["train_sizes"])),
                               "--test-size", str(z["test"]), "--outdir", p["splits"]])
        spaces = ["--src-emb", p["src.norm.vec"], "--tgt-emb", p["tgt.vec"]]
        test = os.path.join(p["splits"], "test.txt")

        def align_and_evaluate():
            rec.cli("align", ["align", "--method", "proc", *spaces, "--dict",
                              os.path.join(p["splits"], f"train.{largest}.txt"),
                              "--outdir", p["proj"]])
            rec.cli("eval-bli-cosine", ["eval-bli", "--proj", p["proj"], *spaces,
                                        "--test-dict", test,
                                        "--outdir", p["bli-cosine"],
                                        "--method-label", "proc-cosine",
                                        "--pair-label", "src-tgt"])
            rec.cli("eval-bli-csls", ["eval-bli", "--proj", p["proj"], *spaces,
                                      "--test-dict", test, "--metric", "csls",
                                      "--max-vocab", str(z["csls_vocab"]),
                                      "--outdir", p["bli-csls"],
                                      "--method-label", "proc-csls",
                                      "--pair-label", "src-tgt"])
            rec.cli("eval-clir", ["eval-clir", "--proj", p["proj"],
                                  "--query-emb", p["src.norm.vec"],
                                  "--doc-emb", p["tgt.vec"], "--docs", p["docs"],
                                  "--queries", p["queries"], "--qrels", p["qrels"],
                                  "--weighting", "idf", "--outdir", p["clir"]])

        # The commands behind the per-command metrics run twice, apart, so
        # that one slow spell of a shared host does not set their median.
        align_and_evaluate()
        report = os.path.join(p["bli-cosine"], "report.tsv")
        for test_name in ("ttest", "shuffle"):
            rec.results[f"compare-{test_name}.out"] = rec.cli(
                f"compare-{test_name}", ["compare", "--run-a", report,
                                         "--run-b", report, "--test", test_name])
        rec.results["table.out"] = rec.cli("table", [
            "table", os.path.join(p["bli-cosine"], "summary.json"),
            os.path.join(p["bli-csls"], "summary.json")])
        rec.op("load-fasttext", emb.load_text_embeddings, p["ft.vec"])
        align_and_evaluate()

    def check(self, g, rec: Round) -> list[str]:
        z, p = self.size, g["paths"]
        for name in ("preprocess", "dict-split", "align", "eval-bli-cosine",
                     "eval-bli-csls", "eval-clir", "compare-ttest",
                     "compare-shuffle", "table"):
            rec.result(name)
        problems = []
        # preprocess: same words in the same order, unit rows, the chain's values
        words, matrix = synth.read_vectors(p["src.norm.vec"])
        x = np.rint(g["x"] * 1e5) / 1e5            # exactly what the file holds
        want = checks.unit(checks.unit(x) - checks.unit(x).mean(axis=0))
        if words != list(g["src_words"]):
            problems.append("preprocess changed the words or their order")
        if np.max(np.abs(np.linalg.norm(matrix, axis=1) - 1.0)) > 1e-4 \
                or np.max(np.abs(matrix - want)) > 1e-5:
            problems.append("preprocess output is not the unit/center/unit chain")
        # dict-split: frequency-ordered prefix and the disjoint slice after it
        largest = max(z["train_sizes"])
        with open(p["dict.txt"], encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(os.path.join(p["splits"], f"train.{largest}.txt"), encoding="utf-8") as fh:
            if fh.readlines() != lines[:largest]:
                problems.append("dict-split train prefix differs")
        with open(os.path.join(p["splits"], "test.txt"), encoding="utf-8") as fh:
            test_lines = fh.readlines()
        if test_lines != lines[largest:largest + z["test"]]:
            problems.append("dict-split test slice differs")
        # align: orthogonal w_src
        w_src = np.loadtxt(os.path.join(p["proj"], "w_src.txt"))
        w_tgt = np.loadtxt(os.path.join(p["proj"], "w_tgt.txt"))
        if np.max(np.abs(w_src.T @ w_src - np.eye(w_src.shape[0]))) > 1e-6:
            problems.append("align proc: w_src is not orthogonal")
        # eval-bli: the report reads back to the summary; sampled ranks by brute force
        y = np.rint(g["y"] * 1e5) / 1e5
        tgt_index = {w: i for i, w in enumerate(g["tgt_words"])}
        rng = np.random.default_rng(g["seed"])
        for name in ("bli-cosine", "bli-csls"):
            rows = checks.read_report(os.path.join(p[name], "report.tsv"))
            summary = read_summary(p[name])
            if [(r.source, r.golds, r.best_rank, r.average_precision)
                    for r in ev.read_bli_report(os.path.join(p[name], "report.tsv"))] != rows:
                problems.append(f"{name}: report.tsv does not read back the same")
            if len(rows) != summary["query_count"] or abs(
                    np.mean([r[3] for r in rows]) - summary["map"]) > 1e-9:
                problems.append(f"{name}: report.tsv disagrees with summary.json")
        tgt_unit = checks.unit(y @ w_tgt)
        rows = checks.read_report(os.path.join(p["bli-cosine"], "report.tsv"))
        src_index = {w: i for i, w in enumerate(words)}
        for k in rng.choice(len(rows), size=z["sample"], replace=False):
            source, golds, best, ap = rows[k]
            scores = tgt_unit @ checks.unit(matrix[src_index[source]] @ w_src)
            ranks = [checks.rank_of(scores, tgt_index[t]) for t in golds]
            if best != min(ranks) or abs(ap - checks.average_precision(ranks)) > 1e-10:
                problems.append(f"eval-bli {source}: rank {best} != brute force {min(ranks)}")
        # eval-clir: every ranking and the MAP recomputed from idf-weighted means
        run = checks.read_trec(os.path.join(p["clir"], "run.trec"))
        want = checks.clir_rankings(
            {q: t.split() for q, t in g["queries"].items()},
            {d: t.split() for d, t in g["docs"].items()},
            src_index, matrix, tgt_index, y, w_src, w_tgt)
        if any(run.get(q) != r[:TREC_DEPTH] for q, r in want.items()):
            problems.append("eval-clir: run.trec differs from the idf-weighted ranking")
        summary_map = read_summary(p["clir"])["map"]
        full_map = checks.mean_ap_from_rankings(want, g["qrels"])
        if abs(summary_map - full_map) > 1e-9:
            problems.append(f"eval-clir MAP {summary_map} != recomputed {full_map}")
        self.notes["clir_map_from_run_trec"] = checks.mean_ap_from_rankings(run, g["qrels"])
        # compare a report with itself: p = 1 under both tests
        for test_name in ("ttest", "shuffle"):
            out = rec.result(f"compare-{test_name}.out")
            if not re.search(r"\bp=1\b", out):
                problems.append(f"compare {test_name} of a report with itself: {out.strip()}")
        table = rec.result("table.out")
        if not ("proc-cosine" in table and "proc-csls" in table):
            problems.append("table lacks a method row")
        return problems

    def metrics(self, g, rounds) -> dict:
        p = g["paths"]
        bli = [read_summary(p[n]) for n in ("bli-cosine", "bli-csls")]
        return {
            "align_s": median_over(rounds, lambda r: r.seconds("align")),
            "bli_cosine_qps": median_over(rounds, lambda r: bli[0]["query_count"]
                                          / r.seconds("eval-bli-cosine")),
            "bli_csls_qps": median_over(rounds, lambda r: bli[1]["query_count"]
                                        / r.seconds("eval-bli-csls")),
            "clir_qps": median_over(rounds, lambda r: len(g["queries"])
                                    / r.seconds("eval-clir")),
            "bli_map": float(np.mean([s["map"] for s in bli])),
            "clir_map": read_summary(p["clir"])["map"],
        }


WORKLOADS = {"bli-eval": BliEval, "align-grid": AlignGrid,
             "cli-pipeline": CliPipeline}
