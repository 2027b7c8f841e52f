"""Batch command-line surface.

Subcommands: preprocess, dict-split, align, eval-bli, compare, eval-clir,
table. Flags mirror the config keys; a flat INI-style config file can
supply defaults (section.key), with explicit flags winning. Outputs are
staged in a temporary directory and renamed into place once all are
written, so failures never leave partial results behind.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import tempfile
import time
from functools import partial

import numpy as np

from . import clir as clir_mod
from .embeddings import (PreprocessChain, load_text_embeddings, normalize,
                         save_text_embeddings)
from .evaluation import (bli_evaluate, bli_summary, bonferroni, paired_ttest,
                         read_bli_report, shuffling_test, write_bli_report)
from .lexicon import (build_aligned_matrices, frequency_split, load_lexicon,
                      save_lexicon)
from .projection import load_projection, save_matrix_text
from .supervised import (RcslsConfig, align_cca, align_dlv, align_proc,
                         align_proc_b, align_rcsls)
from .unsupervised import (IcpConfig, SelfLearnConfig, align_gwa, align_icp,
                           self_learn, vecmap_seed)

METHODS = ("proc", "proc-b", "cca", "dlv", "rcsls", "vecmap", "icp", "gwa")
STOCHASTIC_METHODS = ("vecmap", "icp")


class CliError(Exception):
    pass


def _write_staged(outdir: str, writers: dict) -> None:
    """Write files into `outdir`, all of them or none: each writer(path) fills
    a file in a temporary directory there, and only once every writer has
    returned are the files renamed into place, in the given order."""
    os.makedirs(outdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=outdir, prefix=".tmp-") as staging:
        for name, write in writers.items():
            write(os.path.join(staging, name))
        for name in writers:
            os.replace(os.path.join(staging, name), os.path.join(outdir, name))


def _write_json(record: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _require_file(path: str, what: str) -> str:
    if path is None:
        raise CliError(f"missing required {what}")
    if not os.path.exists(path):
        raise CliError(f"{what} not found: {path}")
    return path


def load_config(path: str) -> dict:
    parser = configparser.ConfigParser()
    if not parser.read(path, encoding="utf-8"):
        raise CliError(f"config not found: {path}")
    flat = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            flat[f"{section}.{key}"] = value
    return flat


def _fill(args: argparse.Namespace, config_key: str, attr: str, cast,
          default=None):
    """Resolve flag -> config -> default for one option."""
    if getattr(args, attr, None) is not None:
        return
    config = getattr(args, "_config", {})
    if config_key in config:
        setattr(args, attr, cast(config[config_key]))
    else:
        setattr(args, attr, default)


def _load_space(path: str, max_vocab, tag: str):
    return load_text_embeddings(_require_file(path, f"{tag} embeddings"),
                                max_vocab=max_vocab, lang_tag=tag)


def cmd_preprocess(args) -> int:
    space = _load_space(args.input, args.max_vocab, "input")
    steps = tuple(s for s in (args.steps or "").split(",") if s)
    out = normalize(space, PreprocessChain(steps=steps))
    outdir, name = os.path.split(os.path.abspath(args.output))
    _write_staged(outdir, {name: partial(save_text_embeddings, out)})
    print(f"wrote {len(out)} x {out.dim} embeddings to {args.output}")
    return 0


def cmd_dict_split(args) -> int:
    lex = load_lexicon(_require_file(args.input, "dictionary"))
    train_sizes = [int(s) for s in args.train_sizes.split(",")]
    trains, test = frequency_split(lex, train_sizes, args.test_size)
    writers = {f"train.{size}.txt": partial(save_lexicon, train)
               for size, train in zip(train_sizes, trains)}
    writers["test.txt"] = partial(save_lexicon, test)
    _write_staged(args.outdir, writers)
    print(f"wrote {len(trains)} train splits and a {len(test)}-pair test set "
          f"to {args.outdir}")
    return 0


def _run_aligner(args, src_space, tgt_space):
    method = args.method
    if method in ("proc", "cca", "rcsls"):
        lex = load_lexicon(_require_file(args.dict, "training dictionary"))
        aligned = build_aligned_matrices(lex, src_space, tgt_space)
        if method == "proc":
            return align_proc(aligned)
        if method == "cca":
            keep = "all" if args.keep_dims in (None, "all") else int(args.keep_dims)
            return align_cca(aligned, keep_dims=keep)
        cfg = RcslsConfig(neighborhood=args.csls_n or 10,
                          learning_rate=args.learning_rate or 1.0,
                          epochs=args.epochs or 10)
        return align_rcsls(aligned, src_space.matrix, tgt_space.matrix, cfg)
    if method == "proc-b":
        lex = load_lexicon(_require_file(args.dict, "training dictionary"))
        iters = {} if args.iters is None else {"iters": args.iters}
        return align_proc_b(src_space, tgt_space, lex,
                            search_cap=args.search_cap or 20000,
                            metric=args.metric or "cosine",
                            csls_n=args.csls_n or 10, **iters)
    if method == "dlv":
        lex = load_lexicon(_require_file(args.dict, "training dictionary"))
        return align_dlv(src_space, tgt_space, lex,
                         em_iters=args.iters or 3,
                         match_cap=args.search_cap or 2500)
    if method == "vecmap":
        seed_lex = vecmap_seed(src_space, tgt_space, cap=args.search_cap or 4000)
        cfg = SelfLearnConfig(vocab_cap=args.search_cap or 4000,
                              metric=args.metric or "cosine",
                              csls_n=args.csls_n or 10, seed=args.seed)
        return self_learn(src_space, tgt_space, seed_lex, cfg)
    if method == "icp":
        cfg = IcpConfig(pca_dim=min(args.pca_dim or 50, src_space.dim),
                        top_n_words=args.search_cap or 2500,
                        restarts=args.restarts or 20, seed=args.seed)
        return align_icp(src_space, tgt_space, cfg)
    if method == "gwa":
        if args.gw_lambda is not None and args.gw_lambda <= 0:
            raise CliError("gwa requires a positive lambda")
        return align_gwa(src_space, tgt_space, cap=args.search_cap or 2000,
                         lam=args.gw_lambda or 5e-2,
                         outer_iters=args.iters or 30)
    raise CliError(f"unknown method {method!r} (choose from {METHODS})")


def cmd_align(args) -> int:
    if args.method not in METHODS:
        raise CliError(f"unknown method {args.method!r} (choose from {METHODS})")
    if args.method in STOCHASTIC_METHODS and args.seed is None:
        raise CliError(f"--seed is mandatory for method {args.method}")
    if args.seed is None:
        args.seed = 0
    src_space = _load_space(args.src_emb, args.max_vocab, "source")
    tgt_space = _load_space(args.tgt_emb, args.max_vocab, "target")
    start = time.monotonic()
    pair = _run_aligner(args, src_space, tgt_space)
    wall = time.monotonic() - start
    metadata = {k: v for k, v in pair.metadata.items()
                if k != "final_dictionary"}
    metadata["seed"] = args.seed
    record = {"method": pair.method, "orthogonal_src": pair.orthogonal_src,
              "metadata": metadata,
              "timing": {"wall_time_s": round(wall, 3)}}
    # matrices first, metadata record last: a crash leaves no projection.json
    _write_staged(args.outdir, {
        "w_src.txt": partial(save_matrix_text, pair.w_src),
        "w_tgt.txt": partial(save_matrix_text, pair.w_tgt),
        "projection.json": partial(_write_json, record)})
    print(f"method={pair.method} dict_size={pair.metadata.get('dict_size')} "
          f"orthogonal={pair.orthogonal_src} wall_time={wall:.2f}s")
    return 0


def cmd_eval_bli(args) -> int:
    pair = load_projection(_require_file(args.proj, "projection directory"))
    src_space = _load_space(args.src_emb, args.max_vocab, "source")
    tgt_space = _load_space(args.tgt_emb, args.max_vocab, "target")
    test_lex = load_lexicon(_require_file(args.test_dict, "test dictionary"))
    result = bli_evaluate(pair, src_space, tgt_space, test_lex,
                          metric=args.metric or "cosine",
                          csls_n=args.csls_n or 10)
    summary = bli_summary(result)
    summary["method"] = args.method_label or pair.method
    summary["pair"] = args.pair_label or f"{src_space.lang_tag}-{tgt_space.lang_tag}"
    _write_staged(args.outdir, {
        "report.tsv": partial(write_bli_report, result),
        "summary.json": partial(_write_json, summary)})
    print(f"MAP={result.map_score:.4f} P@1={result.p_at_k[1]:.4f} "
          f"P@5={result.p_at_k[5]:.4f} P@10={result.p_at_k[10]:.4f} "
          f"success={result.successful} queries={result.query_count} "
          f"oov={result.oov_skipped}")
    return 0


def cmd_compare(args) -> int:
    recs_a = read_bli_report(_require_file(args.run_a, "run A report"))
    recs_b = read_bli_report(_require_file(args.run_b, "run B report"))
    if [r.source for r in recs_a] != [r.source for r in recs_b]:
        raise CliError("per-query reports cover different query sets")
    a = [r.average_precision for r in recs_a]
    b = [r.average_precision for r in recs_b]
    if args.test == "shuffle":
        p = shuffling_test(a, b, iterations=args.iterations or 10000,
                           seed=args.seed or 0)
    else:
        p = paired_ttest(a, b)
    threshold = bonferroni(args.alpha, args.m_comparisons)
    decision = "significant" if p < threshold else "not significant"
    print(f"test={args.test} p={p:.6g} corrected_alpha={threshold:.6g} "
          f"-> {decision}")
    return 0


def cmd_eval_clir(args) -> int:
    """Write run.trec (top 1000 documents per query) and summary.json, whose
    MAP is over the full ranking, so a MAP recomputed from run.trec is lower
    once a relevant document ranks below 1000."""
    pair = load_projection(_require_file(args.proj, "projection directory"))
    query_space = _load_space(args.query_emb, args.max_vocab, "query")
    doc_space = _load_space(args.doc_emb, args.max_vocab, "document")
    collection = clir_mod.ingest_collection(
        _require_file(args.docs, "document file"),
        _require_file(args.queries, "query file"),
        _require_file(args.qrels, "qrels file"))
    if args.weighting == "uniform":
        weighting = clir_mod.TermWeighting(scheme="uniform")
    else:
        weighting = clir_mod.idf_weighting(collection)
    run = clir_mod.clir_run(collection, pair, query_space, doc_space, weighting)
    summary = {"map": run.map_score, "scored_queries": run.scored_queries,
               "skipped_queries": run.skipped_queries,
               "empty_queries": list(run.empty_queries)}
    _write_staged(args.outdir, {
        "run.trec": partial(clir_mod.write_trec_run, run),
        "summary.json": partial(_write_json, summary)})
    print(f"MAP={run.map_score:.4f} queries={run.scored_queries} "
          f"skipped={run.skipped_queries}")
    return 0


def cmd_table(args) -> int:
    summaries = []
    for path in args.summaries:
        with open(_require_file(path, "summary"), encoding="utf-8") as fh:
            summaries.append(json.load(fh))
    methods = sorted({s["method"] for s in summaries})
    pairs = sorted({s["pair"] for s in summaries})
    score = {(s["method"], s["pair"]): s for s in summaries}
    # a pair enters the filtered column only if every method succeeded on it
    filtered_pairs = [
        p for p in pairs
        if all((m, p) in score and score[(m, p)]["successful"] for m in methods)]
    print(f"{'Model':<12} {'All LPs':>8} {'Filt. LPs':>10} {'Succ. LPs':>10}")
    for m in methods:
        rows = [score[(m, p)] for p in pairs if (m, p) in score]
        all_map = float(np.mean([r["map"] for r in rows]))
        if filtered_pairs:
            filt = float(np.mean([score[(m, p)]["map"] for p in filtered_pairs]))
            filt_s = f"{filt:.3f}"
        else:
            filt_s = "-"
        succ = sum(1 for r in rows if r["successful"])
        print(f"{m:<12} {all_map:>8.3f} {filt_s:>10} {f'{succ}/{len(rows)}':>10}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clembed",
        description="Cross-lingual word embedding alignment and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file with section.key defaults")
        p.add_argument("--max-vocab", type=int)

    p = sub.add_parser("preprocess", help="normalize an embedding file")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--steps", default="",
                   help="comma list of unit-length,mean-center,zca-whiten")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("dict-split", help="frequency-ordered train/test splits")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--train-sizes", required=True,
                   help="comma list, e.g. 1000,3000,5000")
    p.add_argument("--test-size", type=int, required=True)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_dict_split)

    p = sub.add_parser("align", help="learn a projection pair")
    common(p)
    p.add_argument("--method", required=True)
    p.add_argument("--src-emb")
    p.add_argument("--tgt-emb")
    p.add_argument("--dict")
    p.add_argument("--outdir", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--iters", type=int)
    p.add_argument("--search-cap", type=int)
    p.add_argument("--metric", choices=["cosine", "csls"])
    p.add_argument("--csls-n", type=int)
    p.add_argument("--keep-dims")
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--pca-dim", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--gw-lambda", type=float)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("eval-bli", help="score a projection on a test dictionary")
    common(p)
    p.add_argument("--proj", required=True)
    p.add_argument("--src-emb")
    p.add_argument("--tgt-emb")
    p.add_argument("--test-dict")
    p.add_argument("--metric", choices=["cosine", "csls"])
    p.add_argument("--csls-n", type=int)
    p.add_argument("--outdir", required=True)
    p.add_argument("--method-label")
    p.add_argument("--pair-label")
    p.set_defaults(func=cmd_eval_bli)

    p = sub.add_parser("compare", help="significance test between two runs")
    common(p)
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--m-comparisons", type=int, default=1)
    p.add_argument("--test", choices=["ttest", "shuffle"], default="ttest")
    p.add_argument("--iterations", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("eval-clir", help="cross-lingual retrieval evaluation")
    common(p)
    p.add_argument("--proj", required=True)
    p.add_argument("--query-emb")
    p.add_argument("--doc-emb")
    p.add_argument("--docs")
    p.add_argument("--queries")
    p.add_argument("--qrels")
    p.add_argument("--weighting", choices=["idf", "uniform"], default="idf")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_eval_clir)

    p = sub.add_parser("table", help="aggregate BLI summaries")
    p.add_argument("summaries", nargs="+")
    p.set_defaults(func=cmd_table)

    return parser


_CONFIG_KEYS = {
    "src_emb": "align.src_emb", "tgt_emb": "align.tgt_emb",
    "dict": "align.dict", "test_dict": "eval.test_dict",
    "query_emb": "clir.query_emb", "doc_emb": "clir.doc_emb",
    "docs": "clir.docs", "queries": "clir.queries", "qrels": "clir.qrels",
}


def _apply_config(args: argparse.Namespace) -> None:
    config = load_config(args.config) if getattr(args, "config", None) else {}
    args._config = config
    for attr, key in _CONFIG_KEYS.items():
        if hasattr(args, attr):
            _fill(args, key, attr, str)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except (CliError, ValueError, OSError, RuntimeError,
            FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
