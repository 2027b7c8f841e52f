"""Batch command-line surface.

Subcommands: preprocess, dict-split, align, eval-bli, compare, eval-clir,
table. Every value reaches a subcommand through argparse: a `--config` INI
file only sets parser defaults (see `_set_config_defaults`), and a flag not
given is not passed on, so each tuning default lives once, in the library.
Outputs are staged and renamed into place once all are written, so
failures never leave partial results behind.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import time
from dataclasses import replace
from functools import partial
from itertools import chain

import numpy as np

from . import ALIGNERS, align
from . import clir as clir_mod
from .embeddings import (load_text_embeddings, normalize, open_text,
                         save_text_embeddings)
from .evaluation import (bli_evaluate, bli_summary, bonferroni, paired_ttest,
                         read_bli_report, shuffling_test, write_bli_report)
from .lexicon import frequency_split, load_lexicon, save_lexicon
from .projection import (load_projection, read_json, save_projection,
                         write_json, write_staged)


def _require_file(path: str, what: str) -> str:
    if path is None:
        raise ValueError(f"missing required {what}")
    if not os.path.exists(path):
        raise ValueError(f"{what} not found: {path}")
    return path


def _load_space(path: str, max_vocab, tag: str, **kwargs):
    return load_text_embeddings(_require_file(path, f"{tag} embeddings"),
                                max_vocab=max_vocab, **kwargs)


def cmd_preprocess(args) -> int:
    space = _load_space(args.input, args.max_vocab, "input")
    steps = tuple(s for s in args.steps.split(",") if s)
    out = normalize(space, steps)
    outdir, name = os.path.split(os.path.abspath(args.output))
    write_staged(outdir, {name: partial(save_text_embeddings, out)})
    print(f"wrote {len(out)} x {out.dim} embeddings to {args.output}")
    return 0


def cmd_dict_split(args) -> int:
    lex = load_lexicon(_require_file(args.input, "dictionary"))
    train_sizes = [int(s) for s in args.train_sizes.split(",")]
    trains, test = frequency_split(lex, train_sizes, args.test_size)
    writers = {f"train.{size}.txt": partial(save_lexicon, train)
               for size, train in zip(train_sizes, trains)}
    writers["test.txt"] = partial(save_lexicon, test)
    write_staged(args.outdir, writers)
    print(f"wrote {len(trains)} train splits and a {len(test)}-pair test set "
          f"to {args.outdir}")
    return 0


# command -> (flag, value, flags): the command reads `flags` only when
# `flag` has `value`
READ_ONLY_UNDER = {"eval-bli": ("metric", "csls", ("csls_n",)),
                   "compare": ("test", "shuffle", ("iterations", "seed"))}


def _given(args, *flags) -> dict:
    """{flag: value} of those of `flags` (dests) that were given."""
    return {flag: value for flag in flags
            if (value := getattr(args, flag, None)) is not None}


def cmd_align(args) -> int:
    _, supervised, params = ALIGNERS[args.method]
    # icp with one restart runs only the signed start, which reads no seed
    if ("seed" in params and args.seed is None
            and (args.method, args.restarts) != ("icp", 1)):
        raise ValueError(f"--seed is mandatory for method {args.method}")
    lex = (load_lexicon(_require_file(args.dict, "training dictionary"))
           if supervised else None)
    # proc and cca read only the dictionary's rows, so each load keeps just
    # the dictionary words of its side
    src_needed = tgt_needed = None
    if args.method in ("proc", "cca"):
        src_needed = {src for src, _ in lex}
        tgt_needed = {tgt for _, tgt in lex}
    src_space = _load_space(args.src_emb, args.max_vocab, "source",
                            needed=src_needed)
    tgt_space = _load_space(args.tgt_emb, args.max_vocab, "target",
                            needed=tgt_needed)
    start = time.monotonic()
    pair = align(args.method, src_space, tgt_space, lex,
                 **_given(args, *params))
    wall = time.monotonic() - start
    pair = replace(pair, metadata={**pair.metadata, "seed": args.seed or 0})
    save_projection(pair, args.outdir, timing={"wall_time_s": round(wall, 3)})
    print(f"method={pair.method} dict_size={pair.metadata.get('dict_size')} "
          f"orthogonal={pair.orthogonal_src} wall_time={wall:.2f}s")
    return 0


def cmd_eval_bli(args) -> int:
    pair = load_projection(_require_file(args.proj, "projection directory"))
    test_lex = load_lexicon(_require_file(args.test_dict, "test dictionary"))
    # cosine (the default) scores only the test words' source rows; CSLS
    # hubness needs the whole projected source vocabulary. Every target is
    # ranked, so the target load is always whole.
    src_needed = ({src for src, _ in test_lex}
                  if args.metric != "csls" else None)
    src_space = _load_space(args.src_emb, args.max_vocab, "source",
                            needed=src_needed)
    tgt_space = _load_space(args.tgt_emb, args.max_vocab, "target")
    result = bli_evaluate(pair, src_space, tgt_space, test_lex,
                          **_given(args, "metric", "csls_n"))
    summary = bli_summary(result)
    summary["method"] = args.method_label or pair.method
    summary["pair"] = args.pair_label or "source-target"
    write_staged(args.outdir, {
        "report.tsv": partial(write_bli_report, result),
        "summary.json": partial(write_json, summary)})
    print(f"MAP={result.map_score:.4f} P@1={result.p_at_k[1]:.4f} "
          f"P@5={result.p_at_k[5]:.4f} P@10={result.p_at_k[10]:.4f} "
          f"success={result.successful} queries={result.query_count} "
          f"oov={result.oov_skipped}")
    return 0


def cmd_compare(args) -> int:
    recs_a = read_bli_report(_require_file(args.run_a, "run A report"))
    recs_b = read_bli_report(_require_file(args.run_b, "run B report"))
    if [r.source for r in recs_a] != [r.source for r in recs_b]:
        raise ValueError("per-query reports cover different query sets")
    a = [r.average_precision for r in recs_a]
    b = [r.average_precision for r in recs_b]
    p = (shuffling_test(a, b, **_given(args, "iterations", "seed"))
         if args.test == "shuffle" else paired_ttest(a, b))
    threshold = bonferroni(args.alpha, args.m_comparisons)
    decision = "significant" if p < threshold else "not significant"
    print(f"test={args.test} p={p:.6g} corrected_alpha={threshold:.6g} "
          f"-> {decision}")
    return 0


def cmd_eval_clir(args) -> int:
    """Write run.trec (top 1000 documents per query) and summary.json, whose
    MAP is over the full ranking, so a MAP recomputed from run.trec is lower
    once a relevant document ranks below 1000.

    The collection is read and checked before either embedding load, and
    each load keeps only the words of its side of the collection, so a
    malformed value on a line of a word no text uses is not reported."""
    pair = load_projection(_require_file(args.proj, "projection directory"))
    collection = clir_mod.ingest_collection(
        _require_file(args.docs, "document file"),
        _require_file(args.queries, "query file"),
        _require_file(args.qrels, "qrels file"))
    query_space = _load_space(
        args.query_emb, args.max_vocab, "query",
        needed=chain.from_iterable(collection.queries.values()))
    doc_space = _load_space(args.doc_emb, args.max_vocab, "document",
                            needed=chain.from_iterable(collection.docs.values()))
    idf = (None if args.weighting == "uniform"
           else clir_mod.idf_weighting(collection))
    run = clir_mod.clir_run(collection, pair, query_space, doc_space, idf)
    summary = {"map": run.map_score, "scored_queries": run.scored_queries,
               "skipped_queries": run.skipped_queries,
               "empty_queries": list(run.empty_queries)}
    write_staged(args.outdir, {
        "run.trec": partial(clir_mod.write_trec_run, run),
        "summary.json": partial(write_json, summary)})
    print(f"MAP={run.map_score:.4f} queries={run.scored_queries} "
          f"skipped={run.skipped_queries}")
    return 0


def cmd_table(args) -> int:
    summaries = [read_json(_require_file(path, "summary"),
                           ("method", "pair", "map", "successful"))
                 for path in args.summaries]
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
        filt = [score[(m, p)]["map"] for p in filtered_pairs]
        filt_s = f"{np.mean(filt):.3f}" if filt else "-"
        succ = sum(1 for r in rows if r["successful"])
        print(f"{m:<12} {all_map:>8.3f} {filt_s:>10} {f'{succ}/{len(rows)}':>10}")
    return 0


def _positive(cast, *words):
    """An argparse type for a flag that must be > 0 or one of `words`: any
    other value, from the command line or from config, is a usage error."""
    def parse(text: str):
        if text in words:
            return text
        if not (value := cast(text)) > 0:
            raise ValueError(text)
        return value
    parse.__name__ = " or ".join([f"positive {cast.__name__}",
                                  *map(repr, words)])
    return parse


def _set_config_defaults(parser, commands: dict, path: str) -> None:
    """Make the INI file at `path` the defaults of `commands` (name ->
    subparser): [<subcommand>] fills that subcommand's optional flags, keyed
    by dest, and [DEFAULT] those of every subcommand that has the flag.
    argparse parses a string default by the flag's type; given flags win."""
    # [DEFAULT] is read as a plain section, apart from the ones it fills
    config = configparser.ConfigParser(default_section="", interpolation=None)
    try:
        with open_text(path) as fh:
            config.read_file(fh)
    except OSError:
        raise ValueError(f"config not found: {path}") from None
    sections = {name: dict(config[name]) for name in config.sections()}
    flags = {name: {a.dest: a for a in p._actions if a.option_strings
                    and not a.required and a.dest != "config"}
             for name, p in commands.items()}
    flags["DEFAULT"] = {k: a for f in flags.values() for k, a in f.items()}
    for section, values in sections.items():
        if section not in flags:
            parser.error(f"config section [{section}] names no subcommand")
        for key, value in values.items():
            if (action := flags[section].get(key)) is None:
                parser.error(f"config [{section}] {key}: no such optional flag")
            if action.choices is not None and value not in action.choices:
                parser.error(f"config [{section}] {key}: invalid choice {value!r}")
    for name, p in commands.items():
        p.set_defaults(**{k: v for k, v in sections.get("DEFAULT", {}).items()
                          if k in flags[name]} | sections.get(name, {}))


def build_parser(config: str | None = None) -> argparse.ArgumentParser:
    """The clembed parser, with defaults from the INI file `config`."""
    parser = argparse.ArgumentParser(
        prog="clembed",
        description="Cross-lingual word embedding alignment and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI file of flag defaults")
        p.add_argument("--max-vocab", type=_positive(int))

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
    p.add_argument("--test-size", type=_positive(int), required=True)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_dict_split)

    p = sub.add_parser("align", help="learn a projection pair")
    common(p)
    p.add_argument("--method", required=True, choices=ALIGNERS)
    for flag in ("--src-emb", "--tgt-emb", "--dict"):
        p.add_argument(flag)
    p.add_argument("--outdir", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--metric", choices=["cosine", "csls"])
    p.add_argument("--keep-dims", type=_positive(int, "all"))
    for flag in ("--iters", "--search-cap", "--csls-n", "--epochs",
                 "--pca-dim", "--restarts"):
        p.add_argument(flag, type=_positive(int))
    for flag in ("--learning-rate", "--gw-lambda"):
        p.add_argument(flag, type=_positive(float))
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("eval-bli", help="score a projection on a test dictionary")
    common(p)
    p.add_argument("--proj", required=True)
    for flag in ("--src-emb", "--tgt-emb", "--test-dict"):
        p.add_argument(flag)
    p.add_argument("--metric", choices=["cosine", "csls"])
    p.add_argument("--csls-n", type=_positive(int))
    p.add_argument("--outdir", required=True)
    p.add_argument("--method-label")
    p.add_argument("--pair-label")
    p.set_defaults(func=cmd_eval_bli)

    p = sub.add_parser("compare", help="significance test between two runs")
    common(p)
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--m-comparisons", type=_positive(int), default=1)
    p.add_argument("--test", choices=["ttest", "shuffle"], default="ttest")
    p.add_argument("--iterations", type=_positive(int))
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("eval-clir", help="cross-lingual retrieval evaluation")
    common(p)
    p.add_argument("--proj", required=True)
    for flag in ("--query-emb", "--doc-emb", "--docs", "--queries", "--qrels"):
        p.add_argument(flag)
    p.add_argument("--weighting", choices=["idf", "uniform"], default="idf")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_eval_clir)

    p = sub.add_parser("table", help="aggregate BLI summaries")
    p.add_argument("summaries", nargs="+")
    p.set_defaults(func=cmd_table)

    if config:
        _set_config_defaults(parser, sub.choices, config)
    return parser


def _refuse_unread_flags(parser, given, args) -> None:
    """Exit 2 if a flag given on the command line is one its command does not
    read: for `align`, `--dict` or a tuning flag (one that some method
    reads; `--seed` is recorded by all) that its method does not read, and
    for a command in `READ_ONLY_UNDER`, a flag it reads only under a value
    that another flag does not have: `eval-bli --csls-n` unless the metric
    is csls, `compare --iterations` or `--seed` unless the test is shuffle.
    `given` is the parse without a config, because a config shared by a grid
    of methods may set any of these flags; `args` is the final parse, whose
    metric or test may come from the config."""
    if given.command == "align":
        _, supervised, params = ALIGNERS[given.method]
        read = {"seed", *params} | ({"dict"} if supervised else set())
        flags = {"dict"}.union(*(row[2] for row in ALIGNERS.values()))
        if unread := sorted(_given(given, *flags - read)):
            parser.error(f"method {given.method} does not read "
                         f"{_flag_names(unread)}")
    elif given.command in READ_ONLY_UNDER:
        flag, value, flags = READ_ONLY_UNDER[given.command]
        unread = list(_given(given, *flags))
        if unread and getattr(args, flag) != value:
            parser.error(f"{given.command} reads {_flag_names(unread)} only "
                         f"under --{flag} {value}")


def _flag_names(dests) -> str:
    return ", ".join("--" + d.replace("_", "-") for d in dests)


def main(argv=None) -> int:
    parser = build_parser()
    args = given = parser.parse_args(argv)
    try:
        if getattr(given, "config", None):
            args = build_parser(given.config).parse_args(argv)
        _refuse_unread_flags(parser, given, args)
        return args.func(args)
    except (ValueError, OSError, RuntimeError, FloatingPointError,
            configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
