"""Bilingual lexicon induction scoring, significance tests, and correlation.

Retrieval is exact: every query ranks the full target vocabulary, with ties
broken by the lowest target index. MAP is the mean of per-query average
precisions and collapses to mean reciprocal rank when every query has a
single gold target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import similarity
from .embeddings import WordVectorSpace, open_text
from .lexicon import TranslationLexicon
from .projection import ProjectionPair
from .similarity import csls_hubness

SUCCESS_MAP_THRESHOLD = 0.05
P_AT_KS = (1, 5, 10)


@dataclass(frozen=True)
class QueryRecord:
    source: str
    golds: tuple[str, ...]
    best_rank: int
    average_precision: float


@dataclass(frozen=True)
class BliResult:
    records: tuple[QueryRecord, ...]
    map_score: float
    p_at_k: dict[int, float]
    query_count: int
    oov_skipped: int

    @property
    def successful(self) -> bool:
        return self.map_score >= SUCCESS_MAP_THRESHOLD

    def average_precisions(self) -> list[float]:
        return [r.average_precision for r in self.records]


def average_precision_from_ranks(ranks) -> float:
    """Textbook AP over the gold items' 1-based retrieval ranks."""
    ordered = sorted(ranks)
    return float(np.mean([(i + 1) / r for i, r in enumerate(ordered)]))


def bli_evaluate(pair: ProjectionPair, src_space: WordVectorSpace,
                 tgt_space: WordVectorSpace, test_lex: TranslationLexicon,
                 metric: str = "cosine", csls_n: int = 10) -> BliResult:
    """Rank the full target vocabulary for every usable test query.

    Queries whose source word or all of whose gold targets are out of
    vocabulary are skipped and counted. Gold targets are never removed
    from the candidate pool. For the csls metric the target-side hubness
    pool is the full projected source vocabulary. Gold ranks are counted
    on the similarity sweep's threads (`similarity._gold_ranks`).
    """
    if metric not in ("cosine", "csls"):
        raise ValueError(f"unknown metric {metric!r}")
    grouped: dict[str, list[str]] = {}
    for src, tgt in test_lex:
        grouped.setdefault(src, []).append(tgt)
    queries = []
    oov = 0
    for src_word, golds in grouped.items():
        gold_idx = [tgt_space.index[g] for g in golds if g in tgt_space]
        if src_word not in src_space or not gold_idx:
            oov += 1
            continue
        queries.append((src_word, gold_idx))
    if not queries:
        raise ValueError("bli_evaluate: no usable queries")
    tgt_proj = pair.project_tgt(tgt_space.matrix)
    cand_hub = (csls_hubness(tgt_proj, pair.project_src(src_space.matrix),
                             csls_n) if metric == "csls" else None)
    src_rows = [src_space.index[w] for w, _ in queries]
    ranks = similarity._gold_ranks(
        pair.project_src(src_space.matrix[src_rows]), tgt_proj,
        [gold_idx for _, gold_idx in queries], metric, csls_n, cand_hub)
    records = [QueryRecord(
        source=src_word, golds=tuple(tgt_space.words[g] for g in gold_idx),
        best_rank=min(query_ranks),
        average_precision=average_precision_from_ranks(query_ranks))
        for (src_word, gold_idx), query_ranks in zip(queries, ranks)]
    aps = [r.average_precision for r in records]
    p_at_k = {k: float(np.mean([r.best_rank <= k for r in records]))
              for k in P_AT_KS}
    return BliResult(records=tuple(records), map_score=float(np.mean(aps)),
                     p_at_k=p_at_k, query_count=len(records), oov_skipped=oov)


def paired_ttest(scores_a, scores_b) -> float:
    """Two-tailed paired t-test p-value; all-zero differences give p = 1."""
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("paired_ttest: length mismatch")
    if a.size < 2:
        raise ValueError("paired_ttest: need at least 2 paired scores")
    diffs = a - b
    if np.all(diffs == 0.0):
        return 1.0
    spread = np.std(diffs, ddof=1)
    if spread <= 1e-12 * max(abs(float(np.mean(diffs))), 1e-300):
        # (near-)constant nonzero difference: the t statistic diverges
        return 0.0
    from scipy import stats  # local: it would be most of clembed's import time
    return float(stats.ttest_rel(a, b).pvalue)


def bonferroni(alpha: float, m: int) -> float:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if m < 1:
        raise ValueError("m must be >= 1")
    return alpha / m


def shuffling_test(labels_a, labels_b, iterations: int = 10000,
                   seed: int = 0) -> float:
    """Approximate-randomization p-value for the difference in means.

    Per-item outcomes are randomly swapped between the two systems; the
    p-value is the add-one-smoothed share of assignments whose absolute
    mean difference reaches the observed one. The swaps are drawn in row
    blocks (`similarity._blocks`), the same numbers as one iterations x n
    draw, so memory does not grow with `iterations`.
    """
    a = np.asarray(labels_a, dtype=float)
    b = np.asarray(labels_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("shuffling_test: length mismatch")
    if iterations < 100:
        raise ValueError("shuffling_test: need at least 100 iterations")
    observed = abs(float(np.mean(a) - np.mean(b)))
    rng = np.random.default_rng(seed)
    diff = a - b
    count = 0
    for rows in similarity._blocks(iterations, 8 * a.size,
                                   similarity._BLOCK_BYTES):
        swaps = rng.random((rows.stop - rows.start, a.size)) < 0.5
        null = np.abs((np.where(swaps, -1.0, 1.0) * diff).mean(axis=1))
        count += int(np.sum(null >= observed - 1e-15))
    return (count + 1) / (iterations + 1)


def rank_correlation(xs, ys, kind: str = "pearson") -> float:
    """Pearson or Spearman coefficient; zero variance is an error."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.size < 3:
        raise ValueError("rank_correlation: need equal-length inputs, >= 3")
    if np.std(x) == 0.0 or np.std(y) == 0.0:
        raise ValueError("rank_correlation: zero variance input")
    from scipy import stats
    if kind == "pearson":
        return float(stats.pearsonr(x, y).statistic)
    if kind == "spearman":
        return float(stats.spearmanr(x, y).statistic)
    raise ValueError(f"unknown correlation kind {kind!r}")


def write_bli_report(result: BliResult, path) -> None:
    """Line-oriented per-query report: word, golds, best rank, AP."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in result.records:
            golds = "|".join(rec.golds)
            fh.write(f"{rec.source}\t{golds}\t{rec.best_rank}\t"
                     f"{rec.average_precision:.10f}\n")


def read_bli_report(path) -> list[QueryRecord]:
    records = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(f"{path}: line {lineno}: expected 4 fields")
            try:
                records.append(QueryRecord(fields[0], tuple(fields[1].split("|")),
                                           int(fields[2]), float(fields[3])))
            except ValueError as exc:  # a rank or AP that does not parse
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return records


def bli_summary(result: BliResult) -> dict:
    """Serializable summary record (MAP, P@k, success flag, counters)."""
    return {"map": result.map_score,
            "p_at_k": {str(k): v for k, v in result.p_at_k.items()},
            "successful": result.successful,
            "query_count": result.query_count,
            "oov_skipped": result.oov_skipped}
