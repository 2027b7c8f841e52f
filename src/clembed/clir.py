"""Unsupervised cross-lingual document retrieval over a shared space.

Queries and documents are represented as weighted averages of word vectors
(uniform or idf weighting), scored by cosine, and evaluated with MAP over
binary relevance judgments. File formats: line-oriented "id<TAB>text" for
documents and queries, TREC 4-column qrels, and TREC run output.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .embeddings import WordVectorSpace
from .evaluation import average_precision_from_ranks, gold_ranks
from .projection import ProjectionPair
from .similarity import unit_rows


@dataclass(frozen=True)
class DocumentCollection:
    docs: dict[str, tuple[str, ...]]
    queries: dict[str, tuple[str, ...]]
    qrels: frozenset[tuple[str, str]]

    def __post_init__(self):
        for qid, did in self.qrels:
            if qid not in self.queries:
                raise ValueError(f"qrel references unknown query id {qid!r}")
            if did not in self.docs:
                raise ValueError(f"qrel references unknown doc id {did!r}")


@dataclass(frozen=True)
class TermWeighting:
    scheme: str = "idf"
    idf: dict[str, float] | None = None

    def __post_init__(self):
        if self.scheme not in ("uniform", "idf"):
            raise ValueError(f"unknown weighting scheme {self.scheme!r}")
        if self.idf is not None and any(v < 0 for v in self.idf.values()):
            raise ValueError("idf values must be nonnegative")


@dataclass(frozen=True)
class ClirRun:
    """Ranked document lists per query plus per-relevant-doc ranks and MAP."""
    rankings: dict[str, tuple[str, ...]]
    relevant_ranks: tuple[tuple[str, str, int], ...]  # (qid, docid, rank)
    map_score: float
    scored_queries: int
    skipped_queries: int
    empty_queries: tuple[str, ...]


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase, strip Unicode punctuation, drop single-character tokens."""
    stripped = "".join(
        ch for ch in text if not unicodedata.category(ch).startswith("P"))
    return tuple(tok for tok in stripped.lower().split() if len(tok) > 1)


def _read_id_text(path) -> dict[str, tuple[str, ...]]:
    out: dict[str, tuple[str, ...]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ValueError(f"{path}: line {lineno}: expected id<TAB>text")
            ident, text = line.split("\t", 1)
            if ident in out:
                raise ValueError(f"{path}: line {lineno}: duplicate id {ident!r}")
            out[ident] = tokenize(text)
    return out


def _read_qrels(path) -> frozenset[tuple[str, str]]:
    pairs = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 4:
                raise ValueError(
                    f"{path}: line {lineno}: expected 4 qrel fields")
            qid, _, did, rel = fields
            try:
                relevance = int(rel)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: relevance not an integer")
            if relevance > 0:
                pairs.add((qid, did))
    return frozenset(pairs)


def ingest_collection(doc_path, query_path, qrel_path) -> DocumentCollection:
    return DocumentCollection(docs=_read_id_text(doc_path),
                              queries=_read_id_text(query_path),
                              qrels=_read_qrels(qrel_path))


def idf_weighting(collection: DocumentCollection) -> TermWeighting:
    """idf = ln(N / df) over the ingested documents."""
    n_docs = len(collection.docs)
    df: Counter[str] = Counter()
    for tokens in collection.docs.values():
        df.update(set(tokens))
    idf = {tok: math.log(n_docs / count) for tok, count in df.items()}
    return TermWeighting(scheme="idf", idf=idf)


def aggregate_text(tokens, space: WordVectorSpace,
                   weighting: TermWeighting = TermWeighting(scheme="uniform")
                   ) -> np.ndarray:
    """Weighted mean of in-vocabulary token vectors; zero vector if none.

    Under idf weighting, tokens absent from the idf table (query-only
    terms) get weight 1.0.
    """
    acc = np.zeros(space.dim)
    total = 0.0
    for tok in tokens:
        if tok not in space:
            continue
        if weighting.scheme == "idf":
            weight = (weighting.idf or {}).get(tok, 1.0)
        else:
            weight = 1.0
        acc += weight * space.vector(tok)
        total += weight
    if total > 0:
        acc /= total
    return acc


def clir_run(collection: DocumentCollection, pair: ProjectionPair,
             query_space: WordVectorSpace, doc_space: WordVectorSpace,
             weighting: TermWeighting | None = None) -> ClirRun:
    """Rank all documents for every query by cosine of aggregate vectors.

    Ties break by ascending document id. Queries with no relevant document
    are excluded from MAP and counted; queries with no in-vocabulary token
    score all documents 0 and are reported, not dropped.
    """
    if not collection.docs or not collection.queries:
        raise ValueError("clir_run: empty collection")
    if weighting is None:
        weighting = idf_weighting(collection)
    doc_ids = sorted(collection.docs)
    query_ids = sorted(collection.queries)
    doc_unit = unit_rows(np.vstack([
        aggregate_text(collection.docs[d], doc_space, weighting) @ pair.w_tgt
        for d in doc_ids]))
    query_vecs = np.vstack([
        aggregate_text(collection.queries[q], query_space, weighting) @ pair.w_src
        for q in query_ids])
    empty = np.linalg.norm(query_vecs, axis=1) == 0.0
    scores = unit_rows(query_vecs) @ doc_unit.T
    order = np.argsort(-scores, axis=1, kind="stable")  # ties: ascending doc id
    rankings = {qid: tuple(doc_ids[i] for i in row)
                for qid, row in zip(query_ids, order)}
    relevant_by_query: dict[str, set[str]] = {}
    for qid, did in collection.qrels:
        relevant_by_query.setdefault(qid, set()).add(did)
    doc_col = {d: j for j, d in enumerate(doc_ids)}
    relevant_ranks = []
    aps = []
    for k, qid in enumerate(query_ids):
        relevant = sorted(relevant_by_query.get(qid, ()))
        if not relevant:
            continue
        ranks = gold_ranks(scores[[k] * len(relevant)],
                           [doc_col[d] for d in relevant]).tolist()
        relevant_ranks.extend((qid, did, rank)
                              for rank, did in sorted(zip(ranks, relevant)))
        aps.append(average_precision_from_ranks(ranks))
    if not aps:
        raise ValueError("clir_run: no query has relevant documents")
    return ClirRun(rankings=rankings,
                   relevant_ranks=tuple(relevant_ranks),
                   map_score=float(np.mean(aps)),
                   scored_queries=len(aps),
                   skipped_queries=len(query_ids) - len(aps),
                   empty_queries=tuple(q for q, e in zip(query_ids, empty) if e))


def clir_significance(run_a: ClirRun, run_b: ClirRun) -> float:
    """Two-tailed t-test on the two lists of relevant-document ranks.

    Both runs must cover the same (query, doc) relevance pairs. A zero mean
    rank difference returns p = 1; a constant nonzero shift returns 0.
    """
    key = lambda triple: (triple[0], triple[1])
    ranks_a = {key(t): t[2] for t in run_a.relevant_ranks}
    ranks_b = {key(t): t[2] for t in run_b.relevant_ranks}
    if ranks_a.keys() != ranks_b.keys():
        raise ValueError("clir_significance: runs cover different qrel sets")
    keys = sorted(ranks_a)
    a = np.array([ranks_a[k] for k in keys], dtype=float)
    b = np.array([ranks_b[k] for k in keys], dtype=float)
    from scipy import stats
    if np.mean(a) == np.mean(b) and np.array_equal(a, b):
        return 1.0
    res = stats.ttest_ind(a, b)
    p = float(res.pvalue)
    if math.isnan(p):
        return 0.0 if np.mean(a) != np.mean(b) else 1.0
    return p


def write_trec_run(run: ClirRun, path, tag: str = "clembed",
                   depth: int = 1000) -> None:
    """TREC run format: qid Q0 docid rank score tag (score = 1/rank).

    Only the top `depth` documents per query are written, while
    `run.map_score` covers the full ranking."""
    # the columns after the docid depend on the rank alone; zip with the
    # tails cuts each ranking at `depth`
    n = min(depth, max(map(len, run.rankings.values()), default=0))
    tails = [f" {rank} {1.0 / rank:.6f} {tag}\n" for rank in range(1, n + 1)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for qid in sorted(run.rankings):
            head = f"{qid} Q0 "
            fh.write("".join([f"{head}{did}{tail}" for did, tail
                              in zip(run.rankings[qid], tails)]))


def read_trec_run(path) -> dict[str, list[tuple[str, int, float]]]:
    """Parse a TREC run file into qid -> [(docid, rank, score)]."""
    out: dict[str, list[tuple[str, int, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 6 or fields[1] != "Q0":
                raise ValueError(f"{path}: line {lineno}: not TREC run format")
            qid, _, did, rank, score, _tag = fields
            out.setdefault(qid, []).append((did, int(rank), float(score)))
    return out
