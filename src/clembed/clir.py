"""Unsupervised cross-lingual document retrieval over a shared space.

Queries and documents are represented as weighted averages of word vectors
(uniform or idf weighting; BWE-Agg, Litschko et al. 2018), scored by cosine,
and evaluated with MAP over binary relevance judgments. A whole collection
side is aggregated at once: the term weights form one sparse text x
vocabulary matrix, and its product with the embedding matrix adds each
text's token vectors in token order, as a per-token loop would. Two runs
are compared by a paired t-test on their relevant-document ranks. File
formats: line-oriented "id<TAB>text" for documents and queries, TREC
4-column qrels, and TREC run output (written, never read back).
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np
from scipy import sparse

from .embeddings import WordVectorSpace, open_text
from .evaluation import average_precision_from_ranks, paired_ttest
from .projection import ProjectionPair
from .similarity import unit_rows

_TREC_DEPTH = 1000  # documents written per query to a TREC run
_TREC_TAG = "clembed"  # the run tag column of a TREC run


@dataclass(frozen=True)
class DocumentCollection:
    docs: dict[str, tuple[str, ...]]
    queries: dict[str, tuple[str, ...]]
    qrels: frozenset[tuple[str, str]]

    def __post_init__(self):
        for qid, did in sorted(self.qrels):
            if qid not in self.queries:
                raise ValueError(f"qrel references unknown query id {qid!r}")
            if did not in self.docs:
                raise ValueError(f"qrel references unknown doc id {did!r}")


@dataclass(frozen=True)
class ClirRun:
    """Ranked document lists per query plus per-relevant-doc ranks and MAP."""
    rankings: dict[str, tuple[str, ...]]
    relevant_ranks: tuple[tuple[str, str, int], ...]  # (qid, docid, rank)
    map_score: float
    scored_queries: int
    skipped_queries: int
    empty_queries: tuple[str, ...]


class _PunctuationTable(dict):
    """A `str.translate` table that deletes Unicode punctuation (category
    P*) and keeps every other character. It fills itself as characters are
    first seen, so `unicodedata.category` runs once per distinct code
    point, and holds at most one entry per code point."""

    def __missing__(self, code: int):
        keep = not unicodedata.category(chr(code)).startswith("P")
        self[code] = code if keep else None
        return self[code]


_PUNCTUATION = _PunctuationTable()


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase, strip Unicode punctuation, drop single-character tokens."""
    stripped = text.translate(_PUNCTUATION)
    return tuple(tok for tok in stripped.lower().split() if len(tok) > 1)


def _read_id_text(path) -> dict[str, tuple[str, ...]]:
    out: dict[str, tuple[str, ...]] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ValueError(f"{path}: line {lineno}: expected id<TAB>text")
            ident, text = line.split("\t", 1)
            if ident.split() != [ident]:  # run.trec's columns split on whitespace
                raise ValueError(f"{path}: line {lineno}: id {ident!r} is empty "
                                 "or holds whitespace")
            if ident in out:
                raise ValueError(f"{path}: line {lineno}: duplicate id {ident!r}")
            out[ident] = tokenize(text)
    return out


def _read_qrels(path, queries, docs) -> frozenset[tuple[str, str]]:
    """The relevant (query id, doc id) pairs of a TREC qrels file, each id
    checked, in file order, against `queries` and `docs`."""
    pairs = set()
    with open_text(path) as fh:
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
            if relevance <= 0:
                continue
            for kind, ident, known in (("query", qid, queries),
                                       ("doc", did, docs)):
                if ident not in known:
                    raise ValueError(f"{path}: line {lineno}: qrel references "
                                     f"unknown {kind} id {ident!r}")
            pairs.add((qid, did))
    return frozenset(pairs)


def ingest_collection(doc_path, query_path, qrel_path) -> DocumentCollection:
    docs, queries = _read_id_text(doc_path), _read_id_text(query_path)
    return DocumentCollection(docs=docs, queries=queries,
                              qrels=_read_qrels(qrel_path, queries, docs))


def idf_weighting(collection: DocumentCollection) -> dict[str, float]:
    """The idf table, token -> ln(N / df), over the ingested documents."""
    n_docs = len(collection.docs)
    df = Counter(chain.from_iterable(map(set, collection.docs.values())))
    return {tok: math.log(n_docs / count) for tok, count in df.items()}


def aggregate_texts(texts, space: WordVectorSpace,
                    idf: dict[str, float] | None) -> np.ndarray:
    """(n, d) weighted means of the in-vocabulary token vectors of each of
    the n token sequences in the list `texts`; a zero row where a text has
    none.

    `idf` is the table of token weights; None or an empty table weights
    every token 1.0. Tokens absent from the table (query-only terms) get
    weight 1.0, and a negative weight is a ValueError. Each token is looked
    up once in the vocabulary, and each distinct in-vocabulary token once
    in the idf table. The weights form a sparse n x |V| matrix whose
    product with `space.matrix` adds each row's token vectors in token
    order, so a row is bit-equal to a per-token `acc += weight * vector`
    loop divided by the weight total.
    """
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    rows = np.fromiter(
        map(space.index.get, chain.from_iterable(texts), repeat(-1)),
        dtype=np.intp, count=int(lengths.sum()))
    text_of = np.repeat(np.arange(len(texts)), lengths)
    known = rows >= 0
    rows, text_of = rows[known], text_of[known]
    if idf:
        if any(v < 0 for v in idf.values()):
            raise ValueError("idf values must be nonnegative")
        # a presence map over the vocabulary, O(N + V): np.unique sorts the
        # N tokens
        present = np.zeros(len(space), dtype=bool)
        present[rows] = True
        vocab_rows = np.flatnonzero(present)
        words = space.words
        table = np.empty(len(space))
        table[vocab_rows] = [idf.get(words[r], 1.0) for r in vocab_rows.tolist()]
        weights = table[rows]
    else:
        weights = np.ones(len(rows))
    indptr = np.zeros(len(texts) + 1, dtype=np.intp)
    np.cumsum(np.bincount(text_of, minlength=len(texts)), out=indptr[1:])
    sums = sparse.csr_matrix((weights, rows, indptr),
                             shape=(len(texts), len(space))) @ space.matrix
    totals = np.bincount(text_of, weights=weights, minlength=len(texts))
    return sums / np.where(totals > 0, totals, 1.0)[:, None]


def _descending_order(scores: np.ndarray) -> np.ndarray:
    """Per-row argsort of `scores`, highest first, equal scores in ascending
    column order: the stable sort's permutation. Rows are sorted unstably,
    and only rows with two equal adjacent sorted scores again stably: about
    twice as fast as a stable sort of every row when no row ties, and
    slower once more than about half of the rows tie."""
    negated = -scores
    order = np.argsort(negated, axis=1)
    ranked = np.take_along_axis(negated, order, axis=1)
    tied = np.any(ranked[:, 1:] == ranked[:, :-1], axis=1)
    order[tied] = np.argsort(negated[tied], axis=1, kind="stable")
    return order


def clir_run(collection: DocumentCollection, pair: ProjectionPair,
             query_space: WordVectorSpace, doc_space: WordVectorSpace,
             idf: dict[str, float] | None) -> ClirRun:
    """Rank all documents for every query by cosine of aggregate vectors,
    each a mean of token vectors weighted by the table `idf` (None:
    uniform; see `aggregate_texts`).

    Ties break by ascending document id. Each distinct document vector is
    scored once and its score copied to its duplicates, so identical
    documents tie exactly. Queries with no relevant document are excluded
    from MAP and counted; queries with no in-vocabulary token score all
    documents 0 and are reported, not dropped.

    Each side is aggregated by one `aggregate_texts` call and projected by
    one product; every relevant document's rank is its position in the
    query's ranking.
    """
    if not collection.docs or not collection.queries:
        raise ValueError("clir_run: empty collection")
    doc_ids = sorted(collection.docs)
    query_ids = sorted(collection.queries)
    doc_unit = unit_rows(pair.project_tgt(aggregate_texts(
        [collection.docs[d] for d in doc_ids], doc_space, idf)))
    query_vecs = pair.project_src(aggregate_texts(
        [collection.queries[q] for q in query_ids], query_space, idf))
    empty = np.linalg.norm(query_vecs, axis=1) == 0.0
    # one score per distinct document row (rows compared as bytes), copied
    # to its duplicates, so identical documents tie exactly
    keys = np.ascontiguousarray(doc_unit)
    _, first, copy_of = np.unique(
        keys.view(f"V{keys.itemsize * keys.shape[1]}").ravel(),
        return_index=True, return_inverse=True)
    order = _descending_order(  # ties: ascending doc id
        (unit_rows(query_vecs) @ doc_unit[first].T)[:, copy_of])
    ids = np.array(doc_ids, dtype=object)
    rankings = {q: tuple(ids[row].tolist()) for q, row in zip(query_ids, order)}
    relevant_by_query: dict[str, list[str]] = {}
    for qid, did in sorted(collection.qrels):
        relevant_by_query.setdefault(qid, []).append(did)
    relevant = [relevant_by_query.get(q, []) for q in query_ids]
    counts = [len(dids) for dids in relevant]
    doc_col = {d: j for j, d in enumerate(doc_ids)}
    gold_cols = [doc_col[d] for dids in relevant for d in dids]
    # 1-based rank of each relevant document, read off the inverse permutation
    position = np.empty_like(order)
    np.put_along_axis(position, order, np.arange(order.shape[1]), axis=1)
    ranks = (position[np.repeat(np.arange(len(query_ids)), counts), gold_cols]
             + 1).tolist()
    relevant_ranks = []
    aps = []
    for qid, dids, end in zip(query_ids, relevant, np.cumsum(counts).tolist()):
        if not dids:
            continue
        query_ranks = ranks[end - len(dids):end]
        relevant_ranks.extend((qid, did, rank) for rank, did
                              in sorted(zip(query_ranks, dids)))
        aps.append(average_precision_from_ranks(query_ranks))
    if not aps:
        raise ValueError("clir_run: no query has relevant documents")
    return ClirRun(rankings=rankings,
                   relevant_ranks=tuple(relevant_ranks),
                   map_score=float(np.mean(aps)),
                   scored_queries=len(aps),
                   skipped_queries=len(query_ids) - len(aps),
                   empty_queries=tuple(q for q, e in zip(query_ids, empty) if e))


def clir_significance(run_a: ClirRun, run_b: ClirRun) -> float:
    """`evaluation.paired_ttest` on the relevant-document ranks of two runs,
    paired by (query, doc).

    Both runs must cover the same (query, doc) relevance pairs, at least
    two of them. Identical ranks return p = 1; a constant nonzero shift,
    whose t statistic is unbounded, returns 0.
    """
    ranks_a = {(qid, did): rank for qid, did, rank in run_a.relevant_ranks}
    ranks_b = {(qid, did): rank for qid, did, rank in run_b.relevant_ranks}
    if ranks_a.keys() != ranks_b.keys():
        raise ValueError("clir_significance: runs cover different qrel sets")
    keys = sorted(ranks_a)
    return paired_ttest([ranks_a[k] for k in keys], [ranks_b[k] for k in keys])


def write_trec_run(run: ClirRun, path) -> None:
    """TREC run format: qid Q0 docid rank score tag (score = 1/rank, tag
    `_TREC_TAG`).

    Only the top `_TREC_DEPTH` documents per query are written, while
    `run.map_score` covers the full ranking."""
    # the columns after the docid depend on the rank alone; zip with the
    # tails cuts each ranking at the depth
    n = min(_TREC_DEPTH, max(map(len, run.rankings.values()), default=0))
    tails = [f" {rank} {1.0 / rank:.6f} {_TREC_TAG}\n"
             for rank in range(1, n + 1)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for qid in sorted(run.rankings):
            head = f"{qid} Q0 "
            fh.write("".join([f"{head}{did}{tail}" for did, tail
                              in zip(run.rankings[qid], tails)]))
