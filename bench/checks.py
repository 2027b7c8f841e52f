"""Independent recomputations the workloads check clembed's outputs against.

Nothing here calls clembed: ranks, average precision, hubness, the RCSLS
objective, CLIR rankings and the TREC/qrels/report formats are recomputed
in plain numpy from the inputs the benchmark generated.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


def unit(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=-1, keepdims=True)
    return m / np.where(norms == 0.0, 1.0, norms)


def rank_of(scores: np.ndarray, gold: int) -> int:
    """1-based rank of `gold` under a descending sort, ties to the lowest index."""
    g = scores[gold]
    return 1 + int(np.sum(scores > g)) + int(np.sum(scores[:gold] == g))


def average_precision(ranks) -> float:
    ordered = sorted(ranks)
    return float(np.mean([(i + 1) / r for i, r in enumerate(ordered)]))


def topn_mean_sorted(sims: np.ndarray, n: int) -> np.ndarray:
    """Mean of the n largest entries per row, from a full sort."""
    return np.sort(sims, axis=1)[:, -n:].mean(axis=1)


def csls_gold_ranks(q: np.ndarray, tgt_unit: np.ndarray, pool_unit: np.ndarray,
                    golds, n: int, lower: np.ndarray) -> list[int]:
    """Exact CSLS ranks of the gold rows for one projected query.

    score_j = 2 cos(q, t_j) - r_j, with r_j the mean of t_j's n largest
    cosines to the pool, taken from a full sort. `lower[j] <= r_j` is a
    cheap bound: a candidate with 2 cos_j - lower[j] below a gold's score
    cannot outrank or tie it, so r_j is only computed where that can happen.
    """
    cos = tgt_unit @ unit(q)
    hub: dict[int, float] = {}

    def fill(rows):
        todo = [j for j in rows if j not in hub]
        if todo:
            hub.update(zip(todo, topn_mean_sorted(tgt_unit[todo] @ pool_unit.T, n)))

    ranks = []
    for g in golds:
        fill([g])
        s_g = 2.0 * cos[g] - hub[g]
        maybe = np.flatnonzero(2.0 * cos - lower >= s_g - 1e-9).tolist()
        fill(maybe)
        s = np.array([2.0 * cos[j] - hub[j] for j in maybe])
        idx = np.array(maybe)
        ranks.append(1 + int(np.sum(s > s_g))
                     + int(np.sum((s == s_g) & (idx < g))))
    return ranks


def rcsls_objective(w, x_s, x_t, src_pool, tgt_pool, n: int) -> float:
    """Relaxed CSLS loss of map `w` on unit rows, neighbours by full sort."""
    proj = x_s @ w
    fit = -2.0 * np.sum(proj * x_t, axis=1)
    hub_t = topn_mean_sorted(proj @ tgt_pool.T, n)
    hub_s = topn_mean_sorted(x_t @ (src_pool @ w).T, n)
    return float(np.mean(fit + hub_t + hub_s))


def procrustes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(x.T @ y)
    return u @ vt


def idf(docs: dict[str, list[str]]) -> dict[str, float]:
    df = Counter(tok for toks in docs.values() for tok in set(toks))
    return {tok: math.log(len(docs) / c) for tok, c in df.items()}


def weighted_mean(tokens, index: dict[str, int], matrix: np.ndarray,
                  weights: dict[str, float]) -> np.ndarray:
    acc = np.zeros(matrix.shape[1])
    total = 0.0
    for tok in tokens:
        if tok in index:
            w = weights.get(tok, 1.0)
            acc += w * matrix[index[tok]]
            total += w
    return acc / total if total > 0 else acc


def clir_rankings(queries: dict[str, list[str]], docs: dict[str, list[str]],
                  q_index, q_matrix, d_index, d_matrix, w_src, w_tgt
                  ) -> dict[str, list[str]]:
    """Document ids per query by descending cosine of idf-weighted means.

    Ties go to the lower document id.
    """
    weights = idf(docs)
    ids = sorted(docs)
    dv = unit(np.vstack([weighted_mean(docs[i], d_index, d_matrix, weights)
                         for i in ids]) @ w_tgt)
    out = {}
    for qid, tokens in queries.items():
        scores = dv @ unit(weighted_mean(tokens, q_index, q_matrix, weights) @ w_src)
        out[qid] = [ids[i] for i in np.lexsort((np.arange(len(ids)), -scores))]
    return out


def mean_ap_from_rankings(rankings: dict[str, list[str]],
                          qrels: set[tuple[str, str]]) -> float:
    """MAP over queries with relevant documents, trec_eval style.

    A relevant document missing from a (truncated) ranking adds precision 0.
    """
    relevant: dict[str, set[str]] = {}
    for q, d in qrels:
        relevant.setdefault(q, set()).add(d)
    aps = []
    for q in sorted(rankings):
        if not relevant.get(q):
            continue
        ranks = [i for i, d in enumerate(rankings[q], start=1) if d in relevant[q]]
        aps.append(sum((k + 1) / r for k, r in enumerate(ranks)) / len(relevant[q]))
    return float(np.mean(aps))


def read_trec(path: str) -> dict[str, list[str]]:
    out: dict[str, list[tuple[int, str]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            qid, q0, did, rank, _score, _tag = line.split()
            if q0 != "Q0":
                raise ValueError(f"{path}: not a TREC run line: {line!r}")
            out.setdefault(qid, []).append((int(rank), did))
    return {q: [d for _, d in sorted(v)] for q, v in out.items()}


def read_report(path: str) -> list[tuple[str, tuple[str, ...], int, float]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            src, golds, rank, ap = line.rstrip("\n").split("\t")
            rows.append((src, tuple(golds.split("|")), int(rank), float(ap)))
    return rows
