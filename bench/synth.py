"""Seeded synthetic inputs for the benchmark workloads.

Everything here is the benchmark's own code: the spaces, dictionaries and
document collections are generated from the workload seed, and the text
writer below is independent of clembed's, so the program under test only
ever sees the generated files and arrays.
"""

from __future__ import annotations

import math
import os

import numpy as np

_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)
# the five decimals of every fraction 0..99999, as ASCII digits
_FRACTIONS = (np.arange(100000)[:, None] // 10 ** np.arange(4, -1, -1) % 10
              + ord("0")).astype(np.uint8)


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream), stable across versions."""
    return np.random.default_rng([seed, sum(ord(c) << (8 * i)
                                            for i, c in enumerate(stream))])


def rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def local_shuffle(n: int, window: int, rng: np.random.Generator) -> np.ndarray:
    """A permutation that only moves items inside consecutive windows.

    Keeps frequency order roughly intact (as real vocabularies of two
    languages are), while the target index of a word is not its source index.
    """
    perm = np.arange(n)
    for start in range(0, n, window):
        rng.shuffle(perm[start:start + window])
    return perm


def words(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i:05d}" for i in range(n))


def format_rows(matrix: np.ndarray, trailing_space: bool = False) -> list[bytes]:
    """Each row as fixed-point text with 5 decimals, built with numpy.

    Values must satisfy |x| < 10. Returns one bytes object per row, without
    the word and without the newline.
    """
    m = np.rint(np.asarray(matrix, dtype=float) * 1e5).astype(np.int64)
    if m.size and np.abs(m).max() >= 1_000_000:
        raise ValueError("format_rows: values must lie in (-10, 10)")
    n, d = m.shape
    mag = np.abs(m)
    cells = np.zeros((n, d, 9), dtype=np.uint8)   # 0 marks a dropped byte
    cells[..., 0] = np.where(m < 0, ord("-"), 0)
    cells[..., 1] = _DIGITS[mag // 100000]
    cells[..., 2] = ord(".")
    cells[..., 3:8] = _FRACTIONS[mag % 100000]
    cells[..., 8] = ord(" ")
    if not trailing_space:
        cells[:, -1, 8] = 0
    flat = cells.reshape(n, -1)
    keep = flat != 0
    body = flat[keep].tobytes()
    lengths = keep.sum(axis=1)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    return [body[s:e] for s, e in zip(starts.tolist(), ends.tolist())]


def write_vectors(path: str, vocab, matrix: np.ndarray,
                  trailing_space: bool = False) -> int:
    """Word2vec text with a header; returns the number of bytes written."""
    rows = format_rows(matrix, trailing_space)
    header = f"{len(vocab)} {matrix.shape[1]}\n".encode()
    blob = header + b"".join(w.encode() + b" " + r + b"\n"
                             for w, r in zip(vocab, rows))
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def read_vectors(path: str) -> tuple[list[str], np.ndarray]:
    """The benchmark's own reader for word2vec text (header optional)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines[0].split()) == 2:
        lines = lines[1:]
    split = [ln.split(" ", 1) for ln in lines if ln.strip()]
    values = np.fromstring("\n".join(rest for _, rest in split), sep=" ")
    return [word for word, _ in split], values.reshape(len(split), -1)


def write_pairs(path: str, pairs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{s}\t{t}\n" for s, t in pairs)


# --- bli-eval -------------------------------------------------------------

def bli_spaces(seed: int, vocab: int, dim: int, n_train: int, n_test: int,
               n_multi: int, n_oov: int):
    """A source space and a rotated, noisier-with-rank target space.

    Row i of the source is word i in frequency order. The target copy of
    word i sits at a nearby index (local shuffle) and carries noise whose
    scale grows linearly with i, so frequent words are easy and rare ones
    hard, and MAP lies well inside (0, 1). The first `n_train` words form
    the train dictionary. Test sources are one word per stratum of the
    remaining ranks. `n_multi` of them get a second gold (a near-copy of
    the first gold planted on an unused target row), and `n_oov` sources
    are out of vocabulary on one side or the other.
    """
    rng = rng_for(seed, "bli")
    x = rng.standard_normal((vocab, dim)) / math.sqrt(dim)
    sigma = 1.0 + 9.0 * (np.arange(vocab) / vocab) ** 8
    noisy = x + sigma[:, None] * rng.standard_normal((vocab, dim)) / math.sqrt(dim)
    perm = local_shuffle(vocab, 16, rng)          # target index of word i
    y = np.empty_like(x)
    y[perm] = noisy @ rotation(dim, rng)
    src_words = words("s", vocab)
    tgt_words = words("t", vocab)
    train = [(src_words[i], tgt_words[perm[i]]) for i in range(n_train)]
    edges = np.linspace(n_train, vocab, n_test + 1).astype(int)
    test_idx = [int(rng.integers(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]
    unused = np.setdiff1d(np.arange(n_train, vocab), test_idx)
    spare = rng.choice(unused, size=n_multi + n_oov, replace=False)
    test = [(src_words[i], tgt_words[perm[i]]) for i in test_idx]
    for k, i in enumerate(rng.choice(test_idx, size=n_multi, replace=False)):
        j = int(perm[spare[k]])                     # row taken over as synonym
        y[j] = y[perm[i]] + 0.3 * rng.standard_normal(dim) / math.sqrt(dim) \
            * np.linalg.norm(y[perm[i]])
        test.append((src_words[i], tgt_words[j]))
    half = n_oov // 2
    for k in range(half):                         # source word unknown
        test.append((f"oovsrc{k:03d}", tgt_words[perm[spare[n_multi + k]]]))
    for k in range(half, n_oov):                  # every gold unknown
        test.append((src_words[spare[n_multi + k]], f"oovtgt{k:03d}"))
    return {"src_words": src_words, "x": x, "tgt_words": tgt_words, "y": y,
            "train": train, "test": test, "perm": perm}


# --- align-grid ------------------------------------------------------------

def grid_spaces(seed: int, vocab: int, dim: int, n_train: int, n_test: int,
                clusters: int = 40):
    """A clustered, anisotropic cloud and a slightly noisy rotated copy.

    Cluster structure and a decaying spectrum give the unsupervised
    aligners (similarity profiles, transport) something to match. The
    target is a near-isometry of the source, as those methods assume.
    """
    rng = rng_for(seed, "grid")
    spectrum = np.arange(1, dim + 1) ** -0.5
    centres = rng.standard_normal((clusters, dim)) * spectrum
    label = rng.integers(0, clusters, vocab)
    x = centres[label] + 0.3 * rng.standard_normal((vocab, dim)) * spectrum
    x = x @ rotation(dim, rng)
    x /= np.linalg.norm(x, axis=1).mean()
    true_rot = rotation(dim, rng)
    noisy = x + 0.02 * rng.standard_normal((vocab, dim)) / math.sqrt(dim)
    perm = local_shuffle(vocab, 8, rng)
    y = np.empty_like(x)
    y[perm] = noisy @ true_rot
    src_words = words("s", vocab)
    tgt_words = words("t", vocab)
    train = [(src_words[i], tgt_words[perm[i]]) for i in range(n_train)]
    edges = np.linspace(int(0.6 * vocab), vocab, n_test + 1).astype(int)
    test_idx = [int(rng.integers(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]
    test = [(src_words[i], tgt_words[perm[i]]) for i in test_idx]
    return {"src_words": src_words, "x": x, "tgt_words": tgt_words, "y": y,
            "train": train, "test": test, "rotation": true_rot, "perm": perm}


# --- CLIR collections -------------------------------------------------------

def clir_collection(seed: int, vocab_src, vocab_tgt, perm, n_docs: int,
                    n_queries: int, doc_len: int, query_len: int,
                    rel_per_query: int):
    """Documents in the target language, queries in the source language.

    Each query draws its words from one topic (a random set of words from
    the more frequent half of the vocabulary); its relevant documents are
    planted by drawing most of their words from the translations of that
    topic. Every other document draws from a random topic of its own. The
    rest of the words come from the whole vocabulary. Word choice within a
    topic is skewed to make idf matter.
    """
    rng = rng_for(seed, "clir")
    n_topics = n_queries + n_docs // 4
    topic_size = 40
    pool = np.arange(len(vocab_src))
    topics = [rng.choice(pool[: len(pool) // 2], size=topic_size, replace=False)
              for _ in range(n_topics)]
    weights = 1.0 / np.arange(1, topic_size + 1)
    weights /= weights.sum()

    def draw(topic, length, mix):
        own = rng.choice(topics[topic], size=length, p=weights)
        noise = rng.choice(pool, size=length)
        return np.where(rng.random(length) < mix, own, noise)

    docs, queries, qrels = [], [], []
    doc_topic = rng.integers(n_queries, n_topics, n_docs)
    planted = rng.choice(n_docs, size=(n_queries, rel_per_query), replace=False)
    for q in range(n_queries):
        doc_topic[planted[q]] = q
    for d in range(n_docs):
        ids = draw(doc_topic[d], doc_len, 0.7)
        docs.append((f"D{d:05d}", " ".join(vocab_tgt[perm[i]] for i in ids)))
    for q in range(n_queries):
        ids = draw(q, query_len, 0.9)
        queries.append((f"Q{q:04d}", " ".join(vocab_src[i] for i in ids)))
        qrels.extend((f"Q{q:04d}", f"D{d:05d}") for d in planted[q])
    return docs, queries, qrels


def write_collection(workdir: str, docs, queries, qrels) -> dict:
    paths = {k: os.path.join(workdir, f"{k}.tsv") for k in ("docs", "queries")}
    paths["qrels"] = os.path.join(workdir, "qrels.txt")
    for key, rows in (("docs", docs), ("queries", queries)):
        with open(paths[key], "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{i}\t{t}\n" for i, t in rows)
    with open(paths["qrels"], "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{q} 0 {d} 1\n" for q, d in qrels)
    return paths
