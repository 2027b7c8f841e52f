"""Translation dictionaries and the word-aligned training matrices.

Dictionary files are two-column UTF-8 text, TAB-separated (single spaces
accepted), one (source, target) pair per line, ordered by descending source
frequency as produced by standard pipelines.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .embeddings import WordVectorSpace
from .similarity import mutual_argmax_pairs, similarity_sweep


class LexiconParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class TranslationLexicon:
    """Ordered (source word, target word) pairs; may be many-to-many."""

    pairs: tuple[tuple[str, str], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def union(self, other: "TranslationLexicon") -> "TranslationLexicon":
        return make_lexicon(list(self.pairs) + list(other.pairs))


def make_lexicon(pairs) -> TranslationLexicon:
    """Build a lexicon, dropping exact duplicate pairs (first kept)."""
    seen: set[tuple[str, str]] = set()
    out = []
    for pair in pairs:
        pair = (str(pair[0]), str(pair[1]))
        if pair not in seen:
            seen.add(pair)
            out.append(pair)
    return TranslationLexicon(pairs=tuple(out))


@dataclass(frozen=True)
class AlignedMatrices:
    """Positionally aligned vector matrices for the lexicon pairs found in vocab."""

    x_src: np.ndarray
    x_tgt: np.ndarray
    kept_pairs: TranslationLexicon
    coverage: float
    skipped: int

    def __post_init__(self):
        if self.x_src.shape != self.x_tgt.shape:
            raise ValueError("aligned matrices must have equal shapes")
        if self.x_src.shape[0] != len(self.kept_pairs):
            raise ValueError("row count does not match kept pairs")


def load_lexicon(path: str | os.PathLike) -> TranslationLexicon:
    """Read a two-column dictionary file; duplicates dropped, order kept."""
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t") if "\t" in line else line.split(" ")
            fields = [f for f in fields if f]
            if len(fields) != 2:
                raise LexiconParseError(
                    f"expected 2 fields, got {len(fields)}", line=lineno)
            pairs.append((fields[0], fields[1]))
    return make_lexicon(pairs)


def save_lexicon(lex: TranslationLexicon, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for src, tgt in lex.pairs:
            fh.write(f"{src}\t{tgt}\n")


def frequency_split(lex: TranslationLexicon, train_sizes: list[int],
                    test_size: int) -> tuple[list[TranslationLexicon], TranslationLexicon]:
    """Nested frequency-ordered train prefixes plus a disjoint test slice.

    Pairs are assumed ordered by descending source frequency (file order).
    Each train lexicon is a prefix of the requested size; the test lexicon
    is the `test_size` pairs immediately following the largest prefix.
    """
    if not train_sizes or any(s <= 0 for s in train_sizes) or test_size <= 0:
        raise ValueError("train sizes and test size must be positive")
    largest = max(train_sizes)
    if largest + test_size > len(lex):
        raise ValueError(
            f"need {largest + test_size} pairs, lexicon has {len(lex)}")
    trains = [TranslationLexicon(pairs=lex.pairs[:size]) for size in train_sizes]
    test = TranslationLexicon(pairs=lex.pairs[largest:largest + test_size])
    return trains, test


def build_aligned_matrices(lex: TranslationLexicon, src_space: WordVectorSpace,
                           tgt_space: WordVectorSpace) -> AlignedMatrices:
    """Look up vectors for each pair, skipping out-of-vocabulary pairs."""
    kept = []
    src_rows = []
    tgt_rows = []
    for src, tgt in lex.pairs:
        if src in src_space and tgt in tgt_space:
            kept.append((src, tgt))
            src_rows.append(src_space.vector(src))
            tgt_rows.append(tgt_space.vector(tgt))
    if not kept:
        raise ValueError("no lexicon pair found in both vocabularies; "
                         "alignment impossible")
    coverage = len(kept) / len(lex.pairs) if lex.pairs else 0.0
    return AlignedMatrices(x_src=np.vstack(src_rows), x_tgt=np.vstack(tgt_rows),
                           kept_pairs=make_lexicon(kept), coverage=coverage,
                           skipped=len(lex.pairs) - len(kept))


def mutual_nearest_neighbors(src_proj: np.ndarray, tgt_proj: np.ndarray,
                             src_words, tgt_words, metric: str = "cosine",
                             search_cap: int = 20000,
                             csls_n: int = 10) -> TranslationLexicon:
    """Word pairs that are each other's most-similar match.

    The sweep is restricted to the first `search_cap` rows of each side
    (most frequent words, given frequency order). Ties break to the lowest
    index.
    """
    if src_proj.shape[0] == 0 or tgt_proj.shape[0] == 0:
        raise ValueError("mutual_nearest_neighbors: empty input matrix")
    tgt_proj = tgt_proj[:search_cap]
    sweep = similarity_sweep(src_proj[:search_cap], tgt_proj, metric, csls_n)
    return make_lexicon((src_words[i], tgt_words[j])
                        for i, j in mutual_argmax_pairs(sweep, len(tgt_proj)))
