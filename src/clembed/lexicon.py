"""Translation dictionaries and the word-aligned training matrices.

Dictionary files are two-column UTF-8 text, TAB-separated (single spaces
accepted), one (source, target) pair per line, ordered by descending source
frequency as produced by standard pipelines. In memory a dictionary is a
`TranslationLexicon`: a plain tuple of (source, target) string pairs, in
file order, without exact duplicates. A malformed line is a ValueError
`<path>: line N: <problem>`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .embeddings import WordVectorSpace, open_text


# (source word, target word) pairs in order; may be many-to-many
TranslationLexicon = tuple[tuple[str, str], ...]


def make_lexicon(pairs) -> TranslationLexicon:
    """Build a lexicon, dropping exact duplicate pairs (first kept)."""
    return tuple(dict.fromkeys((str(s), str(t)) for s, t in pairs))


@dataclass(frozen=True)
class AlignedMatrices:
    """Positionally aligned vector matrices for the lexicon pairs found in vocab."""

    x_src: np.ndarray
    x_tgt: np.ndarray
    kept_pairs: TranslationLexicon
    coverage: float

    def __post_init__(self):
        if self.x_src.shape != self.x_tgt.shape:
            raise ValueError("aligned matrices must have equal shapes")


def load_lexicon(path: str | os.PathLike) -> TranslationLexicon:
    """Read a two-column dictionary file; duplicates dropped, order kept."""
    pairs = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t") if "\t" in line else line.split(" ")
            fields = [f for f in fields if f]
            if len(fields) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 2 fields, "
                                 f"got {len(fields)}")
            pairs.append((fields[0], fields[1]))
    return make_lexicon(pairs)


def save_lexicon(lex: TranslationLexicon, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for src, tgt in lex:
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
    return [lex[:size] for size in train_sizes], lex[largest:largest + test_size]


def build_aligned_matrices(lex: TranslationLexicon, src_space: WordVectorSpace,
                           tgt_space: WordVectorSpace) -> AlignedMatrices:
    """Look up vectors for each pair, skipping out-of-vocabulary pairs."""
    src_index, tgt_index = src_space.index, tgt_space.index
    kept = tuple((src, tgt) for src, tgt in lex
                 if src in src_index and tgt in tgt_index)
    if not kept:
        raise ValueError("no lexicon pair found in both vocabularies; "
                         "alignment impossible")
    return AlignedMatrices(
        x_src=src_space.matrix[[src_index[src] for src, _ in kept]],
        x_tgt=tgt_space.matrix[[tgt_index[tgt] for _, tgt in kept]],
        kept_pairs=kept, coverage=len(kept) / len(lex))
