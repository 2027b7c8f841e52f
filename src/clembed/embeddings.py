"""Loading, validation, normalization, and persistence of word vector spaces.

File format is the word2vec-style text format: an optional header line
"<count> <dim>", then one line per word ("token v1 v2 ... vd", single
spaces, UTF-8, LF). Both headered and headerless files are accepted on
read; the header is always written on save.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .similarity import unit_rows

VALID_STEPS = ("unit-length", "mean-center", "zca-whiten")
MAX_STEPS = 3


class EmbeddingParseError(ValueError):
    """Malformed embedding file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class WordVectorSpace:
    """An ordered vocabulary and its |V| x d embedding matrix.

    Immutable after construction; all operations return new spaces.
    """

    words: tuple[str, ...]
    matrix: np.ndarray
    lang_tag: str = ""

    def __post_init__(self):
        if len(self.words) != self.matrix.shape[0]:
            raise ValueError("word count does not match matrix rows")
        if self.matrix.ndim != 2 or self.matrix.shape[1] == 0:
            raise ValueError("matrix must be |V| x d with d > 0")
        if len(set(self.words)) != len(self.words):
            raise ValueError("duplicate words in vocabulary")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("matrix contains non-finite entries")
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.words)

    @property
    def index(self) -> dict[str, int]:
        # cached lazily on first access; object.__setattr__ because frozen
        cached = self.__dict__.get("_index")
        if cached is None:
            cached = {w: i for i, w in enumerate(self.words)}
            object.__setattr__(self, "_index", cached)
        return cached

    def vector(self, word: str) -> np.ndarray:
        return self.matrix[self.index[word]]

    def __contains__(self, word: str) -> bool:
        return word in self.index


@dataclass(frozen=True)
class PreprocessChain:
    """Ordered normalization steps drawn from {unit-length, mean-center, zca-whiten}."""

    steps: tuple[str, ...] = ()
    whiten_eps: float = 1e-12

    def __post_init__(self):
        for step in self.steps:
            if step not in VALID_STEPS:
                raise ValueError(f"unknown preprocessing step {step!r}")
        if len(self.steps) > MAX_STEPS:
            raise ValueError(f"chain exceeds {MAX_STEPS} steps")
        if self.whiten_eps <= 0:
            raise ValueError("whitening epsilon must be positive")


def load_text_embeddings(path: str | os.PathLike, max_vocab: int | None = None,
                         lang_tag: str = "") -> WordVectorSpace:
    """Read a word2vec-style text file, keeping the first `max_vocab` entries.

    File order is frequency order for standard trainers, so the prefix is
    the most frequent vocabulary. Duplicate tokens after the first
    occurrence are dropped with a warning.
    """
    if max_vocab is not None and max_vocab <= 0:
        raise ValueError("max_vocab must be positive")
    words: list[str] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    duplicates = 0
    dim: int | None = None
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip():
            raise EmbeddingParseError("empty embedding file")
        start_line = 1
        parts = first.rstrip("\n").split(" ")
        if len(parts) == 2:
            # word2vec header "<count> <dim>"
            try:
                int(parts[0]), int(parts[1])
            except ValueError:
                raise EmbeddingParseError("malformed header line", line=1)
        else:
            fh.seek(0)
            start_line = 0
        for lineno, line in enumerate(fh, start=start_line + 1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split(" ")
            token, values = fields[0], fields[1:]
            if dim is None:
                if not values:
                    raise EmbeddingParseError("no vector values", line=lineno)
                dim = len(values)
            elif len(values) != dim:
                raise EmbeddingParseError(
                    f"expected {dim} values, got {len(values)}", line=lineno)
            try:
                vec = np.array(values, dtype=float)
            except ValueError:
                raise EmbeddingParseError("unparseable float", line=lineno)
            if token in seen:
                duplicates += 1
                continue
            seen.add(token)
            words.append(token)
            rows.append(vec)
            if max_vocab is not None and len(words) >= max_vocab:
                break
    if not words:
        raise EmbeddingParseError("no embeddings found in file")
    if duplicates:
        warnings.warn(f"{path}: dropped {duplicates} duplicate tokens "
                      "(kept first occurrences)", stacklevel=2)
    return WordVectorSpace(words=tuple(words), matrix=np.vstack(rows),
                           lang_tag=lang_tag)


def save_text_embeddings(space: WordVectorSpace, path: str | os.PathLike,
                         precision: int = 6) -> None:
    """Write the space back out with a header line and fixed precision.

    Round-trips through `load_text_embeddings` to within the documented
    number of significant digits (default 6).
    """
    if len(space) == 0:
        raise ValueError("refusing to save an empty space")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(space)} {space.dim}\n")
        for word, row in zip(space.words, space.matrix):
            values = " ".join(f"{v:.{precision}g}" for v in row)
            fh.write(f"{word} {values}\n")


def _apply_step(matrix: np.ndarray, step: str, eps: float) -> np.ndarray:
    if step == "unit-length":
        zero_rows = int(np.sum(np.linalg.norm(matrix, axis=1) == 0.0))
        if zero_rows:
            warnings.warn(f"unit-length: {zero_rows} zero rows left unchanged",
                          stacklevel=3)
        return unit_rows(matrix)
    if step == "mean-center":
        return matrix - matrix.mean(axis=0)
    if step == "zca-whiten":
        from .linalg import zca_whitening_matrix
        centered_cov_input = matrix - matrix.mean(axis=0)
        return matrix @ zca_whitening_matrix(centered_cov_input, eps)
    raise ValueError(f"unknown preprocessing step {step!r}")


def normalize(space: WordVectorSpace, chain: PreprocessChain) -> WordVectorSpace:
    """Apply the chain's steps in order, returning a new space."""
    matrix = np.array(space.matrix, dtype=float)
    for step in chain.steps:
        matrix = _apply_step(matrix, step, chain.whiten_eps)
        if not np.all(np.isfinite(matrix)):
            raise ValueError(f"non-finite values produced by step {step!r}")
    return WordVectorSpace(words=space.words, matrix=matrix,
                           lang_tag=space.lang_tag)
