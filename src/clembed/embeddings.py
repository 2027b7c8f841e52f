"""Loading, validation, normalization, and persistence of word vector spaces.

File format is the word2vec-style text format: an optional header line
"<count> <dim>", then one line per word ("token v1 v2 ... vd", single
spaces, UTF-8, LF). Both headered and headerless files are accepted on
read; the header is always written on save. Values are read with numpy's
float syntax.
"""

from __future__ import annotations

import itertools
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .similarity import unit_rows

VALID_STEPS = ("unit-length", "mean-center", "zca-whiten")
MAX_STEPS = 3
# Lines per chunk of a text load or save: one numpy parse, or one write, each.
_CHUNK_LINES = 4096


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

    def __post_init__(self):
        for step in self.steps:
            if step not in VALID_STEPS:
                raise ValueError(f"unknown preprocessing step {step!r}")
        if len(self.steps) > MAX_STEPS:
            raise ValueError(f"chain exceeds {MAX_STEPS} steps")


def load_text_embeddings(path: str | os.PathLike, max_vocab: int | None = None,
                         lang_tag: str = "") -> WordVectorSpace:
    """Read a word2vec-style text file, keeping the first `max_vocab` entries.

    File order is frequency order for standard trainers, so the prefix is
    the most frequent vocabulary. Duplicate tokens after the first
    occurrence are dropped with a warning.

    Lines are read in chunks of `_CHUNK_LINES`. Python checks each line's
    structure (value count, duplicates, the `max_vocab` cut, after which no
    line is parsed or checked); the values of a whole chunk then go through
    one call of numpy's text parser, so they follow numpy's float syntax:
    `1_0` and non-ASCII digits, which Python's `float` accepts, are
    unparseable, while numbers padded with the control characters
    \\x1c-\\x1f are read. Errors name the first bad line, as a line-by-line
    read would.
    """
    if max_vocab is not None and max_vocab <= 0:
        raise ValueError("max_vocab must be positive")
    words: list[str] = []
    blocks: list[np.ndarray] = []
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
        numbered = enumerate(fh, start=start_line + 1)
        full = False
        while not full:
            chunk = list(itertools.islice(numbered, _CHUNK_LINES))
            if not chunk:
                break
            values: list[str] = []      # value fields of the lines to parse
            linenos: list[int] = []
            kept: list[int] = []        # positions in `values` of new words
            error = None
            for lineno, line in chunk:
                line = line.rstrip("\n")
                if not line:
                    continue
                token, sep, rest = line.partition(" ")
                count = rest.count(" ") + 1 if sep else 0
                if dim is None:
                    if not count:
                        error = EmbeddingParseError("no vector values", line=lineno)
                        break
                    dim = count
                elif count != dim:
                    error = EmbeddingParseError(
                        f"expected {dim} values, got {count}", line=lineno)
                    break
                if not rest:
                    # "token " has one empty value, which numpy's parser
                    # would skip as a blank line rather than reject
                    error = EmbeddingParseError("unparseable float", line=lineno)
                    break
                values.append(rest)
                linenos.append(lineno)
                if token in seen:
                    duplicates += 1
                    continue
                seen.add(token)
                words.append(token)
                kept.append(len(values) - 1)
                full = max_vocab is not None and len(words) >= max_vocab
                if full:
                    break
            if values:
                # an unparseable line before a structural error is reported first
                block = _parse_values(values, linenos)
                blocks.append(block if len(kept) == len(values) else block[kept])
            if error is not None:
                raise error
    if not words:
        raise EmbeddingParseError("no embeddings found in file")
    if duplicates:
        warnings.warn(f"{path}: dropped {duplicates} duplicate tokens "
                      "(kept first occurrences)", stacklevel=2)
    return WordVectorSpace(words=tuple(words), matrix=np.concatenate(blocks),
                           lang_tag=lang_tag)


def _parse_values(values: list[str], linenos: list[int]) -> np.ndarray:
    """Parse lines of space-separated floats in one numpy call; on failure,
    parse them one at a time to name the first bad line."""
    try:
        return _parse_rows(values)
    except ValueError:
        for text, lineno in zip(values, linenos):
            try:
                _parse_rows([text])
            except ValueError:
                raise EmbeddingParseError("unparseable float", line=lineno) from None
        raise


def _parse_rows(values: list[str]) -> np.ndarray:
    return np.loadtxt(values, dtype=float, delimiter=" ", comments=None,
                      quotechar=None, ndmin=2)


def save_text_embeddings(space: WordVectorSpace, path: str | os.PathLike,
                         precision: int = 6) -> None:
    """Write the space back out with a header line and fixed precision.

    Each value is written as `%.<precision>g`, byte for byte what
    `f"{v:.{precision}g}"` gives, from one row format applied to
    `_CHUNK_LINES` rows per write. Round-trips through
    `load_text_embeddings` to within the documented number of significant
    digits (default 6). A word holding a space or a line break, which the
    format cannot hold, is a ValueError before the file is opened.
    """
    if len(space) == 0:
        raise ValueError("refusing to save an empty space")
    for word in space.words:
        if " " in word or "\n" in word or "\r" in word:
            raise ValueError(f"word {word!r} holds a space or a line break; "
                             "the text format cannot hold it")
    row_format = "%s " + " ".join([f"%.{precision}g"] * space.dim) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(space)} {space.dim}\n")
        for start in range(0, len(space), _CHUNK_LINES):
            stop = start + _CHUNK_LINES
            rows = space.matrix[start:stop].tolist()
            fh.write("".join([row_format % (word, *row) for word, row
                              in zip(space.words[start:stop], rows)]))


def _apply_step(matrix: np.ndarray, step: str) -> np.ndarray:
    if step == "unit-length":
        zero_rows = int(np.sum(~matrix.any(axis=1)))
        if zero_rows:
            warnings.warn(f"unit-length: {zero_rows} zero rows left unchanged",
                          stacklevel=3)
        return unit_rows(matrix)
    if step == "mean-center":
        return matrix - matrix.mean(axis=0)
    if step == "zca-whiten":
        from .linalg import zca_whitening_matrix
        return matrix @ zca_whitening_matrix(matrix - matrix.mean(axis=0))
    raise ValueError(f"unknown preprocessing step {step!r}")


def normalize(space: WordVectorSpace, chain: PreprocessChain) -> WordVectorSpace:
    """Apply the chain's steps in order, returning a new space."""
    matrix = np.array(space.matrix, dtype=float)
    for step in chain.steps:
        matrix = _apply_step(matrix, step)
        if not np.all(np.isfinite(matrix)):
            raise ValueError(f"non-finite values produced by step {step!r}")
    return WordVectorSpace(words=space.words, matrix=matrix,
                           lang_tag=space.lang_tag)
