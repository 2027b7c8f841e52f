"""Loading, validation, normalization, and persistence of word vector spaces.

File format is the word2vec-style text format: an optional header line
"<count> <dim>", then one line per word ("token v1 v2 ... vd", single
spaces, UTF-8, LF). Both headered and headerless files are accepted on
read; the header is always written on save. Values are read with numpy's
float syntax. A malformed file is a ValueError `<path>: [line N: ]<problem>`.
"""

from __future__ import annotations

import itertools
import os
import re
import warnings
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .similarity import unit_rows

VALID_STEPS = ("unit-length", "mean-center", "zca-whiten")
MAX_STEPS = 3
# Lines per chunk of a text load or save: one numpy parse, or one write, each.
_CHUNK_LINES = 4096
_DIGITS = 6  # significant digits of each value a save writes
# What errors="surrogateescape" decodes a byte that is not UTF-8 to
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


@contextmanager
def open_text(path: str | os.PathLike):
    """Open `path` to read as UTF-8 text. A byte that is not UTF-8 is a
    ValueError `<path>: line N: byte 0x.. is not UTF-8` naming the first
    line that holds one, wherever the read that met it stopped: the
    decoder reads ahead of the line a reader is on."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                if error := _utf8_error(line, path, lineno):
                    raise error from None
        raise


def _utf8_error(line: str, path: str | os.PathLike,
                lineno: int) -> ValueError | None:
    """`open_text`'s error if `line`, read with errors="surrogateescape",
    held a byte that is not UTF-8, else None."""
    if line.isascii() or not (found := _ESCAPED_BYTE.search(line)):
        return None
    byte = ord(found.group()) - 0xDC00
    return ValueError(f"{path}: line {lineno}: byte {byte:#04x} is not UTF-8")


@dataclass(frozen=True)
class WordVectorSpace:
    """An ordered vocabulary and its |V| x d embedding matrix.

    Immutable after construction; all operations return new spaces.
    """

    words: tuple[str, ...]
    matrix: np.ndarray

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

    @cached_property
    def index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.words)}

    def __contains__(self, word: str) -> bool:
        return word in self.index


def load_text_embeddings(path: str | os.PathLike, max_vocab: int | None = None,
                         needed: Iterable[str] | None = None) -> WordVectorSpace:
    """Read a word2vec-style text file, keeping the first `max_vocab` entries.

    File order is frequency order for standard trainers, so the prefix is
    the most frequent vocabulary. Duplicate tokens after the first
    occurrence are dropped with a warning.

    With `needed`, a set of words the caller will look up, the load keeps
    only the first occurrence of each needed word, in file order, and
    parses the values of no other line. It stops after the line that
    completes that set (an empty set: after the first word), or at
    `max_vocab` distinct words of the file, needed or not, if that comes
    first. If a needed word is not in the file, the whole file is read. The
    result is the load without `needed` restricted to the needed words, but
    an unparseable value on a line that is not kept is not reported. A load
    that keeps no word is a 0 x d space. As with `max_vocab`, lines after
    the stop are neither parsed nor checked, and a duplicate after it is
    not counted.

    Lines are read in chunks of `_CHUNK_LINES`. Python checks every line up
    to the stop (bytes that are not UTF-8, the value count, an empty value
    part, duplicates); the values of the chunk's lines to keep (without `needed`,
    of every line, duplicates too) then go through one call of numpy's text
    parser, so they follow numpy's float syntax: `1_0` and non-ASCII
    digits, which Python's `float` accepts, are unparseable, while numbers
    padded with the control characters \\x1c-\\x1f are read. Errors name the
    file and its first bad line, as a line-by-line read would.
    """
    if max_vocab is not None and max_vocab <= 0:
        raise ValueError("max_vocab must be positive")
    words: list[str] = []
    blocks: list[np.ndarray] = []
    seen: set[str] = set()
    wanted = None if needed is None else set(needed)
    missing = None if wanted is None else set(wanted)
    duplicates = 0
    dim: int | None = None
    # the decoder reads ahead of the stop, so it only marks bad bytes
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        first = fh.readline()
        if error := _utf8_error(first, path, 1):
            raise error
        if not first.strip():
            raise ValueError(f"{path}: empty embedding file")
        start_line = 1
        parts = first.rstrip("\n").split(" ")
        if len(parts) == 2:
            # word2vec header "<count> <dim>"
            try:
                int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}: line 1: malformed header line")
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
            kept: list[int] = []        # positions in `values` of kept words
            error = None
            for lineno, line in chunk:
                if error := _utf8_error(line, path, lineno):
                    break
                line = line.rstrip("\n")
                if not line:
                    continue
                token, sep, rest = line.partition(" ")
                count = rest.count(" ") + 1 if sep else 0
                if dim is None:
                    if not count:
                        error = ValueError(f"{path}: line {lineno}: no vector values")
                        break
                    dim = count
                elif count != dim:
                    error = ValueError(f"{path}: line {lineno}: expected "
                                       f"{dim} values, got {count}")
                    break
                if not rest:
                    # "token " has one empty value, which numpy's parser
                    # would skip as a blank line rather than reject
                    error = ValueError(f"{path}: line {lineno}: unparseable float")
                    break
                new = token not in seen
                keep = new and (wanted is None or token in wanted)
                if keep or wanted is None:
                    values.append(rest)
                    linenos.append(lineno)
                if keep:
                    words.append(token)
                    kept.append(len(values) - 1)
                if not new:
                    duplicates += 1
                    continue
                seen.add(token)
                full = max_vocab is not None and len(seen) >= max_vocab
                if missing is not None:
                    missing.discard(token)
                    full = full or not missing
                if full:
                    break
            if values:
                # an unparseable line before a structural error is reported first
                block = _parse_values(values, linenos, path)
                blocks.append(block if len(kept) == len(values) else block[kept])
            if error is not None:
                raise error
    if dim is None:
        raise ValueError(f"{path}: no embeddings found in file")
    if duplicates:
        warnings.warn(f"{path}: dropped {duplicates} duplicate tokens "
                      "(kept first occurrences)", stacklevel=2)
    matrix = np.concatenate(blocks) if blocks else np.empty((0, dim))
    return WordVectorSpace(words=tuple(words), matrix=matrix)


def _parse_values(values: list[str], linenos: list[int],
                  path: str | os.PathLike) -> np.ndarray:
    """Parse lines of space-separated floats in one numpy call; on failure,
    parse them one at a time to name the first bad line of `path`."""
    try:
        return _parse_rows(values)
    except ValueError:
        for text, lineno in zip(values, linenos):
            try:
                _parse_rows([text])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: unparseable float") from None
        raise


def _parse_rows(values: list[str]) -> np.ndarray:
    return np.loadtxt(values, dtype=float, delimiter=" ", comments=None,
                      quotechar=None, ndmin=2)


def save_text_embeddings(space: WordVectorSpace,
                         path: str | os.PathLike) -> None:
    """Write the space back out with a header line and 6 significant digits.

    Each value is written as `%.6g` (`_DIGITS` = 6), byte for byte what
    `f"{v:.6g}"` gives, from one row format applied to `_CHUNK_LINES` rows
    per write. Round-trips through `load_text_embeddings` to within 6
    significant digits. A word holding a space or a line break, which the
    format cannot hold, is a ValueError before the file is opened.
    """
    if len(space) == 0:
        raise ValueError("refusing to save an empty space")
    for word in space.words:
        if " " in word or "\n" in word or "\r" in word:
            raise ValueError(f"word {word!r} holds a space or a line break; "
                             "the text format cannot hold it")
    row_format = "%s " + " ".join([f"%.{_DIGITS}g"] * space.dim) + "\n"
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
    from .linalg import zca_whitening_matrix  # zca-whiten
    return matrix @ zca_whitening_matrix(matrix - matrix.mean(axis=0))


def normalize(space: WordVectorSpace, steps: Sequence[str]) -> WordVectorSpace:
    """Apply `steps`, a sequence of at most `MAX_STEPS` names from
    `VALID_STEPS`, in order, returning a new space."""
    for step in steps:
        if step not in VALID_STEPS:
            raise ValueError(f"unknown preprocessing step {step!r}")
    if len(steps) > MAX_STEPS:
        raise ValueError(f"chain exceeds {MAX_STEPS} steps")
    matrix = np.array(space.matrix, dtype=float)
    for step in steps:
        matrix = _apply_step(matrix, step)
        if not np.all(np.isfinite(matrix)):
            raise ValueError(f"non-finite values produced by step {step!r}")
    return WordVectorSpace(words=space.words, matrix=matrix)
