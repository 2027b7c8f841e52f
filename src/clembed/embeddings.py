"""Loading, validation, normalization, and persistence of word vector spaces.

File format is the word2vec-style text format: an optional header line
"<count> <dim>", then one line per word ("token v1 v2 ... vd", single
spaces, UTF-8, LF). Both headered and headerless files are accepted on
read; the header is always written on save. Values are read with numpy's
float syntax. A malformed file is a ValueError `<path>: [line N: ]<problem>`.

A save, and a load that parses a whole file and accepts it, keep a binary
companion beside the file, `<path>.clembed.npz`: every non-empty line's
token, and for each chunk of `_CHUNK_LINES` lines its rows and the size
and SHA-256 of the file's bytes through it. A later load is served from it
without parsing when the bytes it would read are unchanged (see
`load_text_embeddings`). A save stores the values a parse of the text it
writes gives: computed exactly from the digits written, and parsed for
the rows outside that exact range. So a companion always holds what a
parse gives; it is a cache, safe to delete. A saved text matrix (a
projection's `w_src.txt`) gets one too, with one chunk and no tokens
(`projection.save_matrix_text`).
Saves format values in numpy, byte for byte as Python's `%` does:
`_format_g6` an embedding's `%.6g`, `_format_g17` a matrix's `%.17g`.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import os
import re
import tempfile
import warnings
import zipfile
from collections.abc import Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import similarity
from .similarity import unit_rows

VALID_STEPS = ("unit-length", "mean-center", "zca-whiten")
MAX_STEPS = 3
# Lines per chunk of a text load or save: one numpy parse, or one write, each.
_CHUNK_LINES = 4096
# What errors="surrogateescape" decodes a byte that is not UTF-8 to
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")
# A file's binary companion is `<path>` + _COMPANION_SUFFIX
_COMPANION_SUFFIX = ".clembed.npz"
_COMPANION_VERSION = 2
# Bytes per read of stored rows: zipfile copies and checks each piece while
# it is still in cache
_READ_BYTES = 1 << 18
# the time stamp of every companion member, so that its bytes depend on its
# contents alone
_MEMBER_TIME = (1980, 1, 1, 0, 0, 0)


@contextmanager
def open_text(path: str | os.PathLike, data: bytes | None = None):
    """Open `path` to read as UTF-8 text, or `data`, its bytes already read.
    A byte that is not UTF-8 is a ValueError `<path>: line N: byte 0x.. is
    not UTF-8` naming the first line that holds one, wherever the read that
    met it stopped: the decoder reads ahead of the line a reader is on."""
    def opened(errors: str = "strict"):
        if data is None:
            return open(path, encoding="utf-8", errors=errors)
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                errors=errors)

    try:
        with opened() as fh:
            yield fh
    except UnicodeDecodeError:
        with opened("surrogateescape") as fh:
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

    A load without `needed` that reads the file to its end (`max_vocab`
    absent or not reached) and returns a space writes the file's binary
    companion, `<path>.clembed.npz`, as `save_text_embeddings` does: the
    token of every non-empty line, and per chunk its rows and the size and
    SHA-256 of the bytes read through it. A later load, whatever its
    `max_vocab` or `needed`, first finds its stop among the stored tokens
    by the same keep, stop and duplicate rule. If the file's first bytes,
    through those stored for the chunk that holds the stop, still have that
    digest (for a load that reads to the end of the file: if the whole file
    still has the last chunk's size and digest), the load is served from
    the companion without parsing, and reads only the rows of chunks that
    hold a kept word. Bytes after that prefix are never read, by the text
    parse either, so the load returns what the text would give. A companion
    that is missing, unreadable, corrupt or stale is ignored, and the next
    whole text load rewrites it. A companion that cannot be written is not
    written.
    """
    if max_vocab is not None and max_vocab <= 0:
        raise ValueError("max_vocab must be positive")
    # `needed` may be an iterator, read once for both the companion and the text
    wanted = None if needed is None else set(needed)
    select = _Selection(max_vocab, wanted)
    served = _read_companion(path, select)
    chunks = None
    if served is None:
        select = _Selection(max_vocab, wanted)
        tokens, rows, kept, chunks = _parse_text(path, select)
        words = tuple([tokens[i] for i in kept])
        matrix = rows if len(kept) == len(rows) else rows[kept]
    else:
        words, matrix = served
    if select.duplicates:
        warnings.warn(f"{path}: dropped {select.duplicates} duplicate tokens "
                      "(kept first occurrences)", stacklevel=2)
    space = WordVectorSpace(words=words, matrix=matrix)
    if chunks is not None:
        with _CompanionWriter(path) as companion:
            start = 0
            for end, size, sha256 in chunks:
                companion.add(rows[start:end], size, sha256)
                start = end
            companion.commit(tokens)
    return space


class _Selection:
    """The keep, stop and duplicate rule of a load with `max_vocab` and
    `needed`, fed the token of each non-empty line in file order."""

    def __init__(self, max_vocab: int | None, needed: Iterable[str] | None):
        self.max_vocab = max_vocab
        self.wanted = None if needed is None else set(needed)
        self.missing = None if self.wanted is None else set(self.wanted)
        self.seen: set[str] = set()
        self.duplicates = 0
        self.full = False       # the load stops after the line just taken

    def take(self, token: str) -> bool:
        """Whether the load keeps this line's word."""
        if token in self.seen:
            self.duplicates += 1
            return False
        self.seen.add(token)
        self.full = self.max_vocab is not None and len(self.seen) >= self.max_vocab
        if self.missing is not None:
            self.missing.discard(token)
            self.full = self.full or not self.missing
        return self.wanted is None or token in self.wanted


def _parse_text(path: str | os.PathLike, select: _Selection):
    """Parse `path` up to `select`'s stop: the token and values of each line
    parsed (without `needed`, of every non-empty line), the positions of the
    kept ones among them, and, when the whole file was parsed, one
    (rows, size, SHA-256) per chunk: the rows parsed and the bytes read
    through it, and the digest of those bytes; else None. The last line
    of the last chunk ends the file, so all its bytes had been read."""
    tokens: list[str] = []
    blocks: list[np.ndarray] = []
    kept: list[int] = []
    chunks: list[tuple[int, int, bytes]] = []
    dim: int | None = None
    # only a load without `needed` can write a companion, so only it hashes
    raw = _DigestingFile(path) if select.wanted is None else io.FileIO(path)
    # the decoder reads ahead of the stop, so it only marks bad bytes
    with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8",
                          errors="surrogateescape") as fh:
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
        while not select.full:
            chunk = list(itertools.islice(numbered, _CHUNK_LINES))
            if not chunk:
                break
            values: list[str] = []      # value fields of the lines to parse
            linenos: list[int] = []
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
                keep = select.take(token)
                if keep or select.wanted is None:
                    if keep:
                        kept.append(len(tokens))
                    tokens.append(token)
                    values.append(rest)
                    linenos.append(lineno)
                if select.full:
                    break
            if values:
                # an unparseable line before a structural error is reported first
                blocks.append(_parse_values(values, linenos, path))
            if error is not None:
                raise error
            if select.wanted is None and raw.digest is not None:
                # the chunk's lines were read, so these bytes (and any read
                # ahead of them) fix them
                chunks.append((len(tokens), raw.size, raw.digest.copy().digest()))
    if dim is None:
        raise ValueError(f"{path}: no embeddings found in file")
    rows = np.concatenate(blocks) if blocks else np.empty((0, dim))
    whole = select.wanted is None and not select.full and raw.digest is not None
    return tokens, rows, kept, (chunks if whole else None)


class _DigestingFile(io.FileIO):
    """A file opened to read that keeps the size and SHA-256 of the bytes
    read from it since it was last at offset 0 (`digest` None once a seek
    skips or repeats bytes)."""

    def __init__(self, path: str | os.PathLike):
        super().__init__(path, "rb")
        self.size = 0
        self.digest = hashlib.sha256()

    def readinto(self, buffer) -> int | None:
        n = super().readinto(buffer)
        if n and self.digest is not None:
            self.digest.update(memoryview(buffer)[:n])
            self.size += n
        return n

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        position = super().seek(offset, whence)
        if position == 0:
            self.size, self.digest = 0, hashlib.sha256()
        elif position != self.size:
            self.digest = None
        return position


def _companion_path(path: str | os.PathLike) -> str:
    return os.fspath(path) + _COMPANION_SUFFIX


def _read_companion(path: str | os.PathLike, select: _Selection):
    """The words and matrix of `select`'s load of `path`, from its companion
    if that holds the parse of every byte the load reads, else None.
    `select` is fed the stored tokens up to its stop."""
    try:
        with open(_companion_path(path), "rb") as fh, \
                np.load(fh, allow_pickle=False) as stored:
            if int(stored["version"]) != _COMPANION_VERSION:
                return None
            tokens = stored["tokens"].tobytes().decode("utf-8").split("\n")
            ends, sizes = stored["chunk_rows"], stored["chunk_bytes"]
            digests = stored["chunk_sha256"]
            if (ends.ndim != 1 or len(ends) == 0 or ends[-1] != len(tokens)
                    or sizes.shape != ends.shape
                    or digests.shape != (len(ends), 32)):
                return None
            kept, stop = [], len(tokens)
            for i, token in enumerate(tokens):
                if select.take(token):
                    kept.append(i)
                if select.full:
                    stop = i + 1
                    break
            # the chunk that holds the stop; with none, the whole file is read
            last = int(np.searchsorted(ends, stop)) if select.full else len(ends) - 1
            if last == len(ends) - 1 and os.stat(path).st_size != sizes[last]:
                return None
            # the text is hashed on another thread while the rows are read;
            # leaving the `with` block waits for it
            with ThreadPoolExecutor(max_workers=1) as hasher:
                digest = hasher.submit(_prefix_sha256, path, int(sizes[last]))
                matrix = _stored_rows(stored.zip, ends[:last + 1],
                                      np.array(kept, dtype=np.intp))
                if digest.result() != digests[last].tobytes():
                    return None
    except Exception:
        # a damaged zip or array fails in many ways (BadZipFile, KeyError,
        # EOFError, NotImplementedError, RuntimeError, ...); each one means
        # the text is parsed instead
        return None
    return tuple([tokens[i] for i in kept]), matrix


def _stored_matrix(path: str | os.PathLike, data: bytes) -> np.ndarray | None:
    """The matrix in the tokenless one-chunk companion of `path` (see
    `_CompanionWriter.commit`), if it was written for text of exactly the
    bytes `data`, else None."""
    try:
        with open(_companion_path(path), "rb") as fh, \
                np.load(fh, allow_pickle=False) as stored:
            ends = stored["chunk_rows"]
            if (int(stored["version"]) != _COMPANION_VERSION
                    or "tokens" in stored or ends.shape != (1,)
                    or stored["chunk_bytes"].tolist() != [len(data)]
                    or stored["chunk_sha256"].tobytes()
                    != hashlib.sha256(data).digest()):
                return None
            return _stored_rows(stored.zip, ends, np.arange(ends[0]))
    except Exception:
        # as in `_read_companion`: a damaged companion means a parse
        return None


def _prefix_sha256(path: str | os.PathLike, size: int) -> bytes | None:
    """The SHA-256 of the first `size` bytes of `path`; None if it is shorter."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while size > 0:
            if not (block := fh.read(min(size, 1 << 20))):
                return None
            digest.update(block)
            size -= len(block)
    return digest.digest()


def _stored_rows(archive: zipfile.ZipFile, ends: np.ndarray,
                 kept: np.ndarray) -> np.ndarray:
    """The stored rows at the sorted positions `kept`, from the chunks whose
    rows end at `ends`. Only chunks that hold a kept row are read (with none
    kept, the first, for the width), each in full, so that zipfile checks
    its CRC."""
    matrix = None
    start = 0
    for j, end in enumerate(ends):
        first, last = np.searchsorted(kept, (start, end))
        if first < last or (j == 0 and not len(kept)):
            with archive.open(f"rows{j}.npy") as member:
                if np.lib.format.read_magic(member) != (1, 0):
                    raise ValueError("unknown npy version")
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(member)
                if matrix is None:
                    matrix = np.empty((len(kept), shape[-1]))
                if (fortran or dtype != np.float64
                        or shape != (end - start, matrix.shape[1])):
                    raise ValueError("stored rows of the wrong shape")
                whole = last - first == end - start
                block = matrix[first:last] if whole else np.empty(shape)
                data = block.reshape(-1).view(np.uint8)
                for at in range(0, len(data), _READ_BYTES):
                    piece = data[at:at + _READ_BYTES]
                    if member.readinto(piece) != len(piece):
                        raise ValueError("stored rows cut short")
                if member.read(1):
                    raise ValueError("stored rows run on")
            if not whole:
                matrix[first:last] = block[kept[first:last] - start]
        start = end
    return matrix


class _CompanionWriter:
    """Writes `path`'s companion chunk by chunk into a temporary file in its
    directory, which `commit` moves into place with the permission bits of
    `path`. An OSError at any step, or leaving the `with` block without a
    commit, abandons it: no companion is written and no temporary file is
    left."""

    def __init__(self, path: str | os.PathLike):
        self.path = path
        self.chunks: list[tuple[int, int, bytes]] = []
        self.archive = None
        directory, name = os.path.split(_companion_path(path))
        try:
            fd, self.temporary = tempfile.mkstemp(prefix=name + ".", suffix=".tmp",
                                                  dir=directory or os.curdir)
        except OSError:
            return
        self.file = os.fdopen(fd, "wb")
        self.archive = zipfile.ZipFile(self.file, "w")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.abandon()

    def _member(self, name: str, array: np.ndarray) -> None:
        info = zipfile.ZipInfo(name + ".npy", date_time=_MEMBER_TIME)
        with self.archive.open(info, "w", force_zip64=True) as member:
            np.lib.format.write_array(member, array, allow_pickle=False)

    def add(self, rows: np.ndarray, size: int, sha256: bytes) -> None:
        """Store the next chunk: its float64 rows, and the size and SHA-256
        of the text's bytes through it."""
        if self.archive is None:
            return
        try:
            self._member(f"rows{len(self.chunks)}", rows)
        except OSError:
            self.abandon()
            return
        through = len(rows) + (self.chunks[-1][0] if self.chunks else 0)
        self.chunks.append((through, size, sha256))

    def commit(self, tokens: Sequence[str] | None = None) -> None:
        """Store the tokens of the rows added, and move the file into place.
        A token holds no line break, so the tokens are stored joined by one.
        A text matrix has no tokens: its companion stores none, and one
        chunk (`_stored_matrix`)."""
        if self.archive is None:
            return
        ends, sizes, digests = zip(*self.chunks)
        try:
            self._member("version", np.int64(_COMPANION_VERSION))
            if tokens is not None:
                self._member("tokens", np.frombuffer(
                    "\n".join(tokens).encode("utf-8"), dtype=np.uint8))
            self._member("chunk_rows", np.array(ends, dtype=np.int64))
            self._member("chunk_bytes", np.array(sizes, dtype=np.int64))
            self._member("chunk_sha256", np.frombuffer(b"".join(digests),
                                                       dtype=np.uint8).reshape(-1, 32))
            self.archive.close()
            # as readable as the text file, not only by its writer
            os.fchmod(self.file.fileno(), os.stat(self.path).st_mode & 0o666)
            self.file.close()
            os.replace(self.temporary, _companion_path(self.path))
        except OSError:
            self.abandon()
        self.archive = None

    def abandon(self) -> None:
        if self.archive is None:
            return
        with suppress(OSError):
            self.archive.close()
        with suppress(OSError):
            self.file.close()
        with suppress(OSError):
            os.remove(self.temporary)
        self.archive = None


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


# `_format_g6` writes a value v as `%.6g` from its digits m (10^5 <= m <
# 10^6) and decimal exponent e, |v| ~ m * 10^(e-5). For |e - 5| <= 22 both
# directions are one multiply or divide by an exact power of ten, so each
# is correctly rounded (Clinger 1990's fast path): m rounds |v| * 10^(5-e)
# as `%.6g` does, and m * 10^(e-5) is what a parse of the text gives.
_EXACT_POWER = 22           # 10^22 is the largest power of ten float64 holds
_E_MIN, _E_MAX = 5 - _EXACT_POWER, 5 + _EXACT_POWER
# One rounding of a scaled value below 10^6 errs by at most 2^-34: a value
# within this of a half-integer may round to the wrong digit
_TIE_BAND = 1e-9


def _ascii(text: str) -> int:
    """`text` as a little-endian integer: its first byte is the lowest."""
    return int.from_bytes(text.encode("ascii"), "little")


def _joined(words: np.ndarray) -> bytes:
    """The text of a block of fields laid out in uint64 words (last axis),
    NUL where shorter, byte 0 left for the separator before the field."""
    words[:, 1:, 0] |= np.uint64(_ascii(" "))
    words[1:, 0, 0] |= np.uint64(_ascii("\n"))
    text = words.view(np.uint8).reshape(-1)
    return text[text != 0].tobytes() + b"\n"


@cache
def _layouts(exponents: range, precision: int, first: tuple[int, int],
             tail_at: int) -> list[np.ndarray]:
    """Per layout (e - exponents.start, n significant digits, negative), the
    uint64 words of `%.<precision>g` text: three of text (from byte 1 sign,
    and "0." and zeros below 1; the point; "e+XX" from byte `tail_at`), and
    three each of the masks of the digits kept before the point (moved down
    a byte for it) and from it, digits from byte `first[bool(exponential)]`.
    Built on first use, as every command imports this module."""
    words = []
    for e in exponents:
        if -4 <= e < 0:             # 0.000ddd
            lead, point, tail = "0." + "0" * (-e - 1), 0, ""
        elif 0 <= e < precision:    # ddd.ddd
            lead, point, tail = "", e + 1, ""
        else:                       # d.ddddde+XX
            lead, point, tail = "", 1, f"e{e:+03d}"
        start = 8 * first[bool(tail)]
        before = ((1 << 8 * point) - 1) << start
        for n in range(precision + 1):
            kept = ((1 << 8 * max(n, point)) - 1) << start & ~before
            dot = _ascii(".") << start + 8 * point - 8 if 0 < point < n else 0
            for negative in (0, 1):
                text = _ascii("-" * negative + lead) << 8 | dot | _ascii(tail) << 8 * tail_at
                words.append([mask >> shift & (1 << 64) - 1
                              for mask in (text, before >> 8, kept)
                              for shift in (0, 64, 128)])
    return list(np.array(words, dtype=np.uint64).T.copy())


# the scale and unscale of each exponent: 10^(5-e) or 1, and 10^(e-5) or 1
_SCALE, _UNSCALE = (np.array([10.0 ** max(sign * (5 - e), 0)
                              for e in range(_E_MIN, _E_MAX + 1)])
                    for sign in (1, -1))
# the digits of 0-999, as 3 ASCII bytes, and how many are significant
_THREE_DIGITS = np.array([_ascii(f"{i:03d}") for i in range(1000)], dtype="<u8")
_SIGNIFICANT = np.array([len(f"{i:03d}".rstrip("0")) for i in range(1000)])


def _format_g6(block: np.ndarray) -> tuple[bytes, np.ndarray, np.ndarray]:
    """`%.6g` for a row block, in numpy: the block's value text (fields
    joined by spaces, each row ending in a line break), the float64 each
    field denotes, and a mask of the rows it cannot vouch for.

    Outside the mask the text is byte for byte `f"{v:.6g}"` and the values
    are bit for bit what numpy's parser reads from it. A row is in the mask
    when one of its values has an exponent outside _E_MIN.._E_MAX (every
    subnormal among them) or a scaled value within `_TIE_BAND` of a
    half-integer; the text and values of such a row are not to be used.

    Each value's text is laid out in three uint64 words (separator and
    head, digits with the point, tail) with NUL bytes wherever a field is
    shorter; dropping the NULs gives the text (`_joined`).
    """
    a = np.abs(block, dtype=np.float64)
    zero = a == 0
    a[zero] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    ei = np.clip(e - _E_MIN, 0, _E_MAX - _E_MIN)
    scaled = a * _SCALE[ei] / _UNSCALE[ei]
    # log10 may be one off next to a power of ten: one step corrects it. A
    # clipped exponent stays out of range, so its row is not vouched for
    off = ((scaled < 1e5) | (scaled >= 1e6)).nonzero()
    e[off] += np.where(scaled[off] < 1e5, -1, 1)
    ei[off] = np.clip(e[off] - _E_MIN, 0, _E_MAX - _E_MIN)
    scaled[off] = a[off] * _SCALE[ei[off]] / _UNSCALE[ei[off]]
    m = np.rint(scaled)
    slow = np.abs(scaled - m) > 0.5 - _TIE_BAND
    # a value that rounds up to 10^6 has the next exponent, as %g counts it
    up = m == 1e6
    m[up] = 1e5
    e += up
    slow |= (e < _E_MIN) | (e > _E_MAX)
    # zeros, and the values of rows not vouched for, get the exponent 0
    reset = slow | zero
    m[reset] = np.where(zero[reset], 0.0, 1e5)
    e[reset] = 0
    ei = e - _E_MIN
    values = m / _SCALE[ei]
    values *= _UNSCALE[ei]
    np.copysign(values, block, out=values)

    high, low = np.divmod(m.astype(np.intp), 1000)
    digits = _THREE_DIGITS[high] << np.uint64(8) | _THREE_DIGITS[low] << np.uint64(32)
    n = np.where(low == 0, _SIGNIFICANT[high], 3 + _SIGNIFICANT[low])
    layout = ei * 14 + n * 2 + np.signbit(block)
    words = np.empty(block.shape + (3,), dtype="<u8")
    table = _layouts(range(_E_MIN, _E_MAX + 1), 6, (9, 9), 16)  # digits 9-14
    words[..., 0] = table[0][layout]
    words[..., 1] = (table[1][layout] | digits >> np.uint64(8) & table[4][layout]
                     | digits & table[7][layout])
    words[..., 2] = table[2][layout]
    return _joined(words), values, slow.any(axis=1)


# `_format_g17` writes a nonzero |v| = m * 2^q (m < 2^53) as `%.17g` from
# its digits D = |v| * 10^k rounded half to even, k = 16 - e for decimal
# exponent e. For k <= 27, 5^k < 2^63 and m * 5^k is exact in 128 bits; for
# s = -(q + k) in 1..63 (10^-11 <= |v| < 2^51) one shift and remainder round
# D exactly, as the conversion behind Python's `%` does (Gay 1990).
_POW5 = [np.array([5 ** k >> shift & 0xFFFFFFFF for k in range(28)],
                  dtype=np.uint64) for shift in (32, 0)]
# 0-9999 as 4 ASCII bytes; per group of 4 digits after D's first, D's
# significant digits through it (of zeros: 1 in the first, else 0)
_FOUR_DIGITS = sum((np.arange(10000, dtype=np.uint64) // 10 ** (3 - j) % 10 + 48)
                   << 8 * j for j in range(4))
_THROUGH_GROUP = [np.where(np.arange(10000) == 0, int(i == 0), 4 * i + 5 - sum(
    np.arange(10000) % 10 ** j == 0 for j in (1, 2, 3))).astype(np.int8) for i in range(4)]


def _divmod(x: np.ndarray, unit: int) -> tuple[np.ndarray, np.ndarray]:
    """np.divmod of uint64 `x` by a constant, several times faster."""
    quotient = x // np.uint64(unit)
    return quotient, x - quotient * np.uint64(unit)


def _format_g17(block: np.ndarray) -> tuple[bytes, np.ndarray]:
    """`%.17g` for a non-empty 2-D block, in numpy: the text, each row byte
    for byte `" ".join("%.17g" % v for v in row)` and a line break, and a
    mask of the rows formatted in Python, as they hold a value the digit
    step cannot round (nonzero below 10^-11, 2^51 or more, nan or inf).
    Only nonzero values take the digit step. Text as in `_format_g6`."""
    a = np.abs(block, dtype=np.float64).reshape(-1)
    negative = np.signbit(block).reshape(-1)
    slow = ~np.isfinite(a)
    a[slow] = 1.0
    nonzero = a != 0
    at = slice(None) if nonzero.all() else np.flatnonzero(nonzero)
    a = a[at]
    e = np.clip(np.floor(np.log10(a)).astype(np.intp), -11, 15)
    bits = a.view(np.uint64)
    m = bits & np.uint64((1 << 52) - 1) | np.uint64(1 << 52)
    m_high, m_low = m >> np.uint64(32), m & np.uint64(0xFFFFFFFF)
    for last in (False, True):  # log10 may be one off next to a power of ten
        k = 16 - e
        s = 1075 - (bits >> np.uint64(52)).astype(np.intp) - k
        fit = (k <= 27) & (s >= 1) & (s <= 63)
        p_high, p_low = (p[np.clip(k, 0, 27)] for p in _POW5)
        mid = m_high * p_low + m_low * p_high       # below 2^53 + 2^63
        high = m_high * p_high + (mid >> np.uint64(32))
        mid <<= np.uint64(32)
        low = m_low * p_low + mid
        high += low < mid                           # the carry
        s = np.clip(s, 1, 63).astype(np.uint64)
        t = np.uint64(64) - s
        d = high << t | low >> s                    # floor(|v| * 10^k)
        off = (d >= 10 ** 17).astype(np.intp) - (d < 10 ** 16)
        if last or not off.any():
            break
        e += off
    slow[at] |= ~fit
    e[~fit] = 0                         # any layout: the row is redone
    # the bits shifted out, moved to the top: above 2^63 is above half
    d += (low << t) + (d & np.uint64(1)) > np.uint64(1 << 63)
    carry = d == 10 ** 17           # rounded up into the next exponent
    d[carry], e[carry] = 10 ** 16, e[carry] + 1
    # D's digits from byte 7 of three words (3 in exponential notation)
    top, rest = _divmod(d, 10 ** 16)
    top += np.uint64(_ascii("0"))
    groups = [g for half in _divmod(rest, 10 ** 8) for g in _divmod(half, 10 ** 4)]
    g = [_FOUR_DIGITS[group] for group in groups]
    digits = [top << np.uint64(56), g[0] | g[1] << np.uint64(32),
              g[2] | g[3] << np.uint64(32)]
    if (exponential := np.flatnonzero(e < -4)).size:
        top, g = top[exponential], [word[exponential] for word in g]
        digits[0][exponential] = top << np.uint64(24) | g[0] << np.uint64(32)
        digits[1][exponential] = g[1] | g[2] << np.uint64(32)
        digits[2][exponential] = g[3]
    n = np.maximum.reduce([through[group] for through, group
                           in zip(_THROUGH_GROUP, groups)])
    layout = ((e + 11) * 18 + n) * 2 + negative[at]
    words = np.zeros(block.shape + (3,), dtype="<u8")
    flat = words.reshape(-1, 3)                     # zeros: "0" or "-0"
    flat[:, 0] = _ascii("0") << 48 | negative * np.uint64(_ascii("-") << 8)
    digits.append(np.uint64(0))
    table = _layouts(range(-11, 17), 17, (7, 3), 20)    # digits from byte 7
    for i in range(3):
        moved = digits[i] >> np.uint64(8) | digits[i + 1] << np.uint64(56)
        flat[at, i] = (table[i][layout] | moved & table[3 + i][layout]
                       | digits[i] & table[6 + i][layout])
    slow = slow.reshape(block.shape).any(axis=1)
    data = _joined(words)
    if not slow.any():
        return data, slow
    lines = data.split(b"\n")
    for i in np.flatnonzero(slow):
        lines[i] = " ".join("%.17g" % v for v in block[i].tolist()).encode()
    return b"\n".join(lines), slow


def save_text_embeddings(space: WordVectorSpace,
                         path: str | os.PathLike) -> None:
    """Write the space back out with a header line and 6 significant digits,
    and write its companion, `<path>.clembed.npz`.

    Each value is written as `%.6g`, byte for byte what `f"{v:.6g}"` gives.
    Round-trips through `load_text_embeddings` to within 6 significant
    digits. A word holding a space or a line break, which the format cannot
    hold, is a ValueError before the file is opened.

    The companion is the one a whole load of the file would write, with the
    size and SHA-256 of the bytes written through each chunk of
    `_CHUNK_LINES` rows. Its values are those the loader's parser reads from
    the value text written, so a load served from it returns what a parse
    of the file returns. `_format_g6` computes both the text and those
    values exactly from the digits written, on row blocks spread over one
    thread per core (`similarity._workers`). A row it cannot vouch for (a
    nonzero value below 1e-17 or written as 1e28 or more, or one next to a
    rounding tie of its sixth digit) is formatted with one `%`-format, and
    its text parsed. The next chunk is formatted while one is written, so
    two chunks are held at a time, and the bytes written do not depend on
    the thread count. A companion that cannot be written is not written;
    the text file is written all the same.
    """
    if len(space) == 0:
        raise ValueError("refusing to save an empty space")
    for word in space.words:
        if " " in word or "\n" in word or "\r" in word:
            raise ValueError(f"word {word!r} holds a space or a line break; "
                             "the text format cannot hold it")
    row_format = " ".join(["%.6g"] * space.dim)
    digest = hashlib.sha256()
    with _CompanionWriter(path) as companion, \
            ThreadPoolExecutor(max_workers=similarity._workers()) as pool, \
            open(path, "wb") as fh:
        def formatting(start: int) -> tuple:  # rows, blocks, their futures
            rows = space.matrix[start:start + _CHUNK_LINES]
            blocks = similarity._blocks(len(rows), 8 * space.dim,
                                        similarity._BLOCK_BYTES // 128)
            return rows, blocks, [pool.submit(_format_g6, rows[at])
                                  for at in blocks]
        data = f"{len(space)} {space.dim}\n".encode("utf-8")
        chunk = formatting(0)
        for start in range(0, len(space), _CHUNK_LINES):
            rows, blocks, futures = chunk
            if start + _CHUNK_LINES < len(space):   # formatted meanwhile
                chunk = formatting(start + _CHUNK_LINES)
            # each block's results are copied out as they come, so that a
            # chunk's results are not all held twice
            text, values, slow = bytearray(), np.empty(rows.shape), []
            for at, future in zip(blocks, futures):
                block_text, block, mask = future.result()
                text += block_text
                values[at] = block
                slow.extend(np.flatnonzero(mask) + at.start)
            lines = bytes(text).split(b"\n")
            if slow:
                texts = [row_format % tuple(rows[i].tolist()) for i in slow]
                values[slow] = _parse_rows(texts)
                for i, row_text in zip(slow, texts):
                    lines[i] = row_text.encode("ascii")
            words = [word.encode("utf-8")
                     for word in space.words[start:start + _CHUNK_LINES]]
            data += b"".join(itertools.chain.from_iterable(zip(
                words, itertools.repeat(b" "), lines, itertools.repeat(b"\n"))))
            fh.write(data)
            digest.update(data)
            companion.add(values, fh.tell(), digest.copy().digest())
            data = b""
        companion.commit(space.words)


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
