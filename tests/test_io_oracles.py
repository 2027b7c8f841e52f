"""The chunked embedding loader, the vectorised saver and the TREC writer
against the line-at-a-time code they replaced.

`oracle_load_text_embeddings` and `oracle_save_text_embeddings` are the
earlier implementations: one `np.array(values, dtype=float)` per line, and
one f-string per value. The library checks each line's structure in Python
but parses a chunk of lines in one numpy call, and formats row blocks with
the numpy kernel `_format_g6` (a row it does not vouch for with one
`%`-format). The loader must return an equal space (same words, bit-equal
matrix, same duplicate warning) or raise the same message with the same line
number; the savers must write the same bytes. Loader files span several
chunks because the chunk size is patched down to 2 or 3 lines. A load with
`needed` words is compared with the oracle load of a copy of its file, as
`filtered_oracle_outcome` describes.

One difference is intended and has its own tests: values follow numpy's
float syntax. Spellings that only Python's `float` reads (`1_0`, non-ASCII
digits) are "unparseable float", and numbers padded with the control
characters \\x1c-\\x1f are read. The generated files use neither.

A whole-file load, and a save, write a binary companion next to the file,
and later loads that read unchanged bytes are served from it: they must
give the oracle's outcome too, without parsing a value.
"""

import io
import itertools
import os
import re
import warnings
import zipfile
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clembed import clir, embeddings, similarity
from clembed.clir import ClirRun, write_trec_run
from clembed.embeddings import (WordVectorSpace, load_text_embeddings,
                                save_text_embeddings)
from clembed.similarity import unit_rows


def oracle_load_text_embeddings(path, max_vocab=None):
    if max_vocab is not None and max_vocab <= 0:
        raise ValueError("max_vocab must be positive")
    words = []
    rows = []
    seen = set()
    duplicates = 0
    dim = None
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip():
            raise ValueError(f"{path}: empty embedding file")
        start_line = 1
        parts = first.rstrip("\n").split(" ")
        if len(parts) == 2:
            try:
                int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}: line 1: malformed header line")
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
                    raise ValueError(f"{path}: line {lineno}: no vector values")
                dim = len(values)
            elif len(values) != dim:
                raise ValueError(f"{path}: line {lineno}: expected {dim} "
                                 f"values, got {len(values)}")
            try:
                vec = np.array(values, dtype=float)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: unparseable float")
            if token in seen:
                duplicates += 1
                continue
            seen.add(token)
            words.append(token)
            rows.append(vec)
            if max_vocab is not None and len(words) >= max_vocab:
                break
    if not words:
        raise ValueError(f"{path}: no embeddings found in file")
    if duplicates:
        warnings.warn(f"{path}: dropped {duplicates} duplicate tokens "
                      "(kept first occurrences)", stacklevel=2)
    return WordVectorSpace(words=tuple(words), matrix=np.vstack(rows))


def oracle_save_text_embeddings(space, path, precision=6):
    if len(space) == 0:
        raise ValueError("refusing to save an empty space")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(space)} {space.dim}\n")
        for word, row in zip(space.words, space.matrix):
            values = " ".join(f"{v:.{precision}g}" for v in row)
            fh.write(f"{word} {values}\n")


def oracle_write_trec_run(run, path, tag="clembed", depth=1000):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for qid in sorted(run.rankings):
            for rank, did in enumerate(run.rankings[qid][:depth], start=1):
                fh.write(f"{qid} Q0 {did} {rank} {1.0 / rank:.6f} {tag}\n")


def load_outcome(load, path, **kwargs):
    """What a load gives: words, matrix bytes and warnings, or the error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            space = load(path, **kwargs)
        except ValueError as exc:
            return ("raised", type(exc).__name__, str(exc))
    return ("loaded", space.words, space.matrix.shape, space.matrix.dtype,
            space.matrix.tobytes(), [str(w.message) for w in caught])


def write_raw(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def assert_loads_like_oracle(path, text, **kwargs):
    """The new loader and the oracle give the same outcome on `text`."""
    write_raw(path, text)
    want = load_outcome(oracle_load_text_embeddings, path, **kwargs)
    assert load_outcome(load_text_embeddings, path, **kwargs) == want
    return want


FLOAT_FORMATS = (repr, "{:.3g}".format, "{:.17e}".format, "{:.25f}".format)
BAD_FIELDS = ("zero", "", "1e", "--1", "0x10", "1.2.3", "1,5", "+", ".",
              "nan", "inf", "-Infinity")
WORDS = ("a", "b", "c", "ü", "w_1", "", "w\x00")  # a trailing NUL, too

good_field = st.builds(lambda fmt, v: fmt(v), st.sampled_from(FLOAT_FORMATS),
                       st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def embedding_files(draw, clean=False):
    """Text of a word2vec file: an optional header, blank and space-only
    lines, duplicates, wrong value counts, bad and empty fields, LF or CRLF
    endings, and lines that may end in spaces. With `clean`, a file that a
    whole load accepts unless a value overflows: a valid header or none,
    rows of at least two values, duplicates, empty lines, LF or CRLF."""
    dim = draw(st.integers(2 if clean else 1, 4))
    lines = []
    if draw(st.booleans()):
        lines.append(f"{draw(st.integers(0, 9))} {dim}" if clean else draw(
            st.sampled_from([f"{draw(st.integers(0, 9))} {dim}", "3 x", "3 2 1"])))
    kinds = ("row",) * 8 + ("blank", "blank") + (() if clean else ("count", "bad"))
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("" if clean else draw(st.sampled_from(("", " ", "  "))))
            continue
        count = draw(st.integers(0, dim + 1)) if kind == "count" else dim
        fields = [draw(good_field) for _ in range(count)]
        if kind == "bad":
            fields[draw(st.integers(0, dim - 1))] = draw(st.sampled_from(BAD_FIELDS))
        lines.append(" ".join([draw(st.sampled_from(WORDS))] + fields))
    endings = ("\n", "\r\n") if clean else ("\n", "\r\n", " \n", " \r\n")
    ends = [draw(st.sampled_from(endings)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")              # no newline at the end
    return text


@settings(max_examples=300, deadline=None)
@given(text=embedding_files(), chunk=st.sampled_from((2, 3, 4096)),
       max_vocab=st.one_of(st.none(), st.integers(1, 6)))
def test_loader_matches_oracle(tmp_path_factory, text, chunk, max_vocab):
    path = tmp_path_factory.mktemp("load") / "vec.txt"
    with mock.patch.object(embeddings, "_CHUNK_LINES", chunk):
        assert_loads_like_oracle(path, text, max_vocab=max_vocab)


def distinct_tokens(path):
    """The first field of each non-empty line after a header, in file order,
    each once: the words a full load keeps, for any file it accepts."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    first = lines[0].split(" ") if lines else []
    if len(first) == 2 and all(part.lstrip("-").isdigit() for part in first):
        lines = lines[1:]
    return list(dict.fromkeys(line.partition(" ")[0] for line in lines if line))


def filtered_oracle_outcome(path, needed, max_vocab=None):
    """What a load of `path` with `needed` should give, by the oracle: the
    oracle load of a copy of the file in which every line the filter does
    not keep (a line that is not the first of a needed word) has each
    value field replaced by "0", cut after the line that completes
    `needed` (after the first word for an empty set) or at `max_vocab`,
    then restricted to the needed words. The replacement keeps the field
    count, and a line whose value part is empty is left to raise."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    copied = []
    seen = []                   # distinct tokens in file order
    for i, line in enumerate(lines):
        body = line.rstrip("\n")
        if i == 0 and (not body.strip() or len(body.split(" ")) == 2):
            copied.append(line)                  # a header, or an error
            continue
        token, _, rest = body.partition(" ")
        kept = body and token not in seen and token in needed
        if body and token not in seen:
            seen.append(token)
        if body and rest and not kept:
            line = " ".join([token] + ["0"] * len(rest.split(" "))) + "\n"
        copied.append(line)
    cut = max_vocab
    if set(needed) <= set(seen):
        k = max([seen.index(word) + 1 for word in needed], default=1)
        cut = k if max_vocab is None else min(k, max_vocab)
    copy = path.with_name(path.name + ".oracle")
    write_raw(copy, "".join(copied))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            space = oracle_load_text_embeddings(copy, max_vocab=cut)
        except ValueError as exc:
            return ("raised", type(exc).__name__,
                    str(exc).replace(str(copy), str(path)))
    rows = [i for i, word in enumerate(space.words) if word in needed]
    matrix = space.matrix[rows]
    return ("loaded", tuple(space.words[i] for i in rows), matrix.shape,
            matrix.dtype, matrix.tobytes(),
            [str(w.message).replace(str(copy), str(path)) for w in caught])


@settings(max_examples=300, deadline=None)
@given(text=embedding_files(), chunk=st.sampled_from((2, 3, 4096)),
       max_vocab=st.one_of(st.none(), st.integers(1, 6)), data=st.data())
def test_needed_words_filter_the_load(tmp_path_factory, text, chunk, max_vocab,
                                      data):
    """A load with a needed set keeps just the needed words, parses no other
    line's values and stops where the oracle's cut is; with a word absent
    from the file, it reads the whole file."""
    path = tmp_path_factory.mktemp("needed") / "vec.txt"
    write_raw(path, text)
    tokens = distinct_tokens(path)
    needed = data.draw(st.sets(st.sampled_from(tokens)) if tokens
                       else st.just(set()))
    if data.draw(st.booleans()):
        needed |= data.draw(st.sets(st.sampled_from(("absent", "w_2")),
                                    min_size=1))
    with mock.patch.object(embeddings, "_CHUNK_LINES", chunk):
        assert load_outcome(load_text_embeddings, path, needed=needed,
                            max_vocab=max_vocab) == \
            filtered_oracle_outcome(path, needed, max_vocab)


def numbered_file(n_rows, dim, bad_row, bad_text):
    """Headered file of `n_rows` distinct words; row `bad_row` is `bad_text`."""
    lines = [f"{n_rows} {dim}"]
    for i in range(n_rows):
        lines.append(bad_text if i == bad_row
                     else " ".join([f"w{i}"] + [f"{i}.{j}" for j in range(dim)]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("chunk", (2, 3, 4096))
@pytest.mark.parametrize("bad_text, message", [
    ("bad 1 zero 3", "unparseable float"),
    ("bad 1  3", "unparseable float"),
    ("bad 1 2", "expected 3 values, got 2"),
    ("bad 1 2 3 4", "expected 3 values, got 4"),
    ("bad", "expected 3 values, got 0"),
    ("w0 1 x 3", "unparseable float"),           # a malformed duplicate
])
@pytest.mark.parametrize("bad_row", (1, 5, 6))
def test_errors_name_the_line_across_chunks(tmp_path, chunk, bad_text, message,
                                            bad_row):
    path = tmp_path / "vec.txt"
    text = numbered_file(8, 3, bad_row, bad_text)
    with mock.patch.object(embeddings, "_CHUNK_LINES", chunk):
        want = assert_loads_like_oracle(path, text)
        assert want == ("raised", "ValueError",
                        f"{path}: line {bad_row + 2}: {message}")
        # a cut just before the bad line: it is neither parsed nor checked
        loaded = assert_loads_like_oracle(path, text, max_vocab=bad_row)
        assert loaded[0] == "loaded" and len(loaded[1]) == bad_row
        # a load with needed words stops after the last of them, before the
        # bad line, and keeps just them
        needed = {"w0", f"w{bad_row - 1}"}
        assert load_outcome(load_text_embeddings, path, needed=needed) == \
            filtered_oracle_outcome(path, needed)
        # with one of them absent it reads the whole file: a wrong value
        # count still raises and names its line, while a bad value on a
        # line it does not keep (a duplicate of w0, too) loads
        whole = load_outcome(load_text_embeddings, path,
                             needed=needed | {"absent"})
        assert whole == filtered_oracle_outcome(path, needed | {"absent"})
        if "values" in message:
            assert whole == want
        else:
            assert whole[0] == "loaded" and set(whole[1]) == needed
        # a bad value on a line it keeps is still reported
        if not bad_text.startswith("w0"):
            assert load_outcome(load_text_embeddings, path,
                                needed=needed | {"bad"}) == want


def test_unparseable_line_before_a_count_error_is_reported_first(tmp_path):
    path = tmp_path / "vec.txt"
    want = assert_loads_like_oracle(path, "a 1 2\nb 1 x\nc 1 2 3\n")
    assert want == ("raised", "ValueError", f"{path}: line 2: unparseable float")


@pytest.mark.parametrize("text, line", [("2 1\na 1\nb \n", 3),
                                        ("2 1\na \nb 1\n", 2),
                                        ("2 1\na 1\n \n", 3)])
def test_one_empty_value_is_unparseable(tmp_path, text, line):
    """numpy's parser skips an empty value field as a blank line; the loader
    must still reject it, as the line-at-a-time loader did."""
    path = tmp_path / "vec.txt"
    want = assert_loads_like_oracle(path, text)
    assert want == ("raised", "ValueError",
                    f"{path}: line {line}: unparseable float")


@pytest.mark.parametrize("spelling", ["1_0", "١", "１", "1e1_0"])
def test_python_only_float_spellings_are_unparseable(tmp_path, spelling):
    """The intended difference: numpy's parser, unlike `float`, rejects
    underscores and non-ASCII digits."""
    path = tmp_path / "vec.txt"
    write_raw(path, f"a 1 2\nb 3 {spelling}\n")
    assert oracle_load_text_embeddings(path).matrix[1, 1] == float(spelling)
    with pytest.raises(ValueError,
                       match=re.escape(f"{path}: line 2: unparseable float")):
        load_text_embeddings(path)


@pytest.mark.parametrize("padded", ["\x1c1", "1\x1f"])
def test_numbers_padded_with_separator_controls_are_read(tmp_path, padded):
    """The intended difference: numpy's parser, unlike `float`, skips the
    control characters \\x1c-\\x1f around a number."""
    path = tmp_path / "vec.txt"
    write_raw(path, f"a 1 2\nb 3 {padded}\n")
    assert load_text_embeddings(path).matrix[1].tolist() == [3.0, 1.0]
    with pytest.raises(ValueError,
                       match=re.escape(f"{path}: line 2: unparseable float")):
        oracle_load_text_embeddings(path)


EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
            -1e-300, 1e300, -1e300, 1.7976931348623157e308)
value = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from(EXTREMES))


@settings(max_examples=200, deadline=None)
@given(matrix=st.integers(1, 5).flatmap(lambda d: arrays(
           np.float64, st.tuples(st.integers(1, 7), st.just(d)), elements=value)),
       chunk=st.sampled_from((2, 3, 4096)))
def test_saver_writes_the_oracles_bytes(tmp_path_factory, matrix, chunk):
    space = WordVectorSpace(tuple(f"w{i}%s" for i in range(len(matrix))), matrix)
    tmp = tmp_path_factory.mktemp("save")
    oracle_save_text_embeddings(space, tmp / "old.txt")
    with mock.patch.object(embeddings, "_CHUNK_LINES", chunk):
        save_text_embeddings(space, tmp / "new.txt")
    assert (tmp / "new.txt").read_bytes() == (tmp / "old.txt").read_bytes()


def assert_vouched_rows_match(matrix):
    """`_format_g6`'s text of each row it vouches for is the f-string
    oracle's, and its values are bit for bit the parse of that text."""
    text, values, slow = embeddings._format_g6(matrix)
    lines = text.decode("ascii").split("\n")
    assert lines[-1] == "" and len(lines) == len(matrix) + 1
    assert values.shape == matrix.shape and values.dtype == np.float64
    assert slow.shape == (len(matrix),)
    for row, line, row_values, skip in zip(matrix.tolist(), lines, values, slow):
        if not skip:
            assert line == " ".join(f"{v:.6g}" for v in row)
            assert row_values.tobytes() == \
                embeddings._parse_rows([line])[0].tobytes()
    return slow


def with_neighbours(v):
    """`v` and the floats one ulp either side of it."""
    return (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))


# 6-digit decimal ties d.ddddd5 * 10^k, and 10^k
TIES = st.builds(lambda digits, k: float(f"{digits}5e{k}"),
                 st.integers(100000, 999999), st.integers(-30, 30))
POWERS = st.integers(-30, 30).map(lambda k: float(f"1e{k}"))
ROUND_UP = (9.999995e-05, 999999.5, 9999995.0)
hard_value = st.tuples(
    st.one_of(st.one_of(TIES, POWERS).flatmap(
                  lambda v: st.sampled_from(with_neighbours(v))),
              st.sampled_from(ROUND_UP + (0.0,)),
              st.floats(0, 2.2250738585072014e-308, allow_subnormal=True),
              st.floats(1e17, 1e300), st.floats(0, 1e17)),
    st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


@settings(max_examples=300, deadline=None)
@given(matrix=st.integers(1, 6).flatmap(lambda d: arrays(
           np.float64, st.tuples(st.integers(1, 6), st.just(d)),
           elements=hard_value)))
def test_format_g6_rows_it_vouches_for_match_the_oracle_and_the_parser(matrix):
    assert_vouched_rows_match(matrix)


def test_format_g6_vouches_for_every_exact_value_it_can():
    """One value per row: powers of ten and their neighbours, ties and
    values that round up to the next power. The kernel vouches for every
    value from 1e-17 to 1e27 not next to a tie, and for zeros; it leaves
    every tie, and every value below 1e-17 or written as 1e28 or more, to
    the parse."""
    ties = [v for k in (-20, -9, 0, 9, 20)
            for v in with_neighbours(float(f"1234565e{k}"))]
    column = [*(v for k in range(-30, 31) for v in with_neighbours(float(f"1e{k}"))),
              *ties, *ROUND_UP, 0.0, -0.0, 5e-324, 1e-310, 9.9999996e-18,
              1e17, 3e27, 9.9999996e27, 1e28, 1e300]
    matrix = np.array(column + [-v for v in column])[:, None]
    slow = assert_vouched_rows_match(matrix)
    magnitude = np.abs(matrix[:, 0])
    near_tie = np.isin(magnitude, ties + list(ROUND_UP))
    inside = (magnitude == 0) | ((magnitude >= 1e-17) & (magnitude <= 1e27))
    assert not slow[inside & ~near_tie].any()
    assert slow[near_tie].all()
    written = np.abs([float(f"{v:.6g}") for v in matrix[:, 0]])
    assert slow[(magnitude != 0) & ((magnitude < 1e-17) | (written >= 1e28))].all()


def test_a_save_parses_no_value_and_its_bytes_do_not_depend_on_threads(
        tmp_path):
    """A save of unit rows computes every value from its digits: no value
    is parsed. Its text is the oracle's whatever the thread count, chunk
    and block size, and its companion depends on the chunk size alone."""
    rng = np.random.default_rng(5)
    matrix = unit_rows(rng.standard_normal((300, 50)))
    space = WordVectorSpace(tuple(f"w{i}é" for i in range(300)), matrix)
    oracle_save_text_embeddings(space, tmp_path / "oracle.txt")
    companions = {}
    # format blocks of 655 rows (the library's 256 KiB) and of 7 rows
    for workers, chunk, budget in itertools.product((1, 3), (2, 3, 4096),
                                                    (2 ** 25, 128 * 2800)):
        path = tmp_path / f"{workers}-{chunk}-{budget}.txt"
        with counting_parses() as counts, \
                mock.patch.object(similarity, "_workers", lambda: workers), \
                mock.patch.object(embeddings, "_CHUNK_LINES", chunk), \
                mock.patch.object(similarity, "_BLOCK_BYTES", budget):
            save_text_embeddings(space, path)
        assert counts == []
        assert path.read_bytes() == (tmp_path / "oracle.txt").read_bytes()
        companions.setdefault(chunk, set()).add(companion(path).read_bytes())
    assert all(len(stored) == 1 for stored in companions.values())
    with counting_parses() as counts:
        assert load_outcome(load_text_embeddings, path) == \
            load_outcome(oracle_load_text_embeddings, tmp_path / "oracle.txt")
    assert counts == []


def companion(path):
    return path.with_name(path.name + ".clembed.npz")


# any token a saved file can hold: no space, no line break
savable_word = st.text(st.characters(blacklist_characters=" \n\r",
                                     blacklist_categories=("Cs",)), max_size=3)


@settings(max_examples=200, deadline=None)
@given(matrix=st.integers(1, 5).flatmap(lambda d: arrays(
           np.float64, st.tuples(st.integers(1, 7), st.just(d)), elements=value)),
       chunk=st.sampled_from((2, 3, 4096)), data=st.data())
def test_a_saved_files_companion_serves_its_loads(tmp_path_factory, matrix,
                                                  chunk, data):
    """A save writes the companion of the text it writes: every whole,
    `max_vocab` and `needed` load of the saved file is then served without
    a parse, with the oracle's outcome for that text."""
    words = data.draw(st.lists(savable_word, min_size=len(matrix),
                               max_size=len(matrix), unique=True))
    path = tmp_path_factory.mktemp("saved") / "vec.txt"
    with mock.patch.object(embeddings, "_CHUNK_LINES", chunk):
        save_text_embeddings(WordVectorSpace(tuple(words), matrix), path)
    max_vocab = data.draw(st.integers(1, len(words) + 1))
    needed = data.draw(st.sets(st.sampled_from([*words, "absent"])))
    for kwargs in (dict(), dict(max_vocab=max_vocab), dict(needed=needed),
                   dict(needed=needed, max_vocab=max_vocab)):
        with counting_parses() as counts:
            got = load_outcome(load_text_embeddings, path, **kwargs)
        assert counts == []
        assert got == oracle_outcome(path, **kwargs)




@contextmanager
def counting_parses():
    """The row counts of each numpy parse made inside the block."""
    counts = []
    parse_rows = embeddings._parse_rows

    def counting_parse_rows(values):
        counts.append(len(values))
        return parse_rows(values)

    with mock.patch.object(embeddings, "_parse_rows", counting_parse_rows):
        yield counts


def oracle_outcome(path, needed=None, max_vocab=None):
    if needed is None:
        return load_outcome(oracle_load_text_embeddings, path,
                            max_vocab=max_vocab)
    return filtered_oracle_outcome(path, needed, max_vocab)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(embedding_files(), embedding_files(clean=True)),
       chunk=st.sampled_from((2, 3, 4096)),
       max_vocab=st.one_of(st.none(), st.integers(1, 6)), data=st.data())
def test_loads_after_a_whole_load_are_served_from_its_companion(
        tmp_path_factory, text, chunk, max_vocab, data):
    """A whole load that returns a space writes a companion, and one that
    raises writes none. Every later load, with any `max_vocab` or `needed`,
    gives the oracle's outcome, warnings included; with a companion it
    parses no value."""
    path = tmp_path_factory.mktemp("served") / "vec.txt"
    needed = None
    with mock.patch.object(embeddings, "_CHUNK_LINES", chunk):
        whole = assert_loads_like_oracle(path, text)
        assert companion(path).exists() == (whole[0] == "loaded")
        if data.draw(st.booleans()):
            tokens = distinct_tokens(path)
            needed = data.draw(st.sets(st.sampled_from(tokens)) if tokens
                               else st.just(set()))
            if data.draw(st.booleans()):
                needed.add("absent")
        with counting_parses() as counts:
            got = load_outcome(load_text_embeddings, path, needed=needed,
                               max_vocab=max_vocab)
    assert got == oracle_outcome(path, needed, max_vocab)
    if whole[0] == "loaded":
        assert counts == []


def clean_file(n_rows=8, dim=3):
    """A headered file every load accepts, with w1 repeated on line 5."""
    lines = [" ".join([f"w{i}"] + [f"{i}.{j}5" for j in range(dim)])
             for i in range(n_rows)]
    lines.insert(3, "w1 " + " ".join(["9"] * dim))
    return f"{len(lines)} {dim}\n" + "\n".join(lines) + "\n"


@pytest.mark.parametrize("kwargs, text", [
    (dict(needed={"w0", "w2"}), clean_file()),
    (dict(needed={"absent"}), clean_file()),        # reads the whole file
    (dict(max_vocab=3), clean_file()),              # stops early
    (dict(max_vocab=8), clean_file()),              # stops at the last line
    (dict(), clean_file() + "bad 1 2\n"),           # raises
    (dict(max_vocab=20), "a 1 2\nb 1 x\n"),         # raises
    (dict(), "a 1 2\nb 1e999 2\n"),                 # a non-finite matrix
])
def test_no_companion_after_a_partial_or_failed_load(tmp_path, kwargs, text):
    path = tmp_path / "vec.txt"
    write_raw(path, text)
    assert load_outcome(load_text_embeddings, path, **kwargs) == \
        oracle_outcome(path, **kwargs)
    assert [p.name for p in tmp_path.iterdir()
            if not p.name.endswith(".oracle")] == ["vec.txt"]


def test_a_load_short_of_max_vocab_writes_the_companion(tmp_path):
    """It is written as readable as its file."""
    path = tmp_path / "vec.txt"
    write_raw(path, clean_file())
    path.chmod(0o640)
    assert_loads_like_oracle(path, clean_file(), max_vocab=9)
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["vec.txt", "vec.txt.clembed.npz"]
    assert companion(path).stat().st_mode & 0o777 == 0o640
    with counting_parses() as counts:
        assert load_outcome(load_text_embeddings, path) == oracle_outcome(path)
    assert counts == []


def test_a_relative_paths_companion_is_written_beside_it(tmp_path,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_raw(tmp_path / "vec.txt", clean_file())
    want = load_outcome(oracle_load_text_embeddings, "vec.txt")
    assert load_outcome(load_text_embeddings, "vec.txt") == want
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["vec.txt", "vec.txt.clembed.npz"]
    with counting_parses() as counts:
        assert load_outcome(load_text_embeddings, "vec.txt") == want
    assert counts == []


def test_a_rewrite_of_the_same_size_and_mtime_is_parsed_again(tmp_path):
    """The companion is checked against the file's bytes, not against its
    size and modification time."""
    path = tmp_path / "vec.txt"
    first = assert_loads_like_oracle(path, clean_file())
    before = os.stat(path)
    write_raw(path, clean_file().replace("w2 2.05", "w2 7.05"))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == \
        (before.st_size, before.st_mtime_ns)
    with counting_parses() as counts:
        got = load_outcome(load_text_embeddings, path)
    assert got == oracle_outcome(path) and got != first
    assert counts != []
    with counting_parses() as counts:
        assert load_outcome(load_text_embeddings, path) == got
    assert counts == []                         # from the rewritten companion


def with_member(name, change):
    """A spoiler that rewrites a companion with its member `name` changed."""
    def spoil(data):
        with np.load(io.BytesIO(data)) as stored:
            members = dict(stored)
        members[name] = change(members[name])
        out = io.BytesIO()
        np.savez(out, **members)
        return out.getvalue()
    return spoil


def at_last(change):
    """A change to the last entry (row) of a companion's chunk array."""
    def change_last(array):
        array = array.copy()
        array[-1] = change(array[-1])
        return array
    return change_last


@pytest.mark.parametrize("spoil", [
    lambda data: data[:len(data) // 2], lambda data: b"garbage", lambda data: b"",
    lambda data: data.replace(b"w1", b"w9"),
    with_member("version", lambda v: v + 1),
    with_member("chunk_bytes", at_last(lambda size: size + 1)),
    with_member("chunk_sha256", at_last(lambda digest: digest ^ 1)),
    with_member("rows0", lambda m: m[:-1]),
    with_member("rows0", lambda m: m.astype(np.float32)),
    with_member("rows0", lambda m: m.astype(np.int64)),
    with_member("rows0", np.asfortranarray),
    with_member("chunk_rows", lambda ends: np.concatenate([ends[:1] - 1, ends[1:]])),
    with_member("tokens", lambda t: t[:-3])])   # drops "\nw7"
def test_a_spoiled_companion_is_ignored_and_replaced(tmp_path, spoil):
    """A whole load checks the last chunk's size and digest against the
    whole file, and every chunk's rows; with one chunk, and with five."""
    path = tmp_path / "vec.txt"
    for chunk in (4096, 2):
        companion(path).unlink(missing_ok=True)
        with mock.patch.object(embeddings, "_CHUNK_LINES", chunk):
            want = assert_loads_like_oracle(path, clean_file())
            good = companion(path).read_bytes()
            companion(path).write_bytes(spoil(good))
            with counting_parses() as counts:
                assert load_outcome(load_text_embeddings, path) == want
        assert counts != [] and companion(path).read_bytes() == good


def test_a_companion_with_a_byte_changed_never_changes_a_load(tmp_path):
    """A companion is checked by its zip CRCs, its shapes and the text's
    digest; whatever one changed byte breaks, the load is the text's. So
    for a whole load, and for a prefix load (two lines per chunk; it reads
    two of the five chunks)."""
    path = tmp_path / "vec.txt"
    for chunk, kwargs in ((4096, {}), (2, dict(max_vocab=3))):
        companion(path).unlink(missing_ok=True)
        with mock.patch.object(embeddings, "_CHUNK_LINES", chunk):
            assert_loads_like_oracle(path, clean_file())
        want = oracle_outcome(path, **kwargs)
        good = companion(path).read_bytes()
        for at in np.random.default_rng(0).choice(len(good), 300, replace=False):
            spoiled = bytearray(good)
            spoiled[at] ^= 0x5A
            companion(path).write_bytes(bytes(spoiled))
            assert load_outcome(load_text_embeddings, path, **kwargs) == want


def test_stored_rows_are_read_to_the_end_of_their_member(tmp_path):
    """zipfile checks a member's CRC once it is read to its end: a rows
    member 8 KiB longer than its header says (more than zipfile reads
    ahead), with a value then changed, is refused."""
    path = tmp_path / "vec.txt"
    want = assert_loads_like_oracle(path, clean_file())
    with np.load(companion(path)) as stored:
        members = {name: stored[name] for name in stored.files}
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as archive:
        for name, array in members.items():
            member = io.BytesIO()
            np.lib.format.write_array(member, array)
            archive.writestr(name + ".npy", member.getvalue()
                             + (bytes(8192) if name == "rows0" else b""))
    spoiled = bytearray(out.getvalue())
    spoiled[spoiled.index(np.float64(0.05).tobytes())] ^= 1    # w0's first value
    companion(path).write_bytes(bytes(spoiled))
    with counting_parses() as counts:
        assert load_outcome(load_text_embeddings, path) == want
    assert counts != []


@pytest.mark.parametrize("end", ["\n", ""])
def test_a_longer_file_is_parsed_again(tmp_path, end):
    """A file longer than the text reader's read-ahead, whole-loaded at two
    lines per chunk, is served from its companion by the next whole load.
    Once bytes are appended (to its last line, when that has no line
    break), a whole load parses it again, while a load that stops in the
    second chunk is still served."""
    rng = np.random.default_rng(3)
    text = "\n".join(" ".join([f"w{i}", *map(repr, rng.random(40).tolist())])
                     for i in range(300)) + end
    path = tmp_path / "vec.txt"
    with mock.patch.object(embeddings, "_CHUNK_LINES", 2):
        assert_loads_like_oracle(path, text)
    with counting_parses() as counts:
        assert load_outcome(load_text_embeddings, path) == oracle_outcome(path)
    assert counts == []
    write_raw(path, text + ("w300" + " 1" * 40 + "\n" if end else "5"))
    with counting_parses() as counts:
        assert load_outcome(load_text_embeddings, path, max_vocab=3) == \
            oracle_outcome(path, max_vocab=3)
    assert counts == []
    with counting_parses() as counts:
        assert load_outcome(load_text_embeddings, path) == oracle_outcome(path)
    assert counts != []


def with_line_changed(text, index):
    """`text` with the last byte of its line `index` (from 0), a digit, made 7."""
    lines = text.split("\n")
    assert lines[index][-1] != "7"
    lines[index] = lines[index][:-1] + "7"
    return "\n".join(lines)


@pytest.mark.parametrize("max_vocab, needed", [(3, None), (None, ["w2", "w0"])])
@pytest.mark.parametrize("line, served", [
    (0, False),                 # the header
    (1, False),                 # w0, in chunk 0
    (4, False),                 # w3, after the stop in its chunk
    (5, True),                  # w4, the first line after the stop's chunk
    (8, True)])                 # w7, in the last chunk
def test_a_prefix_load_checks_only_the_chunks_it_reads(tmp_path, max_vocab,
                                                       needed, line, served):
    """A file of 8 words saved at two lines per chunk: a load that stops at
    w2 reads chunks 0 and 1 of its four. It is served from the companion
    while the bytes through chunk 1 are unchanged, and gives the text's
    outcome either way (with `needed` a one-shot iterator, too); a whole
    load afterwards rewrites the companion."""
    path = tmp_path / "vec.txt"
    space = WordVectorSpace(tuple(f"w{i}" for i in range(8)),
                            np.add.outer(np.arange(8.0), [0.05, 0.15, 0.25]))
    with mock.patch.object(embeddings, "_CHUNK_LINES", 2):
        save_text_embeddings(space, path)
    good = companion(path).read_bytes()
    write_raw(path, with_line_changed(path.read_text(), line))
    with counting_parses() as counts:
        got = load_outcome(load_text_embeddings, path, max_vocab=max_vocab,
                           needed=None if needed is None else iter(needed))
    assert got == oracle_outcome(path, None if needed is None else set(needed),
                                 max_vocab)
    assert (counts == []) == served
    assert companion(path).read_bytes() == good
    with counting_parses() as counts:
        assert load_outcome(load_text_embeddings, path) == oracle_outcome(path)
    assert counts != [] and companion(path).read_bytes() != good
    with counting_parses() as counts:
        load_text_embeddings(path, max_vocab=max_vocab, needed=needed)
    assert counts == []


COMPANION_STEPS = ["tempfile.mkstemp", "os.fchmod", "numpy.lib.format.write_array",
                   "os.replace"]


@pytest.mark.parametrize("failing", COMPANION_STEPS)
def test_a_companion_that_cannot_be_written_changes_nothing(tmp_path, failing):
    path = tmp_path / "vec.txt"
    write_raw(path, clean_file())
    want = oracle_outcome(path)
    with mock.patch(failing, side_effect=OSError("disk full")):
        assert load_outcome(load_text_embeddings, path) == want
    assert [p.name for p in tmp_path.iterdir()
            if not p.name.endswith(".oracle")] == ["vec.txt"]
    assert load_outcome(load_text_embeddings, path) == want


def test_a_save_that_fails_leaves_no_companion(tmp_path):
    """A word the text cannot encode, in the second chunk, stops the save
    after the first chunk has gone to the companion's temporary file."""
    space = WordVectorSpace(("a", "b", "\ud800"), np.eye(3))
    with mock.patch.object(embeddings, "_CHUNK_LINES", 2), \
            pytest.raises(UnicodeEncodeError):
        save_text_embeddings(space, tmp_path / "vec.txt")
    assert [p.name for p in tmp_path.iterdir()] == ["vec.txt"]


@pytest.mark.parametrize("failing", COMPANION_STEPS)
def test_a_save_whose_companion_cannot_be_written_writes_the_text(tmp_path,
                                                                 failing):
    space = WordVectorSpace(("a", "b", "c"), np.arange(6.0).reshape(3, 2) / 7)
    oracle_save_text_embeddings(space, tmp_path / "old.txt")
    with mock.patch.object(embeddings, "_CHUNK_LINES", 2), \
            mock.patch(failing, side_effect=OSError("disk full")):
        save_text_embeddings(space, tmp_path / "new.txt")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.txt", "old.txt"]
    assert (tmp_path / "new.txt").read_bytes() == \
        (tmp_path / "old.txt").read_bytes()


def trec_run(n_queries, n_docs):
    rng = np.random.default_rng(n_queries * 1000 + n_docs)
    docs = [f"doc{i}" for i in range(n_docs)]
    rankings = {f"q{i}": tuple(docs[j] for j in rng.permutation(n_docs)[i:])
                for i in rng.permutation(n_queries)}
    return ClirRun(rankings=rankings, relevant_ranks=(), map_score=0.0,
                   scored_queries=n_queries, skipped_queries=0, empty_queries=())


@pytest.mark.parametrize("depth", (0, 1, 7, 20, 30, 31, 1000))
@pytest.mark.parametrize("tag", ("clembed", "run-b"))
def test_trec_writer_writes_the_oracles_bytes(tmp_path, depth, tag):
    """The writer's depth and tag are module constants (1000 and clembed);
    patched here, so that rankings of 30 documents are cut too."""
    run = trec_run(12, 30)
    oracle_write_trec_run(run, tmp_path / "old.trec", tag=tag, depth=depth)
    with mock.patch.object(clir, "_TREC_DEPTH", depth), \
            mock.patch.object(clir, "_TREC_TAG", tag):
        write_trec_run(run, tmp_path / "new.trec")
    assert (tmp_path / "new.trec").read_bytes() == \
        (tmp_path / "old.trec").read_bytes()
