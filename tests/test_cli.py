import json
import os
import shutil
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import clembed
from clembed import ALIGNERS, cli, embeddings, projection
from clembed.cli import main
from clembed.embeddings import WordVectorSpace, load_text_embeddings, \
    save_text_embeddings
from clembed.lexicon import (build_aligned_matrices, load_lexicon,
                             make_lexicon, save_lexicon)
from clembed.projection import identity_pair, load_projection, \
    save_matrix_text
from clembed.supervised import (align_cca, align_dlv, align_proc,
                                align_proc_b, align_rcsls)
from clembed.unsupervised import (align_gwa, align_icp, self_learn,
                                  vecmap_seed)
from conftest import RotatedPair


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Embedding files plus a train/test dictionary for a small noisy pair.
    The saves leave each embedding file's companion, so loads of these
    files are served from it; a test of the text path loads a copy."""
    root = tmp_path_factory.mktemp("cli")
    pair = RotatedPair(sigma=0.05, n=200, d=10, train=150, seed=21)
    save_text_embeddings(pair.src, root / "src.vec")
    save_text_embeddings(pair.tgt, root / "tgt.vec")
    full = make_lexicon(pair.train_lex + pair.test_lex)
    save_lexicon(full, root / "dict.txt")
    save_lexicon(pair.train_lex, root / "train.txt")
    save_lexicon(pair.test_lex, root / "test.txt")
    return root


def run(*argv):
    return main([str(a) for a in argv])


def test_preprocess(workspace, tmp_path):
    out = tmp_path / "norm.vec"
    assert run("preprocess", "--input", workspace / "src.vec",
               "--output", out, "--steps", "unit-length,mean-center") == 0
    space = load_text_embeddings(out)
    assert np.allclose(space.matrix.mean(axis=0), 0.0, atol=1e-5)


def test_dict_split(workspace, tmp_path):
    outdir = tmp_path / "splits"
    assert run("dict-split", "--input", workspace / "dict.txt",
               "--train-sizes", "50,100", "--test-size", "40",
               "--outdir", outdir) == 0
    assert (outdir / "train.50.txt").exists()
    assert (outdir / "train.100.txt").exists()
    assert len((outdir / "test.txt").read_text().splitlines()) == 40


def test_align_and_eval_bli(workspace, tmp_path):
    proj = tmp_path / "proj"
    assert run("align", "--method", "proc", "--src-emb", workspace / "src.vec",
               "--tgt-emb", workspace / "tgt.vec",
               "--dict", workspace / "train.txt", "--outdir", proj) == 0
    pair = load_projection(proj)
    assert pair.method == "proc"
    record = json.loads((proj / "projection.json").read_text())
    assert "wall_time_s" in record["timing"]
    assert "timing" not in record["metadata"]

    rep = tmp_path / "bli"
    assert run("eval-bli", "--proj", proj, "--src-emb", workspace / "src.vec",
               "--tgt-emb", workspace / "tgt.vec",
               "--test-dict", workspace / "test.txt", "--outdir", rep,
               "--method-label", "proc", "--pair-label", "xx-yy") == 0
    summary = json.loads((rep / "summary.json").read_text())
    assert summary["map"] >= 0.9
    assert summary["method"] == "proc"


def test_proc_b_bootstraps_by_default(workspace, tmp_path):
    spaces = ["--src-emb", workspace / "src.vec", "--tgt-emb",
              workspace / "tgt.vec", "--dict", workspace / "train.txt"]
    assert run("align", "--method", "proc", *spaces,
               "--outdir", tmp_path / "proc") == 0
    assert run("align", "--method", "proc-b", *spaces,
               "--outdir", tmp_path / "proc-b") == 0
    record = json.loads((tmp_path / "proc-b" / "projection.json").read_text())
    assert len(record["metadata"]["dict_sizes"]) == 2
    assert (tmp_path / "proc-b" / "w_src.txt").read_text() != \
        (tmp_path / "proc" / "w_src.txt").read_text()


def test_csls_n_reaches_proc_b_and_vecmap(workspace, tmp_path, monkeypatch):
    seen = {}

    def fake_proc_b(*args, **kwargs):
        seen["proc-b"] = kwargs["csls_n"]
        return identity_pair(10)

    def fake_self_learn(src, tgt, seed_lex, cfg):
        seen["vecmap"] = cfg.csls_n
        return identity_pair(10)

    monkeypatch.setitem(ALIGNERS, "proc-b",
                        (fake_proc_b, *ALIGNERS["proc-b"][1:]))
    monkeypatch.setattr(clembed, "self_learn", fake_self_learn)
    for method in ("proc-b", "vecmap"):
        assert run("align", "--method", method, *spaces(workspace, method),
                   "--seed", "1", "--metric", "csls", "--csls-n", "7",
                   "--outdir", tmp_path / method) == 0
    assert seen == {"proc-b": 7, "vecmap": 7}


def test_failed_write_leaves_no_file(workspace, tmp_path, monkeypatch):
    proj = tmp_path / "proj"
    assert run("align", "--method", "proc", "--src-emb", workspace / "src.vec",
               "--tgt-emb", workspace / "tgt.vec",
               "--dict", workspace / "train.txt", "--outdir", proj) == 0

    written = []

    def fail_on_the_second_matrix(matrix, path):
        if written:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("half a matrix")
            raise OSError("disk full")
        written.append(path)
        save_matrix_text(matrix, path)

    with monkeypatch.context() as patch:
        patch.setattr(projection, "save_matrix_text", fail_on_the_second_matrix)
        failed = tmp_path / "failed"
        assert run("align", "--method", "proc",
                   "--src-emb", workspace / "src.vec",
                   "--tgt-emb", workspace / "tgt.vec",
                   "--dict", workspace / "train.txt", "--outdir", failed) == 1
    assert written and list(failed.iterdir()) == []

    def write_half_a_report(result, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("half a report")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_bli_report", write_half_a_report)
    rep = tmp_path / "bli"
    assert run("eval-bli", "--proj", proj, "--src-emb", workspace / "src.vec",
               "--tgt-emb", workspace / "tgt.vec",
               "--test-dict", workspace / "test.txt", "--outdir", rep) == 1
    assert list(rep.iterdir()) == []


def outputs(outdir):
    """Each output file's bytes; projection.json without its wall time."""
    files = {p.name: p.read_bytes() for p in outdir.iterdir()}
    if "projection.json" in files:
        record = json.loads(files["projection.json"])
        del record["timing"]["wall_time_s"]
        files["projection.json"] = record
    return files


@pytest.fixture(scope="module")
def broken_src(workspace):
    """src.vec with a malformed last line (line 202), after every word of
    the training and test dictionaries; also writes the proc projection
    `proj` from the clean files."""
    path = workspace / "src-broken.vec"
    path.write_text((workspace / "src.vec").read_text() + "w9999 1 2\n")
    assert run("align", "--method", "proc", *spaces(workspace),
               "--outdir", workspace / "proj") == 0
    return path


@pytest.mark.parametrize("argv", [
    ["align", "--method", "proc", "--dict", "train.txt"],
    ["align", "--method", "cca", "--dict", "train.txt"],
    ["eval-bli", "--proj", "proj", "--test-dict", "test.txt"],
    ["eval-bli", "--proj", "proj", "--test-dict", "test.txt",
     "--metric", "cosine"],
], ids=["proc", "cca", "eval-bli", "eval-bli-cosine"])
def test_load_stops_once_it_holds_every_word_used(workspace, broken_src,
                                                  tmp_path, argv):
    """proc, cca and cosine BLI read only dictionary rows, so their source
    load stops before the malformed line, with the clean file's outputs."""
    argv = [workspace / a if a in ("train.txt", "test.txt", "proj") else a
            for a in argv]
    tgt = ["--tgt-emb", workspace / "tgt.vec"]
    assert run(*argv, "--src-emb", workspace / "src.vec", *tgt,
               "--outdir", tmp_path / "clean") == 0
    assert run(*argv, "--src-emb", broken_src, *tgt,
               "--outdir", tmp_path / "broken") == 0
    assert outputs(tmp_path / "broken") == outputs(tmp_path / "clean")


@pytest.fixture(scope="module")
def collection(workspace, broken_src):
    """A CLIR collection over the workspace's words w0000-w0119: no text
    uses w0150, the word of line 152, and every text ends in the
    out-of-vocabulary "zzz", so each load reads its whole file. The argv of
    `eval-clir` with the proc projection and both clean files."""
    rng = np.random.default_rng(5)
    words = [f"w{i:04d}" for i in range(120)]

    def texts(prefix, n, length):
        return "".join(f"{prefix}{i}\t{' '.join(rng.choice(words, length))} "
                       "zzz\n" for i in range(n))

    root = workspace / "collection"
    root.mkdir()
    (root / "docs.tsv").write_text(texts("d", 30, 8))
    (root / "queries.tsv").write_text(texts("q", 6, 3))
    (root / "qrels.txt").write_text("".join(
        f"q{i} 0 d{j} 1\n" for i in range(6) for j in (i, i + 10)))
    return ["eval-clir", "--proj", workspace / "proj",
            "--query-emb", workspace / "src.vec",
            "--doc-emb", workspace / "tgt.vec", "--docs", root / "docs.tsv",
            "--queries", root / "queries.tsv", "--qrels", root / "qrels.txt"]


def with_line_of_w0150(argv, flag, line, tmp_path):
    """`argv` with the file after `flag` copied, line 152 (w0150) replaced."""
    argv = list(argv)
    at = argv.index(flag) + 1
    lines = argv[at].read_text().splitlines(keepends=True)
    assert lines[151].startswith("w0150 ")
    lines[151] = line + "\n"
    argv[at] = tmp_path / f"{flag[2:]}.vec"
    argv[at].write_text("".join(lines))
    return argv


@pytest.mark.parametrize("flag", ["--query-emb", "--doc-emb"])
def test_eval_clir_reads_only_the_collections_words(collection, tmp_path,
                                                    capsys, flag):
    """A bad value on the line of a word no text uses is not parsed, so the
    outputs are the clean file's; a wrong value count is still checked."""
    assert run(*collection, "--outdir", tmp_path / "clean") == 0
    bad_value = with_line_of_w0150(collection, flag, "w0150 " + "1 " * 9 + "x",
                                   tmp_path)
    assert run(*bad_value, "--outdir", tmp_path / "bad-value") == 0
    assert outputs(tmp_path / "bad-value") == outputs(tmp_path / "clean")
    capsys.readouterr()
    bad_count = with_line_of_w0150(collection, flag, "w0150 1 2", tmp_path)
    assert run(*bad_count, "--outdir", tmp_path / "bad-count") == 1
    assert "line 152: expected 10 values, got 2" in capsys.readouterr().err
    assert not (tmp_path / "bad-count").exists()


def companion_free(argv, tmp_path):
    """`argv` with its embedding files copied, without their companions, to
    `tmp_path`/query.vec and doc.vec."""
    argv = list(argv)
    for flag, name in (("--query-emb", "query.vec"), ("--doc-emb", "doc.vec")):
        at = argv.index(flag) + 1
        argv[at] = shutil.copy(argv[at], tmp_path / name)
    return argv


def counting_parses(monkeypatch):
    """The row count of each numpy parse of embedding values from now on."""
    parsed = []
    parse_rows = embeddings._parse_rows

    def counting_parse_rows(values):
        parsed.append(len(values))
        return parse_rows(values)

    monkeypatch.setattr(embeddings, "_parse_rows", counting_parse_rows)
    return parsed


def test_eval_clir_parses_just_the_collections_words(collection, tmp_path,
                                                     monkeypatch):
    """Each load parses the rows of its side's distinct in-vocabulary
    collection words and no other. The loads read copies of the embedding
    files, which have no companion yet; once a whole load of each has
    written one, the same command parses no row and writes the same files."""
    argv = companion_free(collection, tmp_path)
    copies = [argv[argv.index(flag) + 1] for flag in ("--query-emb", "--doc-emb")]
    vocab = set(load_text_embeddings(shutil.copy(
        copies[0], tmp_path / "vocab.vec")).words)    # the words of both files
    parsed = counting_parses(monkeypatch)
    assert run(*argv, "--outdir", tmp_path / "parsed") == 0
    used = []
    for flag in ("--queries", "--docs"):
        with open(collection[collection.index(flag) + 1]) as fh:
            used.append(len({tok for line in fh
                             for tok in line.split("\t")[1].split()} & vocab))
    assert parsed == used
    for path in copies:
        load_text_embeddings(path)
    parsed.clear()
    assert run(*argv, "--outdir", tmp_path / "served") == 0
    assert parsed == []
    assert outputs(tmp_path / "served") == outputs(tmp_path / "parsed")


def test_eval_clir_out_of_vocabulary_queries(collection, tmp_path,
                                             monkeypatch):
    """A query side with no word in its file loads as an empty space and
    writes what a whole-file load writes: every query is an empty query."""
    argv = companion_free(collection, tmp_path)
    queries = tmp_path / "queries.tsv"
    queries.write_text("".join(f"q{i}\tzzz yyy\n" for i in range(6)))
    argv[argv.index("--queries") + 1] = queries
    assert run(*argv, "--outdir", tmp_path / "filtered") == 0

    def whole_load(path, max_vocab=None, needed=None):
        return load_text_embeddings(path, max_vocab)

    monkeypatch.setattr(cli, "load_text_embeddings", whole_load)
    assert run(*argv, "--outdir", tmp_path / "whole") == 0
    assert outputs(tmp_path / "filtered") == outputs(tmp_path / "whole")
    summary = json.loads((tmp_path / "whole" / "summary.json").read_text())
    assert summary["empty_queries"] == [f"q{i}" for i in range(6)]


def test_eval_clir_checks_the_collection_before_the_embeddings(
        collection, tmp_path, capsys):
    argv = list(collection)
    malformed = tmp_path / "bad.vec"
    malformed.write_text("w0000 1 2\nw0001 1\n")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("q0 0 d0\n")
    for flag, path in (("--query-emb", malformed), ("--doc-emb", malformed),
                       ("--qrels", qrels)):
        argv[argv.index(flag) + 1] = path
    capsys.readouterr()
    assert run(*argv, "--outdir", tmp_path / "out") == 1
    assert "line 1: expected 4 qrel fields" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["align", "--method", "rcsls", "--dict", "train.txt", "--tgt-emb",
     "tgt.vec", "--epochs", "1"],
    ["eval-bli", "--proj", "proj", "--test-dict", "test.txt", "--tgt-emb",
     "tgt.vec", "--metric", "csls"],
], ids=["rcsls", "eval-bli-csls"])
def test_loads_that_use_every_row_report_a_malformed_last_line(
        workspace, broken_src, tmp_path, capsys, argv):
    argv = [workspace / a if a in ("train.txt", "test.txt", "proj", "tgt.vec")
            else a for a in argv]
    capsys.readouterr()
    assert run(*argv, "--src-emb", broken_src,
               "--outdir", tmp_path / "out") == 1
    assert "line 202: expected 10 values, got 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_preprocess_checks_the_whole_file(broken_src, tmp_path, capsys):
    assert run("preprocess", "--input", broken_src,
               "--output", tmp_path / "norm.vec") == 1
    assert "line 202: expected 10 values, got 2" in capsys.readouterr().err
    assert not (tmp_path / "norm.vec").exists()


def test_preprocess_unsavable_word_leaves_no_file(workspace, tmp_path,
                                                  monkeypatch, capsys):
    # the loader splits words at spaces and line breaks, so such a word can
    # only come from elsewhere; stand in for that with a patched loader
    def load_space_with_a_space(path, max_vocab=None):
        return WordVectorSpace(("a b", "c"), np.eye(2))

    monkeypatch.setattr(cli, "load_text_embeddings", load_space_with_a_space)
    out = tmp_path / "out" / "norm.vec"
    assert run("preprocess", "--input", workspace / "src.vec",
               "--output", out) == 1
    assert "'a b'" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


ALIGN_FLAGS = ("--iters", "--search-cap", "--csls-n", "--learning-rate",
               "--epochs", "--pca-dim", "--restarts", "--gw-lambda",
               "--keep-dims", "--max-vocab")


def test_commands_after_preprocess_parse_no_row(workspace, collection,
                                                tmp_path, monkeypatch):
    """`preprocess` leaves its output and that file's companion, and no
    staging directory. `align`, cosine and CSLS `eval-bli` and `eval-clir`
    on that output and the workspace's tgt.vec then parse no row (the CSLS
    load stops in the third of four 64-line chunks), and write the files
    they write from copies of both with no companion, each run with none."""
    monkeypatch.setattr(embeddings, "_CHUNK_LINES", 64)
    norm = tmp_path / "out" / "norm.vec"
    assert run("preprocess", "--input", workspace / "src.vec", "--output", norm,
               "--steps", "unit-length,mean-center") == 0
    assert sorted(os.listdir(norm.parent)) == ["norm.vec", "norm.vec.clembed.npz"]
    plain = tmp_path / "plain"
    plain.mkdir()
    shutil.copy(norm, plain / "src.vec")
    shutil.copy(workspace / "tgt.vec", plain / "tgt.vec")

    def commands(src, tgt, out):
        spaces = ["--src-emb", src, "--tgt-emb", tgt]
        clir = list(collection)
        for flag, value in (("--proj", out / "proj"), ("--query-emb", src),
                            ("--doc-emb", tgt)):
            clir[clir.index(flag) + 1] = value
        bli = ["eval-bli", "--proj", out / "proj", *spaces,
               "--test-dict", workspace / "test.txt"]
        return {"proj": ["align", "--method", "proc", *spaces, "--dict",
                         workspace / "train.txt", "--outdir", out / "proj"],
                "cosine": [*bli, "--outdir", out / "cosine"],
                "csls": [*bli, "--metric", "csls", "--max-vocab", "180",
                         "--outdir", out / "csls"],
                "clir": [*clir, "--outdir", out / "clir"]}

    parsed = counting_parses(monkeypatch)
    for argv in commands(plain / "src.vec", plain / "tgt.vec",
                         tmp_path / "parsed").values():
        for path in plain.glob("*.clembed.npz"):
            path.unlink()
        assert run(*argv) == 0
        assert parsed != []
        parsed.clear()
    for name, argv in commands(norm, workspace / "tgt.vec",
                               tmp_path / "served").items():
        assert run(*argv) == 0
        assert parsed == []
        assert outputs(tmp_path / "served" / name) == \
            outputs(tmp_path / "parsed" / name)


def test_eval_commands_parse_no_projection_text(workspace, collection,
                                               tmp_path, monkeypatch):
    """`align` leaves each matrix's companion beside its text. Cosine and
    CSLS `eval-bli` and `eval-clir` then read the projection with numpy's
    text parser patched to raise (the workspace's embedding loads are
    served from their companions too), and write what they write from a
    copy of the projection with no companion, which they parse."""
    proj = tmp_path / "proj"
    assert run("align", "--method", "proc", *spaces(workspace),
               "--outdir", proj) == 0
    assert sorted(os.listdir(proj)) == [
        "projection.json", "w_src.txt", "w_src.txt.clembed.npz",
        "w_tgt.txt", "w_tgt.txt.clembed.npz"]
    plain = tmp_path / "plain"
    shutil.copytree(proj, plain)
    for path in plain.glob("*.clembed.npz"):
        path.unlink()

    def commands(proj, out):
        bli = ["eval-bli", "--proj", proj, "--src-emb", workspace / "src.vec",
               "--tgt-emb", workspace / "tgt.vec",
               "--test-dict", workspace / "test.txt"]
        clir = list(collection)
        clir[clir.index("--proj") + 1] = proj
        return {"cosine": [*bli, "--outdir", out / "cosine"],
                "csls": [*bli, "--metric", "csls", "--outdir", out / "csls"],
                "clir": [*clir, "--outdir", out / "clir"]}

    for argv in commands(plain, tmp_path / "parsed").values():
        assert run(*argv) == 0
    monkeypatch.setattr(np, "loadtxt", mock.Mock(
        side_effect=AssertionError("a text was parsed")))
    for name, argv in commands(proj, tmp_path / "served").items():
        assert run(*argv) == 0
        assert outputs(tmp_path / "served" / name) == \
            outputs(tmp_path / "parsed" / name)


def test_preprocess_writes_its_output_when_its_companion_cannot_be(
        workspace, tmp_path, monkeypatch):
    norm = tmp_path / "out" / "norm.vec"
    monkeypatch.setattr(np.lib.format, "write_array",
                        mock.Mock(side_effect=OSError("disk full")))
    assert run("preprocess", "--input", workspace / "src.vec", "--output", norm,
               "--steps", "unit-length") == 0
    assert os.listdir(norm.parent) == ["norm.vec"]
    monkeypatch.undo()
    assert np.allclose(np.linalg.norm(load_text_embeddings(norm).matrix, axis=1),
                       1.0, atol=1e-5)


@pytest.mark.parametrize("value", ["0", "-1", "abc"])
@pytest.mark.parametrize("command, flag", [
    *(("align", flag) for flag in ALIGN_FLAGS),
    ("eval-bli", "--csls-n"), ("compare", "--iterations"),
    ("compare", "--m-comparisons"), ("dict-split", "--test-size")])
def test_numeric_flags_must_be_positive(tmp_path, capsys, command, flag,
                                        value):
    required = {"align": ["--method", "proc", "--outdir", tmp_path],
                "eval-bli": ["--proj", tmp_path, "--outdir", tmp_path],
                "compare": ["--run-a", "a", "--run-b", "b"],
                "dict-split": ["--input", "d", "--train-sizes", "1",
                               "--outdir", tmp_path]}[command]
    with pytest.raises(SystemExit) as exc:
        run(command, *required, f"{flag}={value}")
    assert exc.value.code == 2
    assert f"argument {flag}: invalid positive" in capsys.readouterr().err


def test_keep_dims_takes_all_or_a_positive_int():
    parser = cli.build_parser()
    for text, value in (("all", "all"), ("3", 3)):
        args = parser.parse_args(["align", "--method", "cca", "--outdir", "o",
                                  "--keep-dims", text])
        assert args.keep_dims == value


def test_compare_identical_runs(workspace, tmp_path, capsys):
    proj = tmp_path / "proj"
    run("align", "--method", "proc", "--src-emb", workspace / "src.vec",
        "--tgt-emb", workspace / "tgt.vec", "--dict", workspace / "train.txt",
        "--outdir", proj)
    rep = tmp_path / "bli"
    run("eval-bli", "--proj", proj, "--src-emb", workspace / "src.vec",
        "--tgt-emb", workspace / "tgt.vec",
        "--test-dict", workspace / "test.txt", "--outdir", rep)
    capsys.readouterr()
    assert run("compare", "--run-a", rep / "report.tsv",
               "--run-b", rep / "report.tsv", "--m-comparisons", "5") == 0
    out = capsys.readouterr().out
    assert "p=1" in out
    assert "corrected_alpha=0.01" in out
    assert "not significant" in out


def test_seed_mandatory_for_stochastic_methods(workspace, tmp_path, capsys):
    """vecmap, and icp unless its one restart is the signed start, which
    draws nothing, refuse to run without --seed."""
    spaces = ("--src-emb", workspace / "src.vec",
              "--tgt-emb", workspace / "tgt.vec")
    for method, flags in (("icp", ()), ("icp", ("--restarts", "2")),
                          ("vecmap", ())):
        code = run("align", "--method", method, *spaces, *flags,
                   "--outdir", tmp_path / "p")
        assert code == 1
        assert "--seed is mandatory" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()
    assert run("align", "--method", "icp", *spaces, "--restarts", "1",
               "--pca-dim", "4", "--search-cap", "200",
               "--outdir", tmp_path / "p") == 0
    record = json.loads((tmp_path / "p" / "projection.json").read_text())
    assert record["metadata"]["seed"] == 0


def test_unknown_method_fails_cleanly(workspace, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("align", "--method", "muse", "--src-emb", workspace / "src.vec",
            "--tgt-emb", workspace / "tgt.vec", "--outdir", tmp_path / "p")
    assert exc.value.code == 2
    assert "argument --method: invalid choice: 'muse'" in \
        capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_align_vecmap_with_seed(workspace, tmp_path):
    proj = tmp_path / "proj"
    assert run("align", "--method", "vecmap",
               "--src-emb", workspace / "src.vec",
               "--tgt-emb", workspace / "tgt.vec", "--seed", "3",
               "--search-cap", "200", "--outdir", proj) == 0
    record = json.loads((proj / "projection.json").read_text())
    assert record["metadata"]["seed"] == 3


def test_eval_clir(workspace, tmp_path):
    # Word-overlap toy corpus on shared axis-aligned embeddings.
    emb = tmp_path / "toy.vec"
    space = WordVectorSpace(("apple", "banana", "cherry"), np.eye(3))
    save_text_embeddings(space, emb)
    (tmp_path / "docs.tsv").write_text(
        "d1\tapple apple banana\nd2\tbanana cherry\nd3\tcherry cherry\n")
    (tmp_path / "queries.tsv").write_text("q1\tapple\nq2\tcherry\n")
    (tmp_path / "qrels.txt").write_text("q1 0 d1 1\nq2 0 d3 1\n")
    proj = tmp_path / "id"
    proj.mkdir()
    from clembed.projection import identity_pair, save_projection
    save_projection(identity_pair(3), proj)
    outdir = tmp_path / "clir"
    assert run("eval-clir", "--proj", proj, "--query-emb", emb,
               "--doc-emb", emb, "--docs", tmp_path / "docs.tsv",
               "--queries", tmp_path / "queries.tsv",
               "--qrels", tmp_path / "qrels.txt", "--outdir", outdir) == 0
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["map"] == 1.0
    assert (outdir / "run.trec").exists()


@pytest.mark.parametrize("side", ["docs", "queries"])
def test_eval_clir_refuses_an_id_with_whitespace(collection, tmp_path, capsys,
                                                side):
    """An id that would shift run.trec's columns, on a line appended to a
    file the command otherwise accepts, is exit 1 naming its line."""
    argv = list(collection)
    at = argv.index(f"--{side}") + 1
    text = argv[at].read_text() + f"{side[0]} x\tw0001 w0002\n"
    argv[at] = tmp_path / f"{side}.tsv"
    argv[at].write_text(text)
    assert run(*argv, "--outdir", tmp_path / "out") == 1
    assert capsys.readouterr().err == (
        f"error: {argv[at]}: line {len(text.splitlines())}: id '{side[0]} x' is "
        "empty or holds whitespace\n")
    assert not (tmp_path / "out").exists()


def test_table(workspace, tmp_path, capsys):
    rows = [
        {"method": "proc", "pair": "en-de", "map": 0.5, "successful": True},
        {"method": "proc", "pair": "en-fi", "map": 0.3, "successful": True},
        {"method": "gwa", "pair": "en-de", "map": 0.4, "successful": True},
        {"method": "gwa", "pair": "en-fi", "map": 0.02, "successful": False},
    ]
    paths = []
    for i, row in enumerate(rows):
        p = tmp_path / f"s{i}.json"
        p.write_text(json.dumps(row))
        paths.append(p)
    assert run("table", *paths) == 0
    out = capsys.readouterr().out
    assert "All LPs" in out and "Filt. LPs" in out and "Succ. LPs" in out
    # Only en-de has every method successful, so the filtered column for
    # proc is its en-de score.
    proc_line = next(l for l in out.splitlines() if l.startswith("proc"))
    assert "0.400" in proc_line  # all-pairs mean (0.5 + 0.3) / 2
    assert "0.500" in proc_line  # filtered mean over en-de only
    gwa_line = next(l for l in out.splitlines() if l.startswith("gwa"))
    assert "1/2" in gwa_line


def test_config_file_supplies_paths(workspace, tmp_path):
    cfg = tmp_path / "conf.ini"
    cfg.write_text(
        f"[align]\nsrc_emb = {workspace / 'src.vec'}\n"
        f"tgt_emb = {workspace / 'tgt.vec'}\ndict = {workspace / 'train.txt'}\n")
    proj = tmp_path / "proj"
    assert run("align", "--method", "proc", "--config", cfg,
               "--outdir", proj) == 0
    assert (proj / "w_src.txt").exists()


def spaces(workspace, method="proc"):
    """The embedding flags, and the training dictionary if `method` reads
    one."""
    flags = ["--src-emb", workspace / "src.vec", "--tgt-emb",
             workspace / "tgt.vec"]
    if ALIGNERS[method][1]:
        flags += ["--dict", workspace / "train.txt"]
    return flags


def test_config_values_reach_the_aligner(workspace, tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[align]\ncsls_n = 3\nepochs = 2\n")
    proj = tmp_path / "proj"
    assert run("align", "--method", "rcsls", *spaces(workspace),
               "--config", cfg, "--outdir", proj) == 0
    metadata = json.loads((proj / "projection.json").read_text())["metadata"]
    assert (metadata["neighborhood"], metadata["epochs"]) == (3, 2)


def test_explicit_flags_beat_config(workspace, tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[DEFAULT]\nepochs = 4\n[align]\ncsls_n = 3\nepochs = 2\n")
    proj = tmp_path / "proj"
    assert run("align", "--method", "rcsls", *spaces(workspace),
               "--config", cfg, "--csls-n", "5", "--epochs", "1",
               "--outdir", proj) == 0
    metadata = json.loads((proj / "projection.json").read_text())["metadata"]
    assert (metadata["neighborhood"], metadata["epochs"]) == (5, 1)


def test_config_value_is_checked_like_a_flag(workspace, tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[align]\nsearch_cap = 0\n")
    with pytest.raises(SystemExit) as exc:
        run("align", "--method", "proc-b", *spaces(workspace),
            "--config", cfg, "--outdir", tmp_path / "proj")
    assert exc.value.code == 2
    assert "argument --search-cap: invalid positive int value: '0'" in \
        capsys.readouterr().err
    assert not (tmp_path / "proj").exists()


def test_config_metric_reaches_bli_evaluate(workspace, tmp_path,
                                            monkeypatch):
    proj = tmp_path / "proj"
    assert run("align", "--method", "proc", *spaces(workspace),
               "--outdir", proj) == 0
    seen = {}
    real = cli.bli_evaluate

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "bli_evaluate", spy)
    cfg = tmp_path / "c.ini"
    cfg.write_text("[eval-bli]\nmetric = csls\n")
    assert run("eval-bli", "--proj", proj, "--src-emb", workspace / "src.vec",
               "--tgt-emb", workspace / "tgt.vec", "--config", cfg,
               "--test-dict", workspace / "test.txt",
               "--outdir", tmp_path / "bli") == 0
    assert seen == {"metric": "csls"}


def test_default_section_fills_every_subcommand(workspace, tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[DEFAULT]\nsrc_emb = {workspace / 'src.vec'}\n"
                   f"tgt_emb = {workspace / 'tgt.vec'}\n"
                   f"[align]\ndict = {workspace / 'train.txt'}\n"
                   f"[eval-bli]\ntest_dict = {workspace / 'test.txt'}\n")
    proj, rep = tmp_path / "proj", tmp_path / "bli"
    assert run("align", "--method", "proc", "--config", cfg,
               "--outdir", proj) == 0
    assert run("eval-bli", "--proj", proj, "--config", cfg,
               "--outdir", rep) == 0
    assert json.loads((rep / "summary.json").read_text())["map"] >= 0.9


@pytest.mark.parametrize("text", [
    "[eval]\ntest_dict = t.txt\n", "[clir]\ndocs = d.tsv\n",
    "[align]\nsearch-cap = 5\n", "[align]\ntest_dict = t.txt\n",
    "[align]\noutdir = out\n", "[DEFAULT]\nbogus = 1\n",
    "[align]\nmetric = CSLS\n",
], ids=["eval-section", "clir-section", "flag-not-dest", "other-command-flag",
        "required-flag", "default-bogus", "not-a-choice"])
def test_config_unknown_key_or_section_is_a_usage_error(tmp_path, text):
    cfg = tmp_path / "c.ini"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        run("align", "--method", "proc", "--config", cfg,
            "--outdir", tmp_path / "proj")
    assert exc.value.code == 2
    assert not (tmp_path / "proj").exists()


@pytest.mark.parametrize("method", ALIGNERS)
def test_align_defaults_are_the_library_defaults(workspace, tmp_path, method):
    src = load_text_embeddings(workspace / "src.vec")
    tgt = load_text_embeddings(workspace / "tgt.vec")
    lex = load_lexicon(workspace / "train.txt")
    aligned = build_aligned_matrices(lex, src, tgt)
    pair = {
        "proc": lambda: align_proc(aligned),
        "proc-b": lambda: align_proc_b(src, tgt, lex),
        "cca": lambda: align_cca(aligned),
        "dlv": lambda: align_dlv(src, tgt, lex),
        "rcsls": lambda: align_rcsls(aligned, src.matrix, tgt.matrix),
        "vecmap": lambda: self_learn(src, tgt, vecmap_seed(src, tgt)),
        "icp": lambda: align_icp(src, tgt),
        "gwa": lambda: align_gwa(src, tgt),
    }[method]()
    proj = tmp_path / "proj"
    assert run("align", "--method", method, *spaces(workspace, method),
               "--seed", "0", "--outdir", proj) == 0
    for name, w in (("w_src.txt", pair.w_src), ("w_tgt.txt", pair.w_tgt)):
        save_matrix_text(w, tmp_path / name)
        assert (proj / name).read_bytes() == (tmp_path / name).read_bytes()


def test_missing_file_reports_error(tmp_path, capsys):
    code = run("align", "--method", "proc", "--src-emb", tmp_path / "no.vec",
               "--tgt-emb", tmp_path / "no.vec", "--dict", tmp_path / "no.txt",
               "--outdir", tmp_path / "p")
    assert code == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("method, flags, named", [
    ("proc", ["--epochs", "5", "--gw-lambda", "3"], "--epochs, --gw-lambda"),
    ("proc", ["--metric", "csls"], "--metric"),
    ("cca", ["--iters", "2", "--keep-dims", "3"], "--iters"),
    ("rcsls", ["--search-cap", "50"], "--search-cap"),
    ("gwa", ["--csls-n", "5", "--seed", "1"], "--csls-n"),
])
def test_align_refuses_a_tuning_flag_its_method_does_not_read(
        workspace, tmp_path, capsys, method, flags, named):
    with pytest.raises(SystemExit) as exc:
        run("align", "--method", method, *spaces(workspace, method), *flags,
            "--outdir", tmp_path / "proj")
    assert exc.value.code == 2
    assert f"method {method} does not read {named}\n" in \
        capsys.readouterr().err
    assert not (tmp_path / "proj").exists()


def test_config_tuning_values_a_method_does_not_read_stay_silent(
        workspace, tmp_path):
    """A [align] section shared by a grid of methods may set any of them."""
    cfg = tmp_path / "c.ini"
    cfg.write_text("[align]\nepochs = 5\ngw_lambda = 3\nmetric = csls\n")
    assert run("align", "--method", "proc", *spaces(workspace), "--seed", "4",
               "--config", cfg, "--outdir", tmp_path / "config") == 0
    assert run("align", "--method", "proc", *spaces(workspace),
               "--outdir", tmp_path / "plain") == 0
    for name in ("w_src.txt", "w_tgt.txt"):
        assert (tmp_path / "config" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize("method", ["vecmap", "icp", "gwa"])
def test_align_refuses_a_dictionary_its_method_does_not_read(
        workspace, tmp_path, capsys, method):
    """Not even the path is checked, so a missing file is refused alike."""
    for path in (workspace / "train.txt", tmp_path / "missing.txt"):
        with pytest.raises(SystemExit) as exc:
            run("align", "--method", method, *spaces(workspace, method),
                "--seed", "1", "--dict", path, "--outdir", tmp_path / "proj")
        assert exc.value.code == 2
        assert f"method {method} does not read --dict\n" in \
            capsys.readouterr().err
    assert not (tmp_path / "proj").exists()


def test_config_dictionary_an_unsupervised_method_does_not_read_stays_silent(
        workspace, tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[align]\ndict = {workspace / 'train.txt'}\n")
    assert run("align", "--method", "gwa", *spaces(workspace, "gwa"),
               "--config", cfg, "--outdir", tmp_path / "config") == 0
    assert run("align", "--method", "gwa", *spaces(workspace, "gwa"),
               "--outdir", tmp_path / "plain") == 0
    for name in ("w_src.txt", "w_tgt.txt"):
        assert (tmp_path / "config" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes()


@pytest.fixture(scope="module")
def proc_projection(workspace):
    proj = workspace / "proc-proj"
    assert run("align", "--method", "proc", *spaces(workspace),
               "--outdir", proj) == 0
    return proj


def eval_bli(workspace, proj, outdir, *flags):
    return run("eval-bli", "--proj", proj, "--src-emb", workspace / "src.vec",
               "--tgt-emb", workspace / "tgt.vec",
               "--test-dict", workspace / "test.txt", *flags,
               "--outdir", outdir)


@pytest.mark.parametrize("flags", [[], ["--metric", "cosine"]])
def test_eval_bli_refuses_csls_n_under_cosine(workspace, proc_projection,
                                              tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        eval_bli(workspace, proc_projection, tmp_path / "bli", *flags,
                 "--csls-n", "3")
    assert exc.value.code == 2
    assert "eval-bli reads --csls-n only under --metric csls\n" in \
        capsys.readouterr().err
    assert not (tmp_path / "bli").exists()


def test_eval_bli_csls_n_runs_under_a_config_csls_metric(
        workspace, proc_projection, tmp_path, monkeypatch):
    """The metric is read from the final parse, so a config may set it."""
    seen = []
    real = cli.bli_evaluate

    def spy(*args, **kwargs):
        seen.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "bli_evaluate", spy)
    cfg = tmp_path / "c.ini"
    cfg.write_text("[eval-bli]\nmetric = csls\n")
    assert eval_bli(workspace, proc_projection, tmp_path / "config",
                    "--config", cfg, "--csls-n", "5") == 0
    assert eval_bli(workspace, proc_projection, tmp_path / "flag",
                    "--metric", "csls", "--csls-n", "5") == 0
    assert seen == [{"metric": "csls", "csls_n": 5}] * 2
    assert (tmp_path / "config" / "report.tsv").read_bytes() == \
        (tmp_path / "flag" / "report.tsv").read_bytes()


def test_config_csls_n_under_cosine_stays_silent(workspace, proc_projection,
                                                 tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[eval-bli]\ncsls_n = 3\n")
    assert eval_bli(workspace, proc_projection, tmp_path / "config",
                    "--config", cfg) == 0
    assert eval_bli(workspace, proc_projection, tmp_path / "plain") == 0
    assert (tmp_path / "config" / "report.tsv").read_bytes() == \
        (tmp_path / "plain" / "report.tsv").read_bytes()


def test_eval_bli_default_labels(workspace, proc_projection, tmp_path):
    """Without labels, summary.json names the projection's method and the
    pair "source-target"; given labels replace both."""
    assert eval_bli(workspace, proc_projection, tmp_path / "plain") == 0
    assert eval_bli(workspace, proc_projection, tmp_path / "labelled",
                    "--method-label", "m", "--pair-label", "en-de") == 0
    labels = [(s["method"], s["pair"]) for s in
              (json.loads((tmp_path / d / "summary.json").read_text())
               for d in ("plain", "labelled"))]
    assert labels == [("proc", "source-target"), ("m", "en-de")]


@pytest.fixture(scope="module")
def bli_report(workspace, proc_projection):
    outdir = workspace / "proc-bli"
    assert eval_bli(workspace, proc_projection, outdir) == 0
    return outdir / "report.tsv"


def compare(report, *flags):
    return run("compare", "--run-a", report, "--run-b", report, *flags)


@pytest.mark.parametrize("flags, named", [
    (["--iterations", "500", "--seed", "3"], "--iterations, --seed"),
    (["--test", "ttest", "--seed", "3"], "--seed"),
])
def test_compare_refuses_shuffle_flags_under_ttest(bli_report, capsys, flags,
                                                   named):
    with pytest.raises(SystemExit) as exc:
        compare(bli_report, *flags)
    assert exc.value.code == 2
    assert f"compare reads {named} only under --test shuffle\n" in \
        capsys.readouterr().err


def test_compare_shuffle_flags_run_under_a_config_shuffle_test(
        bli_report, tmp_path, capsys):
    """The test is read from the final parse, so a config may set it."""
    cfg = tmp_path / "c.ini"
    cfg.write_text("[compare]\ntest = shuffle\n")
    capsys.readouterr()
    assert compare(bli_report, "--config", cfg, "--iterations", "200",
                   "--seed", "3") == 0
    config_out = capsys.readouterr().out
    assert compare(bli_report, "--test", "shuffle", "--iterations", "200",
                   "--seed", "3") == 0
    assert config_out == capsys.readouterr().out
    assert config_out.startswith("test=shuffle ")


def test_config_shuffle_values_under_ttest_stay_silent(bli_report, tmp_path,
                                                        capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[compare]\niterations = 200\nseed = 3\n")
    capsys.readouterr()
    assert compare(bli_report, "--config", cfg) == 0
    config_out = capsys.readouterr().out
    assert compare(bli_report) == 0
    assert config_out == capsys.readouterr().out
    assert config_out.startswith("test=ttest ")


TABLE_ROW = {"method": "proc", "pair": "en-de", "map": 0.5,
             "successful": True}


@pytest.mark.parametrize("summary, named", [
    *(({k: v for k, v in TABLE_ROW.items() if k != key}, repr(key))
      for key in TABLE_ROW),
    ({"map": 1.0, "scored_queries": 2, "skipped_queries": 0,
      "empty_queries": []}, "'method', 'pair', 'successful'"),
], ids=[*TABLE_ROW, "eval-clir"])
def test_table_names_the_summary_and_the_key_it_lacks(tmp_path, capsys,
                                                      summary, named):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(TABLE_ROW))
    bad.write_text(json.dumps(summary))
    assert run("table", good, bad) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}: no key {named}\n"
    assert captured.out == ""


def fails_naming(capsys, message, *argv):
    """`argv` exits 1 with the one stderr line `error: <message>`."""
    capsys.readouterr()
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def with_line(src, dst, lineno, text):
    """`dst`, a copy of the file `src` whose line `lineno` is `text`."""
    lines = src.read_text().splitlines(keepends=True)
    lines[lineno - 1] = text + "\n"
    dst.write_text("".join(lines))
    return dst


def test_a_malformed_embedding_file_is_named(workspace, tmp_path, capsys):
    line = (workspace / "tgt.vec").read_text().splitlines()[2]
    bad = with_line(workspace / "tgt.vec", tmp_path / "tgt.vec", 3,
                    line.rsplit(" ", 1)[0] + " x")
    fails_naming(capsys, f"{bad}: line 3: unparseable float",
                 "align", "--method", "proc", "--src-emb", workspace / "src.vec",
                 "--tgt-emb", bad, "--dict", workspace / "train.txt",
                 "--outdir", tmp_path / "out")


def test_a_malformed_dictionary_is_named(workspace, tmp_path, capsys):
    bad = with_line(workspace / "train.txt", tmp_path / "train.txt", 2, "w0001")
    fails_naming(capsys, f"{bad}: line 2: expected 2 fields, got 1",
                 "align", "--method", "proc", *spaces(workspace)[:4],
                 "--dict", bad, "--outdir", tmp_path / "out")


@pytest.mark.parametrize("name, line, message", [
    ("projection.json", '{"method": "proc", "metadata": {}}',
     "no key 'orthogonal_src'"),
    ("projection.json", "not json", "line 1: Expecting value"),
    ("projection.json", "[]", "no key 'orthogonal_src', 'method'"),
    ("w_src.txt", "1 x", "line 2: unparseable float"),
    ("w_tgt.txt", "1 2", "line 2: expected 10 values, got 2"),
])
def test_a_malformed_projection_file_is_named(workspace, proc_projection,
                                              tmp_path, capsys, name, line,
                                              message):
    """A projection.json of `line`, or a matrix whose line 2 is `line`."""
    proj = shutil.copytree(proc_projection, tmp_path / "proj")
    if name.endswith(".json"):
        (proj / name).write_text(line + "\n")
    else:
        with_line(proc_projection / name, proj / name, 2, line)
    fails_naming(capsys, f"{proj / name}: {message}",
                 "eval-bli", "--proj", proj, *spaces(workspace)[:4],
                 "--test-dict", workspace / "test.txt", "--outdir",
                 tmp_path / "out")


def test_a_projection_that_fails_its_checks_names_its_directory(
        workspace, proc_projection, tmp_path, capsys):
    proj = shutil.copytree(proc_projection, tmp_path / "proj")
    rows = (proj / "w_src.txt").read_text().splitlines(True)
    (proj / "w_src.txt").write_text("".join(rows[:-1]))
    fails_naming(capsys, f"{proj}: w_src must be square",
                 "eval-bli", "--proj", proj, *spaces(workspace)[:4],
                 "--test-dict", workspace / "test.txt", "--outdir",
                 tmp_path / "out")


@pytest.mark.parametrize("field, message", [
    (2, "invalid literal for int() with base 10: 'x'"),
    (3, "could not convert string to float: 'x'"),
])
def test_a_malformed_bli_report_is_named(bli_report, tmp_path, capsys, field,
                                         message):
    fields = bli_report.read_text().splitlines()[1].split("\t")
    fields[field] = "x"
    bad = with_line(bli_report, tmp_path / "report.tsv", 2, "\t".join(fields))
    fails_naming(capsys, f"{bad}: line 2: {message}",
                 "compare", "--run-a", bli_report, "--run-b", bad)


def test_a_qrel_with_an_unknown_id_is_named(collection, tmp_path, capsys):
    argv = list(collection)
    at = argv.index("--qrels") + 1
    argv[at] = tmp_path / "qrels.txt"
    argv[at].write_text("q0 0 ghost 1\n")
    fails_naming(capsys,
                 f"{argv[at]}: line 1: qrel references unknown doc id 'ghost'",
                 *argv, "--outdir", tmp_path / "out")


def stderr_under_hash_seed(seed, script, *args):
    """The stderr of `python -c script *args` under PYTHONHASHSEED=seed."""
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 1
    return proc.stderr


def test_unknown_qrel_ids_are_named_in_file_order(collection, tmp_path):
    """The first unknown id of the file, under any hash seed: in frozenset
    order, which of the four is named depends on PYTHONHASHSEED."""
    argv = list(collection)
    at = argv.index("--qrels") + 1
    argv[at] = tmp_path / "qrels.txt"
    argv[at].write_text("q0 0 d0 1\nq0 0 dy 0\nq0 0 dy 1\nq0 0 dx 1\n"
                        "q1 0 dw 1\nq1 0 dz 1\n")
    script = ("import sys; from clembed.cli import main; "
              "sys.exit(main(sys.argv[1:]))")
    for seed in ("1", "2"):
        assert stderr_under_hash_seed(
            seed, script, *argv, "--outdir", tmp_path / "out") == (
            f"error: {argv[at]}: line 3: qrel references unknown doc id 'dy'\n")


def test_a_collection_names_its_least_unknown_qrel(tmp_path):
    """A collection built in code, which has no file order, names the least
    unknown (query id, doc id) pair under any hash seed."""
    script = ("import sys; from clembed.clir import DocumentCollection\n"
              "try:\n"
              "    DocumentCollection(docs={'d0': ()}, queries={'q0': ()},\n"
              "        qrels=frozenset(('q0', d) for d in 'dy dx dw dz'.split()))\n"
              "except ValueError as exc:\n"
              "    sys.exit(str(exc))")
    for seed in ("1", "2"):
        assert stderr_under_hash_seed(seed, script) == \
            "qrel references unknown doc id 'dw'\n"


def latin1(path, lineno, text):
    """The file `path` with its line `lineno` replaced by `text` in Latin-1,
    whose "\xe9" is not UTF-8; every other line stays UTF-8."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[lineno - 1] = text.encode("latin-1") + b"\n"
    path.write_bytes(b"".join(lines))
    return path


def copy_of(src, dst):
    shutil.copyfile(src, dst)
    return dst


@pytest.fixture()
def eval_clir_argv(collection, tmp_path):
    """`eval-clir` on copies of the collection's files, by flag."""
    argv = list(collection)
    for flag in ("--docs", "--queries", "--qrels"):
        at = argv.index(flag) + 1
        argv[at] = copy_of(argv[at], tmp_path / argv[at].name)
    return argv + ["--outdir", tmp_path / "out"]


def test_a_non_utf8_embedding_file_is_named(workspace, tmp_path, capsys):
    bad = latin1(copy_of(workspace / "tgt.vec", tmp_path / "tgt.vec"), 5,
                 "caf\xe9 " + " ".join(["0.5"] * 10))
    fails_naming(capsys, f"{bad}: line 5: byte 0xe9 is not UTF-8",
                 "align", "--method", "proc", "--src-emb", workspace / "src.vec",
                 "--tgt-emb", bad, "--dict", workspace / "train.txt",
                 "--outdir", tmp_path / "out")


def test_a_non_utf8_dictionary_is_named(workspace, tmp_path, capsys):
    bad = latin1(copy_of(workspace / "train.txt", tmp_path / "train.txt"), 2,
                 "caf\xe9\tcafe")
    fails_naming(capsys, f"{bad}: line 2: byte 0xe9 is not UTF-8",
                 "align", "--method", "proc", *spaces(workspace)[:4],
                 "--dict", bad, "--outdir", tmp_path / "out")


@pytest.mark.parametrize("flag, line", [
    ("--docs", "d1\tcaf\xe9 w0001"),
    ("--queries", "q1\tcaf\xe9 w0001"),
    ("--qrels", "q1 0 d\xe9 1"),
])
def test_a_non_utf8_collection_file_is_named(eval_clir_argv, capsys, flag,
                                             line):
    bad = latin1(eval_clir_argv[eval_clir_argv.index(flag) + 1], 2, line)
    fails_naming(capsys, f"{bad}: line 2: byte 0xe9 is not UTF-8",
                 *eval_clir_argv)


@pytest.mark.parametrize("name, lineno, line", [
    ("w_src.txt", 2, "1 \xe9"),
    ("projection.json", 1, '{"method": "caf\xe9"}'),
])
def test_a_non_utf8_projection_file_is_named(workspace, proc_projection,
                                             tmp_path, capsys, name, lineno,
                                             line):
    proj = shutil.copytree(proc_projection, tmp_path / "proj")
    latin1(proj / name, lineno, line)
    fails_naming(capsys, f"{proj / name}: line {lineno}: byte 0xe9 is not UTF-8",
                 "eval-bli", "--proj", proj, *spaces(workspace)[:4],
                 "--test-dict", workspace / "test.txt", "--outdir",
                 tmp_path / "out")


def test_a_non_utf8_bli_report_is_named(bli_report, tmp_path, capsys):
    bad = latin1(copy_of(bli_report, tmp_path / "report.tsv"), 3,
                 "caf\xe9\tcafe\t1\t1.0")
    fails_naming(capsys, f"{bad}: line 3: byte 0xe9 is not UTF-8",
                 "compare", "--run-a", bli_report, "--run-b", bad)


def test_a_non_utf8_summary_is_named(tmp_path, capsys):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(TABLE_ROW))
    bad.write_bytes(json.dumps({**TABLE_ROW, "method": "caf\xe9"},
                               ensure_ascii=False).encode("latin-1"))
    fails_naming(capsys, f"{bad}: line 1: byte 0xe9 is not UTF-8",
                 "table", good, bad)


def test_a_non_utf8_config_is_named(workspace, tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_bytes(b"[eval-bli]\npair_label = caf\xe9\n")
    fails_naming(capsys, f"{config}: line 2: byte 0xe9 is not UTF-8",
                 "align", "--config", config, "--method", "proc",
                 *spaces(workspace), "--outdir", tmp_path / "out")


def test_a_summary_that_is_not_json_is_named(tmp_path, capsys):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(TABLE_ROW))
    bad.write_text(json.dumps(TABLE_ROW)[:-1])
    fails_naming(capsys, f"{bad}: line 1: Expecting ',' delimiter",
                 "table", good, bad)
