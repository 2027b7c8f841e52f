import json

import numpy as np
import pytest

from clembed import cli
from clembed.cli import load_config, main
from clembed.embeddings import WordVectorSpace, load_text_embeddings, \
    save_text_embeddings
from clembed.lexicon import make_lexicon, save_lexicon
from clembed.projection import identity_pair, load_projection
from conftest import RotatedPair


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Embedding files plus a train/test dictionary for a small noisy pair."""
    root = tmp_path_factory.mktemp("cli")
    pair = RotatedPair(sigma=0.05, n=200, d=10, train=150, seed=21)
    save_text_embeddings(pair.src, root / "src.vec")
    save_text_embeddings(pair.tgt, root / "tgt.vec")
    full = make_lexicon(list(pair.train_lex.pairs) + list(pair.test_lex.pairs))
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

    monkeypatch.setattr(cli, "align_proc_b", fake_proc_b)
    monkeypatch.setattr(cli, "self_learn", fake_self_learn)
    for method in ("proc-b", "vecmap"):
        assert run("align", "--method", method,
                   "--src-emb", workspace / "src.vec",
                   "--tgt-emb", workspace / "tgt.vec",
                   "--dict", workspace / "train.txt", "--seed", "1",
                   "--metric", "csls", "--csls-n", "7",
                   "--outdir", tmp_path / method) == 0
    assert seen == {"proc-b": 7, "vecmap": 7}


def test_failed_write_leaves_no_file(workspace, tmp_path, monkeypatch):
    proj = tmp_path / "proj"
    assert run("align", "--method", "proc", "--src-emb", workspace / "src.vec",
               "--tgt-emb", workspace / "tgt.vec",
               "--dict", workspace / "train.txt", "--outdir", proj) == 0

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


def test_preprocess_unsavable_word_leaves_no_file(workspace, tmp_path,
                                                  monkeypatch, capsys):
    # the loader splits words at spaces and line breaks, so such a word can
    # only come from elsewhere; stand in for that with a patched loader
    def load_space_with_a_space(path, max_vocab=None, lang_tag=""):
        return WordVectorSpace(("a b", "c"), np.eye(2))

    monkeypatch.setattr(cli, "load_text_embeddings", load_space_with_a_space)
    out = tmp_path / "out" / "norm.vec"
    assert run("preprocess", "--input", workspace / "src.vec",
               "--output", out) == 1
    assert "'a b'" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


ALIGN_FLAGS = ("--iters", "--search-cap", "--csls-n", "--learning-rate",
               "--epochs", "--pca-dim", "--restarts", "--gw-lambda")


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command, flag", [
    *(("align", flag) for flag in ALIGN_FLAGS),
    ("eval-bli", "--csls-n"), ("compare", "--iterations")])
def test_numeric_flags_must_be_positive(tmp_path, capsys, command, flag,
                                        value):
    required = {"align": ["--method", "proc", "--outdir", tmp_path],
                "eval-bli": ["--proj", tmp_path, "--outdir", tmp_path],
                "compare": ["--run-a", "a", "--run-b", "b"]}[command]
    with pytest.raises(SystemExit) as exc:
        run(command, *required, f"{flag}={value}")
    assert exc.value.code == 2
    assert f"argument {flag}: invalid positive" in capsys.readouterr().err


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
    code = run("align", "--method", "icp", "--src-emb", workspace / "src.vec",
               "--tgt-emb", workspace / "tgt.vec",
               "--outdir", tmp_path / "p")
    assert code == 1
    assert "--seed is mandatory" in capsys.readouterr().err


def test_unknown_method_fails_cleanly(workspace, tmp_path, capsys):
    code = run("align", "--method", "muse", "--src-emb", workspace / "src.vec",
               "--tgt-emb", workspace / "tgt.vec",
               "--outdir", tmp_path / "p")
    assert code == 1
    assert "unknown method" in capsys.readouterr().err


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


def test_load_config_flattens_sections(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[align]\nmethod = proc\n[eval]\ntest_dict = t.txt\n")
    flat = load_config(str(cfg))
    assert flat == {"align.method": "proc", "eval.test_dict": "t.txt"}


def test_missing_file_reports_error(tmp_path, capsys):
    code = run("align", "--method", "proc", "--src-emb", tmp_path / "no.vec",
               "--tgt-emb", tmp_path / "no.vec", "--dict", tmp_path / "no.txt",
               "--outdir", tmp_path / "p")
    assert code == 1
    assert "not found" in capsys.readouterr().err
