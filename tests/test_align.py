"""`clembed.align` and its table, `ALIGNERS`.

The benchmark's align-grid workload calls each aligner directly, with its
own settings. `align` must give the same maps from those settings under
their shared names, so a name in the table that drifts from what the
benchmark passes fails here. On the same inputs every method's result must
not depend on how many threads the similarity kernels run on. `bench/` is imported read-only, as
`bench/test_bench.py` does.
"""

import os
import re
import sys
from unittest import mock

import numpy as np
import pytest

from clembed import ALIGNERS, align, cli, similarity
from conftest import RotatedPair

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402

GRID = workloads.AlignGrid("smoke")


def grid_settings(z) -> dict:
    """AlignGrid's settings for each method, by shared name."""
    return {
        "proc": {}, "cca": {}, "dlv": {},
        "proc-b": dict(iters=2, metric="csls"),
        "rcsls": dict(epochs=z["rcsls_epochs"]),
        "vecmap": dict(search_cap=z["vecmap_cap"], metric="csls",
                       max_rounds=z["vecmap_rounds"], seed=0),
        "icp": dict(search_cap=z["icp_top"], restarts=z["icp_restarts"],
                    max_iters=z["icp_iters"], seed=0),
        "gwa": dict(search_cap=z["gwa_cap"], gw_lambda=0.02,
                    iters=z["gwa_iters"], sinkhorn_max_iter=100,
                    sinkhorn_tol=0.0),
    }


@pytest.fixture(scope="module", params=[1, 2, 3], ids="seed{}".format)
def grid(request, tmp_path_factory):
    return GRID.setup(request.param, str(tmp_path_factory.mktemp("grid")))


def test_settings_cover_every_method(grid):
    assert set(grid_settings(GRID.size)) == set(ALIGNERS) == \
        set(GRID.aligners(grid))


@pytest.mark.parametrize("method", ALIGNERS)
def test_align_is_bit_equal_to_the_benchmarks_call(grid, method):
    lexicon = grid["train_lex"] if ALIGNERS[method][1] else None
    got = align(method, grid["src"], grid["tgt"], lexicon,
                **grid_settings(GRID.size)[method])
    want = GRID.aligners(grid)[method]()
    assert got.method == want.method
    np.testing.assert_array_equal(got.w_src, want.w_src)
    np.testing.assert_array_equal(got.w_tgt, want.w_tgt)


@pytest.mark.parametrize("method", ALIGNERS)
def test_align_does_not_depend_on_the_worker_count(grid, method):
    """Each method gives bit-equal maps and equal metadata on 1, 2 and 3
    threads of the sweep's tiles and the top-n screen
    (`similarity._workers`)."""
    lexicon = grid["train_lex"] if ALIGNERS[method][1] else None
    got = []
    for workers in (1, 2, 3):
        with mock.patch.object(similarity, "_workers", lambda: workers):
            got.append(align(method, grid["src"], grid["tgt"], lexicon,
                             **grid_settings(GRID.size)[method]))
    for pair in got[1:]:
        np.testing.assert_array_equal(pair.w_src, got[0].w_src)
        np.testing.assert_array_equal(pair.w_tgt, got[0].w_tgt)
        assert pair.metadata == got[0].metadata


@pytest.fixture(scope="module")
def pair():
    return RotatedPair(sigma=0.05, n=60, d=5, train=40, seed=3)


@pytest.mark.parametrize("method, with_lexicon, params, named", [
    ("proc", True, {"epochs": 3}, "method proc does not read epochs"),
    ("proc", False, {}, "method proc needs a dictionary"),
    ("vecmap", True, {"seed": 1}, "method vecmap does not read a dictionary"),
    ("nope", False, {}, "unknown method 'nope'"),
], ids=["unread-param", "proc-without-dict", "vecmap-with-dict",
        "unknown-method"])
def test_align_refuses_a_bad_call_before_any_aligner_runs(
        pair, monkeypatch, method, with_lexicon, params, named):
    def run(*args, **kwargs):
        raise AssertionError("an aligner ran")

    for name, row in list(ALIGNERS.items()):
        monkeypatch.setitem(ALIGNERS, name, (run, *row[1:]))
    lexicon = pair.train_lex if with_lexicon else None
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        align(method, pair.src, pair.tgt, lexicon, **params)


def readme_rows() -> dict[str, str]:
    """method -> its row in README's two method tables."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return {m.group(1): m.group(0)
                for m in re.finditer(r"^\| `([a-z-]+)` \|.*$", fh.read(),
                                     re.MULTILINE)}


def test_readme_names_each_methods_flags_and_what_they_become():
    """Each method's row names exactly the `align` flags its row in
    `ALIGNERS` reads, each as "`--flag` → `parameter`"."""
    dests = vars(cli.build_parser().parse_args(
        ["align", "--method", "proc", "--outdir", "out"]))
    rows = readme_rows()
    assert set(rows) == set(ALIGNERS)
    for method, (_, _, params) in ALIGNERS.items():
        named = re.findall(r"`--([a-z-]+)` → `(\w+)`", rows[method])
        assert len(named) == len(re.findall(r"`--[a-z-]+`", rows[method]))
        assert dict(named) == {shared.replace("_", "-"): own
                               for shared, own in params.items()
                               if shared in dests}, method
