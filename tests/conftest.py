"""Shared synthetic fixtures: rotated Gaussian clouds and a spiral cloud.

The Gaussian pair (500 words, d=20) exercises the supervised aligners; the
spiral pair exists because iterative-closest-point restarts need a cloud
whose shape constrains the rotation at every scale.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from clembed import similarity
from clembed.embeddings import WordVectorSpace
from clembed.lexicon import TranslationLexicon, make_lexicon
from clembed.similarity import mutual_argmax_pairs


def cell_budget(cells):
    """Patch the library's block budget to `cells` float32 cells of the
    top-n screens in flight together (`similarity._top_neighbors`): a
    `similarity._BLOCK_BYTES` of 2 * cells, whose float64 blocks hold
    cells / 4 cells."""
    return mock.patch.object(similarity, "_BLOCK_BYTES", 2 * cells)


def oracle_row_blocks(n_rows, pool_rows, min_rows=1):
    """Row blocks of float64 products against `pool_rows` columns, by the
    formula of the cell budget: max(1, cells / 4 / pool_rows,
    min(min_rows, cells / pool_rows)) rows each, the last not clipped. The
    oracles plan their blocks with it, not with `similarity._blocks`."""
    cells = similarity._BLOCK_BYTES // 2
    pool_rows = max(1, pool_rows)
    step = max(1, cells // 4 // pool_rows, min(min_rows, cells // pool_rows))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q


def words_for(n: int) -> tuple[str, ...]:
    return tuple(f"w{i:04d}" for i in range(n))


class RotatedPair:
    """A source cloud, its rotated (optionally noisy) copy, and gold splits."""

    def __init__(self, sigma: float, seed: int = 7, n: int = 500,
                 d: int = 20, train: int = 400):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d))
        self.rotation = random_rotation(d, rng)
        y = x @ self.rotation
        if sigma > 0:
            y = y + sigma * rng.standard_normal((n, d))
        ws = words_for(n)
        self.src = WordVectorSpace(ws, x)
        self.tgt = WordVectorSpace(ws, y)
        self.train_lex = make_lexicon((w, w) for w in ws[:train])
        self.test_lex = make_lexicon((w, w) for w in ws[train:])
        self.sigma = sigma


def make_spiral_pair(seed: int = 9, n_total: int = 400, d: int = 20,
                     turns: float = 1.0, growth: float = 0.3,
                     jitter: float = 0.05):
    """Points on a planar Archimedean spiral embedded in d dims, then rotated.

    The first 300 rows feed the alignment; the last 100 are held out.
    """
    rng = np.random.default_rng(seed)
    theta = rng.permutation(np.linspace(0.5, 2 * np.pi * turns, n_total))
    radius = growth * theta
    x = np.zeros((n_total, d))
    x[:, 0] = radius * np.cos(theta)
    x[:, 1] = radius * np.sin(theta)
    x += jitter * rng.standard_normal((n_total, d))
    rot = random_rotation(d, rng)
    ws = words_for(n_total)
    src = WordVectorSpace(ws, x)
    tgt = WordVectorSpace(ws, x @ rot)
    test_lex = make_lexicon((w, w) for w in ws[300:])
    return src, tgt, test_lex


@pytest.fixture(scope="session")
def clean_pair() -> RotatedPair:
    return RotatedPair(sigma=0.0)


@pytest.fixture(scope="session")
def noisy_pair() -> RotatedPair:
    return RotatedPair(sigma=0.05)


@pytest.fixture(scope="session")
def spiral_pair():
    return make_spiral_pair()


@pytest.fixture()
def tiny_space() -> WordVectorSpace:
    rng = np.random.default_rng(3)
    return WordVectorSpace(words_for(8), rng.standard_normal((8, 4)))


def identity_lexicon(words) -> TranslationLexicon:
    return make_lexicon((w, w) for w in words)


@st.composite
def exact_row(draw, dim, diagonal=True):
    """A small-integer vector whose unit vector is exact: zero, a signed
    axis, or (in four dimensions) four entries of +-1; times 1, 2 or 3.

    Unit entries are then 0, +-1/2 or +-1, so every product and sum in a
    cosine is exact and equal scores are equal in any order of summation.
    """
    kinds = ["zero", "axis"] + (["diagonal"] if diagonal and dim == 4 else [])
    kind = draw(st.sampled_from(kinds))
    row = np.zeros(dim)
    if kind == "axis":
        row[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([-1.0, 1.0]))
    elif kind == "diagonal":
        row[:] = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=4,
                               max_size=4))
    return row * draw(st.integers(1, 3))


def exact_rows(dim, min_size, max_size, diagonal=True):
    return st.lists(exact_row(dim, diagonal), min_size=min_size,
                    max_size=max_size).map(np.array)


def oracle_rcsls_objective(w, x_s, x_t, src_pool, tgt_pool, neighbors):
    """RCSLS's relaxed local-scaling loss for frozen neighbour sets on unit
    rows, scoring every neighbour row through w: independent of the
    library, which reads the loss off its gradient."""
    nt, ns = neighbors
    proj = x_s @ w
    fit = -2.0 * np.sum(proj * x_t, axis=1)
    hub_t = np.mean(np.einsum("kd,knd->kn", proj, tgt_pool[nt]), axis=1)
    hub_s = np.mean(np.einsum("kd,knd->kn", x_t, src_pool[ns] @ w), axis=1)
    return float(np.mean(fit + hub_t + hub_s))


def capped_mutual_pairs(queries, pool, cap, metric="cosine", csls_n=10):
    """Mutual nearest neighbours among the first `cap` rows of each side, by
    the blocked sweep and argmaxes that `self_learn` and `align_icp` run."""
    return mutual_argmax_pairs(queries[:cap], pool[:cap], metric, csls_n)


def topk_mean(scores, k):
    """Mean of each row's k largest entries (k clamped to the row length),
    summed in descending order: the CSLS query term the sweep took of each
    whole block before its threads took it in stripes, through the same
    kernel, `similarity._top`."""
    return similarity._top(scores, min(k, scores.shape[1]))[1]


def swept(queries, pool, metric="cosine", csls_n=10, r_pool=None,
          blocks=None):
    """The scores of the sweep (`similarity._sweep`) of queries against
    pool, each stripe copied into one matrix by a test-local reducer, which
    must get every row once; each row block, in order, appended to `blocks`
    when given, as its tiles fill."""
    scores = np.full((len(queries), len(pool)), np.nan)
    times = np.zeros(len(queries), dtype=int)

    def copy(rows, part):
        scores[rows] = part
        times[rows] += 1

    similarity._sweep(queries, pool, metric, csls_n, r_pool, copy,
                      meanwhile=None if blocks is None else blocks.append)
    assert np.all(times == 1)
    return scores


def oracle_gold_ranks(scores, cols):
    """1-based rank of column g = cols[i] in row i of `scores`, ties going to
    the lowest index: 1 + #{j: s_j > s_g} + #{j < g: s_j == s_g}. The gold
    ranks as `evaluation.bli_evaluate` counted them on whole blocks, in the
    calling thread, before the sweep's threads took them."""
    cols = np.asarray(cols, dtype=np.intp)[:, None]
    gold = np.take_along_axis(scores, cols, axis=1)
    ahead = (scores > gold) | ((scores == gold)
                               & (np.arange(scores.shape[1]) < cols))
    return 1 + np.count_nonzero(ahead, axis=1)
