"""Shared synthetic fixtures: rotated Gaussian clouds and a spiral cloud.

The Gaussian pair (500 words, d=20) exercises the supervised aligners; the
spiral pair exists because iterative-closest-point restarts need a cloud
whose shape constrains the rotation at every scale.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

from clembed.embeddings import WordVectorSpace
from clembed.lexicon import TranslationLexicon, make_lexicon


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
