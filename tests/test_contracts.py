"""Contracts that every aligner keeps, each method run through `clembed.align`.

Rotation. Rotating the source space by an orthogonal R, the target space by
an orthogonal T, or both, leaves every cosine within each space, and every
cosine between the spaces under the map R' W T, as it was. Every method is
built from such cosines, from intra-space distances, from least-squares
solves that move with the rotation, or (ICP) from PCA bases whose signs its
first restart fixes by their third moments. So in exact arithmetic each
method's dictionary and held-out MAP do not change.

In floating point the rotated scores differ in their last bits. A MAP is a
mean of 1 / rank over the test queries, and ranks are integers, so MAP moves
only where rounding swaps a gold score with another score within a few ulps
of it; one such swap moves one query's rank by one place, its AP by at most
1/2 and MAP by at most 1 / (2 * queries). The test allows one such swap and
no change of dictionary size. No swap was seen on this pair.

The pair is a clustered, anisotropic cloud and a noisy rotated copy, noisy
enough that every method's MAP lies inside (0, 1): on a saturated pair,
every method at 1.0, a broken contract would not show.
"""

import functools

import numpy as np
import pytest

from clembed import ALIGNERS, align
from clembed.embeddings import WordVectorSpace
from clembed.evaluation import bli_evaluate
from clembed.lexicon import make_lexicon
from conftest import random_rotation, words_for

N, DIM = 600, 20
SETTINGS = {
    "proc": {}, "cca": {}, "rcsls": dict(epochs=3),
    "proc-b": dict(iters=2, metric="csls", search_cap=N),
    "dlv": dict(search_cap=N),
    "vecmap": dict(search_cap=N, metric="csls", max_rounds=10, seed=0),
    "icp": dict(pca_dim=10, search_cap=N, restarts=1, max_iters=20, seed=0),
    "gwa": dict(search_cap=N, gw_lambda=0.05, iters=10),
}
# method -> why it is exempt from the rotation contract; none is
ROTATION_EXEMPT: dict[str, str] = {}


@functools.lru_cache(maxsize=None)
def contract_pair():
    """Source and target spaces and their training and test dictionaries:
    600 words in 20 clusters on a decaying spectrum, and a rotated copy
    with noise of 0.3 times the spectrum; the first half of the words
    train, the second half test."""
    rng = np.random.default_rng(1)
    spectrum = np.arange(1, DIM + 1) ** -0.5
    centres = rng.standard_normal((20, DIM)) * spectrum
    x = (centres[rng.integers(0, 20, N)]
         + 0.3 * rng.standard_normal((N, DIM)) * spectrum)
    y = (x + 0.3 * rng.standard_normal((N, DIM)) * spectrum) \
        @ random_rotation(DIM, rng)
    words = words_for(N)
    return (WordVectorSpace(words, x), WordVectorSpace(words, y),
            make_lexicon((w, w) for w in words[:N // 2]),
            make_lexicon((w, w) for w in words[N // 2:]))


@functools.lru_cache(maxsize=None)
def aligned(method, rotate):
    """`method`'s held-out MAP and dictionary size on the pair, with the
    source, the target or both rotated (`rotate`), or neither."""
    src, tgt, train, test = contract_pair()
    rng = np.random.default_rng(8)
    r, t = random_rotation(DIM, rng), random_rotation(DIM, rng)
    if rotate in ("src", "both"):
        src = WordVectorSpace(src.words, src.matrix @ r)
    if rotate in ("tgt", "both"):
        tgt = WordVectorSpace(tgt.words, tgt.matrix @ t)
    pair = align(method, src, tgt, train if ALIGNERS[method][1] else None,
                 **SETTINGS[method])
    return (bli_evaluate(pair, src, tgt, test).map_score,
            pair.metadata["dict_size"])


def test_settings_cover_every_method():
    assert set(SETTINGS) == set(ALIGNERS)
    assert set(ROTATION_EXEMPT) <= set(ALIGNERS)


@pytest.mark.parametrize("method", ALIGNERS)
def test_the_pair_is_not_saturated(method):
    assert 0.0 < aligned(method, None)[0] < 1.0


@pytest.mark.parametrize("rotate", ["src", "tgt", "both"])
@pytest.mark.parametrize("method", [m for m in ALIGNERS
                                    if m not in ROTATION_EXEMPT])
def test_rotating_a_space_keeps_map_and_dictionary_size(method, rotate):
    want_map, want_size = aligned(method, None)
    got_map, got_size = aligned(method, rotate)
    assert got_size == want_size
    queries = len(contract_pair()[3])
    assert abs(got_map - want_map) <= 1.0 / (2 * queries)
