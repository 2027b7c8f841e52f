"""Cosine and CSLS similarity primitives shared by aligners and evaluation.

All functions operate on row-vector matrices (one embedding per row) and
return float64 results with no approximate nearest-neighbor shortcuts.
Every blocked loop of the package takes its blocks from one planner,
`_blocks`, which states each loop's byte budget. The sweep (`_sweep`)
scores queries against a pool in float64 row blocks, filled in tiles of
pool rows on one thread per core (`_threads`); the same threads apply
CSLS's terms and one reduction to stripes of each block's rows, never to a
full matrix. The reductions sit here, so no other module sees a block, a
stripe or a thread: `mutual_argmax_pairs` (dropout, row and column
argmaxes), BLI's gold ranks (`_gold_ranks`) and proc-b's rank-deficient
row argmaxes (`_row_argmax`). One certified top-n kernel, `_top_neighbors`,
finds each row's n nearest pool rows for CSLS hubness (`csls_hubness`) and
for RCSLS's neighbourhoods (`supervised.rcsls_neighbor_sets`). It alone
uses float32, and only to choose candidates: it screens each block in
float32, rescores in float64 the chosen columns the screen cannot rule
out and recomputes in full in float64 any row whose choice a proven
error bound cannot certify (see `csls_hubness`), so its columns and
means are the float64 ones. Both
kernels run on one thread per core through `_threads`, whose threads run
numpy and private helpers only, never a public function of the package.
"""

from __future__ import annotations

import contextlib
import functools
import os
import queue
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Bytes of a float64 block, from which `_blocks` states every budget.
_BLOCK_BYTES = 2 ** 25
# Rows a float64 product's block and a `_top_neighbors` screen hold at least
# where their budgets allow (`_blocks`): against a 200k x 300 pool, on one
# thread, float32 screens of 41 rows took 1.6 times as long as of 128.
_MIN_ROWS = 128
# Rows a `_top_neighbors` screen block holds at most. The top-n selection's
# temporaries (index arrays, partitions) are numpy's own, made in the
# worker thread, whose malloc arena keeps what they took: across a
# 5000-word proc-b and CSLS evaluation, two threads peaked 36 MiB above
# one with blocks of 1250 rows, 12 MiB with blocks of 512. Blocks of 256
# (7 MiB) made hubness against a 20k-row pool 5% slower.
_MAX_ROWS = 512
# Columns per strided group in the top-n selection of `_top_columns`.
_GROUP = 16
# Columns the float32 screen keeps beyond the n it needs, so that a near
# tie at the n-th place seldom sends a row to the float64 fallback.
_SPARE = 6
# Pool rows per tile of a `_sweep` block. The tile, not the
# thread count, sets how a block's product is split, so scores do not depend
# on the thread count. On 2 cores (one BLAS thread each), sweeps of 104 x
# 20000, 5000 x 5000 and 20000 x 20000 rows (d = 300) took 33 ms, 196 ms and
# 3.62 s in tiles of 1024 rows, 32 ms, 181 ms and 3.65 s in tiles of 2048;
# tiles of 512 were 9-11% slower, and tiles of 4096, two for two threads at
# 5000 rows, 45% slower there.
_TILE = 1024


def _blocks(n_rows: int, row_bytes: int, budget: int,
            floor: int = 1) -> list[slice]:
    """Slices of range(n_rows), the last clipped to it, of as many rows of
    `row_bytes` bytes as `budget` bytes hold (at least one), or, where that
    is fewer than `floor`, as many as 4 * budget hold, up to `floor`. Every
    blocked loop of the package is planned here, within:

    - _BLOCK_BYTES (32 MiB): `_sweep`'s and the top-n fallback's
      float64 blocks against the whole pool, at least `_MIN_ROWS` rows
      within 128 MiB (against a 200k-row pool, products of 20-row blocks
      took 1.7 times as long as of 83); `unsupervised.vecmap_seed`'s
      profiles and `evaluation.shuffling_test`'s draws;
    - _BLOCK_BYTES / 8 (4 MiB) of float64 rows: `_row_norms`, the top-n
      kernel's float32 pool fill, the stripes in which a thread finishes a
      `_sweep` block, and `supervised._candidate_mask`;
    - _BLOCK_BYTES / 128 (256 KiB) of float64 rows:
      `embeddings.save_text_embeddings`' format blocks;
    - _BLOCK_BYTES / 512 (64 KiB): `projection.save_matrix_text`'s format
      blocks (a 300 x 300 rotation: 17 ms, against 19 ms at 256 KiB);
    - 2 * _BLOCK_BYTES (64 MiB) of float32 screens in flight together:
      `_top_neighbors`, under its own rule for balancing the threads.
    """
    row_bytes = max(1, row_bytes)
    step = max(1, budget // row_bytes, min(floor, 4 * budget // row_bytes))
    return [slice(start, min(start + step, n_rows))
            for start in range(0, n_rows, step)]


def _workers() -> int:
    """Threads `_threads` runs on: one per core this process may use."""
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def _threads(scratch: list[list[np.ndarray]]):
    """Yield run(fn, items, meanwhile=None), which calls fn(item, *arrays)
    for each item on a pool of len(scratch) threads (at least one), never
    in this one, each call with one of the `scratch` sets, used by no other
    call while it runs; and meanwhile(), when given, in this thread while
    they run.

    The scratch is allocated by the caller, in the calling thread, and
    handed out through a queue: memory a worker thread allocates stays in
    its own malloc arena after it is freed. The threads take items as they
    finish the last; run returns when every item is done. An exception in
    fn is raised by run, and the items not yet started are dropped. No
    thread outlives the with block, however it is left. fn must be safe
    on any thread: numpy and private helpers only, writing disjoint memory.
    """
    sets = queue.SimpleQueue()
    for arrays in scratch:
        sets.put(arrays)

    def call(fn, item) -> None:
        arrays = sets.get()
        try:
            fn(item, *arrays)
        finally:
            sets.put(arrays)

    with ThreadPoolExecutor(max_workers=len(scratch)) as executor:
        def run(fn, items, meanwhile=None) -> None:
            done = executor.map(functools.partial(call, fn), items)
            if meanwhile is not None:
                meanwhile()
            for _ in done:
                pass
        yield run


# A norm below this is the root of a subnormal sum of squares: underflow
# has cost it precision.
_TINY_NORM = np.sqrt(np.finfo(float).tiny)


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Return a copy with each nonzero row scaled to unit Euclidean norm.

    Nonzero rows whose norm is below `_TINY_NORM` are first divided by their
    largest magnitude, so that their squares do not underflow; rows of zeros
    are left unchanged.
    """
    matrix = np.asarray(matrix)
    divisors, tiny = _unit_divisors(matrix)
    out = matrix / divisors[:, None]
    if tiny.size:
        rows = matrix[tiny] / np.abs(matrix[tiny]).max(axis=1, keepdims=True)
        out[tiny] = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return out


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs cosine similarity between rows of `a` and rows of `b`."""
    return unit_rows(a) @ unit_rows(b).T


def _largest(values: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of each row's m largest values (every index when a row has no
    more) and the largest value left out (-inf when none is)."""
    b, n = values.shape
    if n <= m:
        return np.broadcast_to(np.arange(n), (b, n)), np.full(b, -np.inf)
    part = np.argpartition(values, n - m - 1, axis=1)
    left_out = np.take_along_axis(values, part[:, n - m - 1:n - m], axis=1)
    return part[:, n - m:], left_out[:, 0]


def _top_columns(scores: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns holding each row's m largest scores (all columns when a row
    has no more), and the largest score of each row left out of them.

    No full-width partition: the first width * groups columns form `groups`
    strided groups {g, g + groups, g + 2 * groups, ...}, whose maxima take
    one vectorised reduction. A row's m largest scores lie in its m groups
    with the largest maxima and the fewer than `width` columns after the
    groups; only those columns are partitioned. Among equal scores either
    may be kept: every score left out is at most the m-th largest kept.
    """
    b, n = scores.shape
    width = _GROUP if n // _GROUP > m else 1
    groups = n // width
    maxima = scores[:, :width * groups].reshape(b, width, groups).max(axis=1)
    best, left_out = _largest(maxima, m)
    cols = (best[:, :, None] + groups * np.arange(width)).reshape(b, -1)
    tail = np.arange(width * groups, n)
    cols = np.concatenate([cols, np.broadcast_to(tail, (b, tail.size))], axis=1)
    kept, dropped = _largest(np.take_along_axis(scores, cols, axis=1), m)
    return np.take_along_axis(cols, kept, axis=1), np.maximum(left_out, dropped)


def _descending(cols: np.ndarray, scores: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k of each row's `cols` with the largest `scores` (their scores,
    one per column), in descending order of score, and the mean of those k
    scores summed in that order, so that it does not depend on the order
    the columns come in."""
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    top = np.take_along_axis(scores, order, axis=1)
    return np.take_along_axis(cols, order, axis=1), top.mean(axis=1)


def _top(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """`_descending` of each row's k largest entries of `scores`."""
    cols, _ = _top_columns(scores, k)
    return _descending(cols, np.take_along_axis(scores, cols, axis=1), k)


def csls_hubness(vectors: np.ndarray, pool: np.ndarray, n_neighbors: int) -> np.ndarray:
    """Per-row mean cosine of each vector to its n nearest neighbors in `pool`.

    This is the local-scaling term r(.) of CSLS. n_neighbors must be
    positive and is clamped to the pool size; an empty pool is a
    ValueError. Both sides go through `_top_neighbors` as the unit rows
    `unit_rows` makes of them, but no
    float64 copy of either side is made: the pool is held as float32 unit
    rows beside the row norms of both sides, each row block's own unit rows
    are made in scratch, and a kept pool row's unit row is divided out of
    the pool when it is rescored. Beside its inputs, the working set is
    that float32 pool, one float32 screen block per thread (`_top_neighbors`)
    and three (rows, d) blocks per thread. The float32 screen is certified
    as follows.

    Every score that enters a mean is computed in float64; float32 only
    chooses which ones. Queries q and pool rows p are cast to float32 once,
    and each row block is scored by one float32 product. Per row,
    `_top_columns` keeps the n + _SPARE best-screened columns and bounds
    every score left out. The kept columns within the band below (at or
    above s_n - 2 * delta_i) are rescored in float64, the others score
    -inf, and the n largest of those taken.

    The band: with u = 2**-24, rounding q and p to float32 moves q.p by at
    most (2 + u) * u * |q| |p|, and a float32 dot product of length d errs
    by at most about d * u times the product of its operands' norms (any
    summation order); the float64 dot product differs from the exact one by
    about d * 2**-53 * |q| |p|. Underflow below float32's normal range adds
    at most d * 2**-149 * (|q| + |p| + 1) in all. So for d far below 2**24
    the screened score of q_i against any pool row is within

        delta_i = (d + 4) * u * |q_i| * P + d * 2**-149 * (|q_i| + P + 1),

    P = max_j |p_j|, of the float64 one; for unit rows, as here, the first
    term is (d + 4) * u. The row's n-th kept screened score s_n then bounds
    its float64 n-th largest score from below by s_n - delta_i, and a column
    screened below s_n - 2 * delta_i cannot reach it: its float64 score is
    below s_n - delta_i, where each of the n best-screened columns scores
    at least that, so it can neither enter the top n nor tie there. So a
    kept column below the band is not rescored, and its -inf, behind the
    n rescored columns that outscore it, changes no column chosen, its
    order or the mean (kept columns keep their order, which `_descending`
    breaks ties by). A row whose largest left-out score is not that far
    below s_n (near ties, e.g. duplicated pool rows) is scored again in
    full in float64 (`_top`), so the result is always the float64 top-n
    mean. The same bound certifies
    RCSLS's neighbourhoods, whose queries and pool rows, projections through
    a map, are not unit rows: there the band grows with |q_i| and P.
    """
    if n_neighbors < 1:
        raise ValueError(f"CSLS needs at least 1 neighbour, got {n_neighbors}")
    if len(pool) == 0:
        raise ValueError("CSLS hubness needs a pool of at least one row, "
                         "got an empty pool")
    return _top_neighbors(vectors, pool, n_neighbors, unit=True)[1]


def _norms(matrix: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, without a temporary of the matrix's size."""
    return np.sqrt(np.einsum("ij,ij->i", matrix, matrix))


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """np.linalg.norm(matrix, axis=1), bit for bit, taken in `_blocks`:
    np.linalg.norm squares its whole input into a temporary, 46 MiB for a
    20k x 300 matrix."""
    norms = [np.linalg.norm(matrix[rows], axis=1) for rows in _blocks(
        len(matrix), 8 * matrix.shape[1], _BLOCK_BYTES // 8)]
    return np.concatenate(norms) if norms else np.linalg.norm(matrix, axis=1)


def _unit_divisors(matrix: np.ndarray, norms: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """What `unit_rows` divides each row of `matrix` by: its norm, or 1
    where that is below `_TINY_NORM`; and the nonzero rows among those,
    which `unit_rows` rescales first. `norms` are the `_row_norms` of
    `matrix`, when they are taken already."""
    if norms is None:
        norms = _row_norms(matrix)
    small = norms < _TINY_NORM
    tiny = np.flatnonzero(small)
    return np.where(small, 1.0, norms), tiny[matrix[tiny].any(axis=1)]


def _unit_side(matrix: np.ndarray, norms: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray | None]:
    """`matrix` and its `_unit_divisors`, or, when it has a nonzero row
    below `_TINY_NORM`, unit_rows(matrix) and None: what `_gather` makes
    unit rows from."""
    divisors, tiny = _unit_divisors(matrix, norms)
    return (unit_rows(matrix), None) if tiny.size else (matrix, divisors)


def _gather(out: np.ndarray, matrix: np.ndarray, index: np.ndarray,
            divisors: np.ndarray | None) -> np.ndarray:
    """Fill `out` with matrix[index], each row divided by its divisor when
    there are divisors, and return it: for `_unit_divisors`, bit for bit
    unit_rows(matrix)[index], and with no temporary of out's size."""
    np.take(matrix, index, axis=0, out=out, mode="clip")
    if divisors is not None:
        np.divide(out, divisors[index, None], out=out)
    return out


def _top_neighbors(queries: np.ndarray, pool: np.ndarray, n: int,
                   unit: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Each query row's n largest dot products with the rows of `pool`
    (n clamped to the pool size): the n columns, in descending order of
    score, and the mean of their scores, all as float64 would give them.
    With `unit`, of unit_rows(queries) with unit_rows(pool), bit for bit.

    The float32 screen, the float64 rescoring and the float64 fallback of
    rows the band cannot certify are those of `csls_hubness`, whose
    docstring holds the proof. The screen's row blocks are of near-equal
    size, at least one per thread (`_workers`) and at most `_MAX_ROWS` rows,
    each screen within an equal share of 2 * _BLOCK_BYTES (one row at
    least, or, against pools too wide for `_MIN_ROWS` rows, as many up to
    `_MIN_ROWS` as 4 * _BLOCK_BYTES hold while every thread has a block).
    They run on `_threads`, each gathering (and making unit rows of) its
    rows into scratch allocated here, one set per thread. A block rescores
    its rows' columns slot by slot, each row's columns to rescore first:
    slot j gathers one pool row for each row with more than j of them, and
    where that is not every row, copies those rows too. The fallback runs
    after them, in this thread, in `_blocks` of the uncertified rows, so
    its blocks do not depend on the thread count. Only when a row reaches
    the fallback, or a nonzero pool row is below `_TINY_NORM`, is a float64
    copy of the pool made.
    """
    queries = np.asarray(queries, dtype=float)
    pool = np.asarray(pool, dtype=float)
    k = min(n, len(pool))
    d = queries.shape[1]
    q_div = p_div = None
    if unit:
        (queries, q_div), (pool, p_div) = _unit_side(queries), _unit_side(pool)
    p32 = np.empty(pool.shape, dtype=np.float32)
    p_max = 0.0
    for rows in _blocks(len(pool), 8 * d, _BLOCK_BYTES // 8):
        block = pool[rows] if p_div is None else pool[rows] / p_div[rows, None]
        p32[rows] = block
        p_max = max(p_max, _norms(block).max(initial=0.0))
    cols = np.empty((len(queries), k), dtype=np.intp)
    means = np.empty(len(queries))
    unsure = np.empty(len(queries), dtype=bool)
    workers, row_bytes = _workers(), 4 * max(1, len(pool))
    n_blocks = len(_blocks(len(queries), row_bytes,
                           2 * _BLOCK_BYTES // workers))
    n_blocks += -n_blocks % workers
    step = min(_MAX_ROWS, max(1, -(-len(queries) // max(1, n_blocks)),
                              min(_MIN_ROWS, len(queries) // workers,
                                  4 * _BLOCK_BYTES // row_bytes)))
    blocks = _blocks(len(queries), row_bytes, step * row_bytes)
    # per thread: a block's float32 screen, its unit rows in float64 and in
    # float32, and the pool rows it rescores in one slot of its columns
    scratch = [[np.empty((step, len(pool)), dtype=np.float32),
                np.empty((step, d)), np.empty((step, d), dtype=np.float32),
                np.empty((step, d))] for _ in range(min(workers, len(blocks)))]

    def screen_block(rows: slice, *arrays) -> None:
        screen, q64, q32, picked = (a[:rows.stop - rows.start] for a in arrays)
        _gather(q64, queries, np.arange(rows.start, rows.stop), q_div)
        q32[...] = q64
        np.matmul(q32, p32.T, out=screen)
        kept_cols, left_out = _top_columns(screen, k + _SPARE)
        kept = np.take_along_axis(screen, kept_cols, axis=1)
        m = kept.shape[1]
        kth = np.partition(kept, m - k, axis=1)[:, m - k]
        q_norms = _norms(q64)
        band = 2.0 * ((d + 4) * 2.0 ** -24 * q_norms * p_max
                      + d * 2.0 ** -149 * (q_norms + p_max + 1.0))
        floor = kth.astype(float) - band
        unsure[rows] = ~(left_out < floor)
        # only columns screened within the band of the n-th are rescored,
        # each row's first and in their kept order; the rest score -inf
        rescore = ~(kept < floor[:, None])
        order = np.argsort(~rescore, axis=1, kind="stable")
        counts = np.count_nonzero(rescore, axis=1)
        exact = np.full(kept_cols.shape, -np.inf)
        for j in range(counts.max(initial=0)):
            at = np.flatnonzero(counts > j)
            slot = order[at, j]
            exact[at, slot] = np.einsum(
                "bd,bd->b", q64 if len(at) == len(q64) else q64[at],
                _gather(picked[:len(at)], pool, kept_cols[at, slot], p_div))
        cols[rows], means[rows] = _descending(kept_cols, exact, k)

    if blocks:  # no rows, no threads: a pool of none cannot start
        with _threads(scratch) as run:
            run(screen_block, blocks)
    redo = np.flatnonzero(unsure)
    if redo.size and p_div is not None:
        pool = pool / p_div[:, None]
    for rows in _blocks(len(redo), 8 * len(pool), _BLOCK_BYTES, _MIN_ROWS):
        at = redo[rows]
        cols[at], means[at] = _top(
            _gather(np.empty((len(at), d)), queries, at, q_div) @ pool.T, k)
    return cols, means


def _sweep(queries, pool, metric, csls_n, r_pool, reduce, scratch=None,
           meanwhile=None) -> list[list[np.ndarray]]:
    """Call reduce(rows, scores, *arrays) once per stripe of query rows, on
    the sweep's threads in no set order: `scores` are those of
    unit_rows(queries)[rows] with unit_rows(pool) under metric cosine or
    csls, to change in place at will but not to keep, and `arrays` the
    thread's `scratch(cells)`, made here for stripes of at most `cells`
    scores and returned, one list per thread. meanwhile(rows), if given,
    runs in this thread while the tiles of row block `rows` fill.

    Row blocks (`_blocks`) share one buffer, allocated for the first (the
    tallest), and are filled tile by tile, each tile `_TILE` pool rows, on
    `_threads`' threads, one per core (`_workers`): a tile's unit rows are
    made in its thread's scratch, so no float64 unit copy of either side is
    made unless it has a nonzero row below `_TINY_NORM` (then it goes
    through `unit_rows` whole). A tile's product may differ from one with
    the whole pool in the last bits, never with the thread count. The
    threads then take the block in contiguous stripes of at most
    _BLOCK_BYTES / 8 (numpy on a tile's strided columns took 2.5-3 times as
    long).

    CSLS, 2*cos - r_q[rows, None] - r_p[None, :], is applied per stripe:
    r_q, each query's mean cosine to its csls_n nearest pool rows, from
    `_top`, summed in descending order so that it depends neither on tiles
    nor on stripes; r_p (`r_pool`), each pool row's to its nearest queries,
    from one `csls_hubness` pass before the sweep unless given.
    """
    if metric not in ("cosine", "csls"):
        raise ValueError(f"unknown similarity metric: {metric!r}")
    if metric == "csls" and r_pool is None and len(queries):
        # with no query rows there is no CSLS term to apply, nor a pool
        # for the pool rows' hubness
        r_pool = csls_hubness(pool, queries, csls_n)
    queries = np.asarray(queries, dtype=float)
    pool = np.asarray(pool, dtype=float)
    (n, d), k = pool.shape, min(csls_n, len(pool)) if metric == "csls" else 0
    tiles = [slice(start, min(start + _TILE, n))
             for start in range(0, n, _TILE)]
    blocks = _blocks(len(queries), 8 * n, _BLOCK_BYTES, _MIN_ROWS)
    height = blocks[0].stop if blocks else 0
    # a thread finishes a filled block in stripes of its rows
    stripes = _blocks(height, 8 * n, _BLOCK_BYTES // 8)
    cells = stripes[0].stop * n if stripes else 0
    # per thread: a tile's unit rows, then the reduction's own scratch
    sets = [[np.empty((min(_TILE, n), d))] + (scratch(cells) if scratch else [])
            for _ in range(min(_workers(), max(1, len(tiles), len(stripes))))]
    q_norms, p_norms = np.empty(len(queries)), np.empty(n)

    def tile_norms(item: tuple, *_) -> None:
        matrix, norms, tile = item
        norms[tile] = _row_norms(matrix[tile])

    def fill(tile: slice, tile_units: np.ndarray, *_) -> None:
        tile_units = _gather(tile_units[:tile.stop - tile.start], pool,
                             np.arange(tile.start, tile.stop), p_div)
        np.matmul(block, tile_units.T, out=scores[:, tile])

    def finish(stripe: slice, _, *arrays) -> None:
        part = scores[stripe]
        if k:
            r_rows = _top(part, k)[1]
            part *= 2.0
            part -= r_rows[:, None]
            part -= r_pool
        reduce(slice(rows.start + stripe.start, rows.start + stripe.stop),
               part, *arrays)

    with _threads(sets) as run:
        # the row norms too: against a 20k-row pool, taking them on the
        # threads cut a 45 ms cosine `bli_evaluate` by 3-4 ms (2 cores)
        run(tile_norms, [(queries, q_norms, slice(start, start + _TILE))
                         for start in range(0, len(queries), _TILE)]
            + [(pool, p_norms, tile) for tile in tiles])
        queries, q_div = _unit_side(queries, q_norms)
        pool, p_div = _unit_side(pool, p_norms)
        if blocks:
            units = np.empty((height, d))
            buffer = np.empty((height, n))
        for rows in blocks:
            block = _gather(units[:rows.stop - rows.start], queries,
                            np.arange(rows.start, rows.stop), q_div)
            scores = buffer[:len(block)]
            run(fill, tiles, meanwhile and functools.partial(meanwhile, rows))
            run(finish, _blocks(len(block), 8 * n, _BLOCK_BYTES // 8))
    return [arrays[1:] for arrays in sets]


def mutual_argmax_pairs(queries: np.ndarray, pool: np.ndarray,
                        metric: str = "cosine", csls_n: int = 10,
                        best: np.ndarray | None = None,
                        keep_prob: float = 1.0,
                        rng: np.random.Generator | None = None
                        ) -> list[tuple[int, int]]:
    """Index pairs (i, j), in row order, that are each other's row and
    column argmax in the sweep (`_sweep`) of queries against pool.

    Ties resolve to the lowest index (np.argmax convention), which for
    frequency-ordered vocabularies prefers the more frequent word. Over
    finite scores with a row and a column the result is never empty: the
    first maximum in row-major order is its row's and its column's argmax.

    `best`, when given, receives each row's largest score. With keep_prob
    below 1 each score is then zeroed with probability 1 - keep_prob before
    the argmaxes are taken (`_dropout`; stochastic dictionary induction,
    Artetxe et al. 2018): the draws come from `rng`, block by block in row
    order, the same numbers as one draw over the whole matrix, each block's
    drawn by this thread into one buffer while the block's tiles fill.

    On the sweep's threads a stripe takes its rows' argmaxes and merges its
    columns' maxima and first rows at them into its thread's running ones,
    which this thread merges at the end (`_keep_first_max`: no order of the
    merges changes the outcome).
    """
    n, drop = len(pool), keep_prob < 1
    fwd = np.zeros(len(queries), dtype=np.intp)
    draws, drawn = None, 0

    def draw(rows: slice) -> None:
        nonlocal draws, drawn
        if draws is None:  # the first block is the tallest
            draws = np.empty((rows.stop - rows.start, n))
        drawn = rows.start
        rng.random(out=draws[:rows.stop - rows.start])

    def scratch(cells: int) -> list[np.ndarray]:
        # per stripe: a bool mask, its transpose (np.argmax finds a column's
        # first maximum in it without a copy) and column maxima; per thread:
        # running column maxima and the first rows at them
        return [np.empty(cells, dtype=bool), np.empty(cells, dtype=bool),
                np.empty(n), np.full(n, -np.inf), np.zeros(n, dtype=np.intp)]

    def reduce(rows: slice, part: np.ndarray, mask, flipped, top, col_top,
               col_row) -> None:
        mask = mask[:part.size].reshape(part.shape)
        if drop:
            if best is not None:
                np.max(part, axis=1, out=best[rows])
            _dropout(part, draws[rows.start - drawn:rows.stop - drawn],
                     keep_prob, mask)
        np.argmax(part, axis=1, out=fwd[rows])
        if best is not None and not drop:
            best[rows] = part[np.arange(len(part)), fwd[rows]]
        np.max(part, axis=0, out=top)
        np.equal(part, top, out=mask)
        flipped = flipped[:part.size].reshape(part.shape[::-1])
        np.copyto(flipped, mask.T)
        _keep_first_max(top, np.argmax(flipped, axis=1) + rows.start,
                        col_top, col_row)

    sets = _sweep(queries, pool, metric, csls_n, None, reduce, scratch,
                  draw if drop else None)
    col_top, bwd = np.full(n, -np.inf), np.zeros(n, dtype=np.intp)
    for *_, thread_top, thread_row in sets:
        _keep_first_max(thread_top, thread_row, col_top, bwd)
    return mutual_pairs(fwd, bwd)


def _row_argmax(queries: np.ndarray, pool: np.ndarray, metric: str,
                csls_n: int) -> np.ndarray:
    """Each query row's first pool column at its largest score in the sweep
    (`_sweep`) of queries against pool, taken on the sweep's threads."""
    fwd = np.empty(len(queries), dtype=np.intp)
    _sweep(queries, pool, metric, csls_n, None,
           lambda rows, part: np.argmax(part, axis=1, out=fwd[rows]))
    return fwd


def _gold_ranks(queries: np.ndarray, pool: np.ndarray, golds, metric: str,
                csls_n: int, r_pool: np.ndarray | None) -> list[list[int]]:
    """The 1-based rank of each gold pool column golds[i] in row i of the
    sweep (`_sweep`) of queries against pool, ties going to the lowest
    index: 1 + #{j: s_j > s_g} + #{j < g: s_j == s_g}. Counted on the
    sweep's threads: a stripe ranks its rows' first golds on itself, and
    further golds on a gather of one row per gold."""
    starts = np.cumsum([0] + [len(cols) for cols in golds])
    owner = np.repeat(np.arange(len(golds)), np.diff(starts))
    first = np.diff(owner, prepend=-1) != 0
    cols = np.array([g for row in golds for g in row], dtype=np.intp)
    ranks = np.empty(len(cols), dtype=np.intp)

    def rank(rows: slice, part: np.ndarray) -> None:
        at = np.arange(starts[rows.start], starts[rows.stop])
        for group in (at[first[at]], at[~first[at]]):
            which = owner[group] - rows.start
            scores = (part if np.array_equal(which, np.arange(len(part)))
                      else part[which])
            gold = scores[np.arange(len(group)), cols[group]][:, None]
            ahead = (scores > gold) | ((scores == gold) & (
                np.arange(scores.shape[1]) < cols[group, None]))
            ranks[group] = 1 + np.count_nonzero(ahead, axis=1)

    _sweep(queries, pool, metric, csls_n, r_pool, rank)
    return [ranks[a:b].tolist() for a, b in zip(starts[:-1], starts[1:])]


def _keep_first_max(top: np.ndarray, row: np.ndarray, best: np.ndarray,
                    best_row: np.ndarray) -> None:
    """Merge column maxima `top`, first held at rows `row`, into the running
    `best` and `best_row`, in place: a larger maximum, or an equal one at a
    lower row, wins. So merges in any order keep each column's first row at
    its maximum, as np.argmax over the rows finds it for finite scores."""
    better = (top > best) | ((top == best) & (row < best_row))
    np.copyto(best, top, where=better)
    np.copyto(best_row, row, where=better)


def _dropout(scores: np.ndarray, draws: np.ndarray, keep_prob: float,
             mask: np.ndarray) -> None:
    """Zero in place each score whose draw is not below keep_prob, through
    `mask`, a bool array of their shape. For finite scores the result
    equals np.copyto(scores, 0.0, where=draws >= keep_prob): a dropped
    score times 0 is +-0, and +-0 + 0.0 is +0.0. At 2000 x 2000 it took
    6 ms, against the masked copy's 25 ms."""
    np.less(draws, keep_prob, out=mask)
    scores *= mask
    scores += 0.0


def mutual_pairs(fwd: np.ndarray, bwd: np.ndarray) -> list[tuple[int, int]]:
    """Pairs (i, fwd[i]) with bwd[fwd[i]] == i, in row order: the mutual
    nearest neighbours, given each row's best column and each column's best row."""
    fwd = np.asarray(fwd)
    rows = np.flatnonzero(np.asarray(bwd)[fwd] == np.arange(fwd.size))
    return list(zip(rows.tolist(), fwd[rows].tolist()))
