"""The common output type of every aligner: a pair of linear maps.

Source vectors are compared against target vectors after applying
x_src @ w_src and x_tgt @ w_tgt respectively. Direct source-to-target
methods leave w_tgt as the identity. Loading a malformed saved pair is a
ValueError that starts with the path of the file at fault (`line N: ` next
where one line is), or of its directory if `ProjectionPair` refuses it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .embeddings import _CompanionWriter, _stored_matrix, open_text

ORTHOGONALITY_TOL = 1e-6


@dataclass(frozen=True)
class ProjectionPair:
    w_src: np.ndarray
    w_tgt: np.ndarray
    orthogonal_src: bool
    method: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.w_src.ndim != 2 or self.w_tgt.ndim != 2:
            raise ValueError("projection matrices must be 2-D")
        if self.w_src.shape[0] != self.w_src.shape[1]:
            raise ValueError("w_src must be square")
        if self.w_tgt.shape[0] != self.w_tgt.shape[1]:
            raise ValueError("w_tgt must be square")
        if self.orthogonal_src:
            gram = self.w_src.T @ self.w_src
            err = np.max(np.abs(gram - np.eye(gram.shape[0])))
            if err >= ORTHOGONALITY_TOL:
                raise ValueError(
                    f"w_src flagged orthogonal but ||W'W - I||_max = {err:.2e}")
        # decided once per pair: which maps are exactly the identity
        object.__setattr__(self, "_identity", tuple(
            np.array_equal(w, np.eye(len(w)))
            for w in (self.w_src, self.w_tgt)))

    def project_src(self, matrix: np.ndarray) -> np.ndarray:
        """matrix @ w_src, or `matrix` itself when w_src is exactly the
        identity. For finite input the product equals `matrix` except that
        a -0.0 may come back as +0.0, which no cosine or rank can see."""
        return matrix if self._identity[0] else matrix @ self.w_src

    def project_tgt(self, matrix: np.ndarray) -> np.ndarray:
        """matrix @ w_tgt, or `matrix` itself when w_tgt is exactly the
        identity (see `project_src`)."""
        return matrix if self._identity[1] else matrix @ self.w_tgt


def identity_pair(dim: int) -> ProjectionPair:
    eye = np.eye(dim)
    return ProjectionPair(w_src=eye, w_tgt=eye.copy(), orthogonal_src=True,
                          method="identity")


def save_matrix_text(matrix: np.ndarray, path: str | os.PathLike) -> None:
    """Write a headerless whitespace-separated text matrix (same grammar as
    embeddings), each value `%.17g`, and its companion, `<path>.clembed.npz`:
    the matrix in float64 and the size and SHA-256 of the bytes written,
    through `embeddings._CompanionWriter`. `%.17g` gives every finite
    float64 back exactly, -0.0 and subnormals too, so the companion holds
    what a parse of the text gives; a matrix that is empty or not finite
    gets none. A companion that cannot be written is not written; the text
    is written all the same."""
    matrix = np.asarray(matrix, dtype=float)
    np.savetxt(path, matrix, fmt="%.17g")
    if matrix.size and np.isfinite(matrix).all():
        with open(path, "rb") as fh:
            data = fh.read()
        with _CompanionWriter(path) as companion:
            companion.add(matrix, len(data), hashlib.sha256(data).digest())
            companion.commit()


def load_matrix_text(path: str | os.PathLike) -> np.ndarray:
    """Read a text matrix; an error names the file and its first bad line.

    The file's bytes are read once. If its companion was written for
    exactly those bytes (their size and SHA-256), the stored matrix is
    returned, bit for bit what the parse gives; otherwise those bytes are
    parsed. A companion that is missing, stale or damaged is ignored."""
    with open(path, "rb") as fh:
        data = fh.read()
    stored = _stored_matrix(path, data)
    if stored is not None:
        return stored
    with open_text(path, data) as fh:
        lines = fh.read().splitlines()
    try:
        return np.loadtxt(lines, ndmin=2)
    except ValueError as exc:
        width = None  # the first row's value count
        for n, line in enumerate(lines, start=1):
            if not line.split("#", 1)[0].split():
                continue  # blank or comment only: loadtxt skips it
            try:
                count = np.loadtxt([line], ndmin=2).shape[1]
            except ValueError:
                raise ValueError(f"{path}: line {n}: unparseable float") from None
            width = width or count
            if count != width:
                raise ValueError(f"{path}: line {n}: expected {width} values, "
                                 f"got {count}") from None
        raise ValueError(f"{path}: {exc}") from None


def write_staged(outdir: str | os.PathLike, writers: dict) -> None:
    """Write files into `outdir`, all of them or none: each writer(path) fills
    a file in a temporary directory there, and only once every writer has
    returned are the files renamed into place, in the given order. A file a
    writer leaves beside its own, such as the companion of an embedding
    file, is renamed into place first."""
    os.makedirs(outdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=outdir, prefix=".tmp-") as staging:
        for name, write in writers.items():
            write(os.path.join(staging, name))
        extras = sorted(set(os.listdir(staging)) - writers.keys())
        for name in [*extras, *writers]:
            os.replace(os.path.join(staging, name), os.path.join(outdir, name))


def write_json(record: dict, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")


def save_projection(pair: ProjectionPair, out_dir: str | os.PathLike,
                    timing: dict | None = None) -> None:
    """Write w_src.txt, w_tgt.txt, then projection.json (with `timing`, if
    given), all of them or none; each matrix's companion is renamed into
    place before its text (`write_staged`)."""
    record = {"method": pair.method, "orthogonal_src": pair.orthogonal_src,
              "metadata": pair.metadata}
    if timing is not None:
        record["timing"] = timing
    write_staged(out_dir, {
        "w_src.txt": partial(save_matrix_text, pair.w_src),
        "w_tgt.txt": partial(save_matrix_text, pair.w_tgt),
        "projection.json": partial(write_json, record)})


def read_json(path: str | os.PathLike, keys=()) -> dict:
    """The JSON object in `path`, which must hold each of `keys`."""
    with open_text(path) as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    missing = [k for k in keys if not isinstance(record, dict)
               or k not in record]
    if missing:
        raise ValueError(f"{path}: no key " + ", ".join(map(repr, missing)))
    return record


def load_projection(out_dir: str | os.PathLike) -> ProjectionPair:
    """The pair `save_projection` wrote to `out_dir`. Each matrix is read
    once and, where its companion matches it, not parsed
    (`load_matrix_text`)."""
    record = read_json(os.path.join(out_dir, "projection.json"),
                       ("orthogonal_src", "method"))
    w_src, w_tgt = (load_matrix_text(os.path.join(out_dir, name))
                    for name in ("w_src.txt", "w_tgt.txt"))
    try:
        return ProjectionPair(w_src, w_tgt, record["orthogonal_src"],
                              record["method"], record.get("metadata", {}))
    except ValueError as exc:
        raise ValueError(f"{out_dir}: {exc}") from None
