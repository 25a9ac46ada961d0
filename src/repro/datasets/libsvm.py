"""LIBSVM sparse format reader/writer.

The paper's experiments use LIBSVM-repository datasets stored in this
format; we implement the full 3-array-CSR round trip so users can load
the real files when they have them (the benchmark harness falls back to
synthetic shape-matched generators when they are absent).

Format: one sample per line, ``<label> <index>:<value> ...`` with 1-based
indices by default; ``#`` starts a comment. Labels and values must be
finite: ``nan``/``inf`` tokens raise :class:`~repro.errors.DatasetError`
naming the line and token.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import IO

import numpy as np
import scipy.sparse as sp

from repro.errors import DatasetError

__all__ = ["load_libsvm", "save_libsvm", "loads_libsvm", "dumps_libsvm"]


def _open_maybe(path_or_file, mode: str):
    if isinstance(path_or_file, (str, Path)):
        return open(path_or_file, mode, encoding="utf-8"), True
    return path_or_file, False


def load_libsvm(
    path_or_file: str | Path | IO[str],
    n_features: int | None = None,
    zero_based: bool = False,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Parse a LIBSVM file into ``(csr_matrix, labels)``.

    Parameters
    ----------
    n_features:
        Force the column count (otherwise inferred from the max index).
    zero_based:
        Interpret feature indices as 0-based instead of the standard
        1-based convention.
    """
    fh, close = _open_maybe(path_or_file, "r")
    labels: list[float] = []
    data: list[float] = []
    indices: list[int] = []
    indptr: list[int] = [0]
    offset = 0 if zero_based else 1
    try:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError as exc:
                raise DatasetError(
                    f"line {lineno}: invalid label {parts[0]!r}"
                ) from exc
            if not np.isfinite(label):
                raise DatasetError(
                    f"line {lineno}: non-finite label {parts[0]!r}"
                )
            labels.append(label)
            prev_idx = -1
            for token in parts[1:]:
                try:
                    idx_s, val_s = token.split(":", 1)
                    idx = int(idx_s) - offset
                    val = float(val_s)
                except ValueError as exc:
                    raise DatasetError(
                        f"line {lineno}: invalid feature token {token!r}"
                    ) from exc
                if not np.isfinite(val):
                    raise DatasetError(
                        f"line {lineno}: non-finite feature value in {token!r}"
                    )
                if idx < 0:
                    raise DatasetError(
                        f"line {lineno}: feature index {idx_s} out of range "
                        f"({'0' if zero_based else '1'}-based expected)"
                    )
                if idx <= prev_idx:
                    raise DatasetError(
                        f"line {lineno}: feature indices must be strictly increasing"
                    )
                prev_idx = idx
                indices.append(idx)
                data.append(val)
            indptr.append(len(indices))
    finally:
        if close:
            fh.close()
    m = len(labels)
    inferred = (max(indices) + 1) if indices else 0
    n = n_features if n_features is not None else inferred
    if n < inferred:
        raise DatasetError(
            f"n_features={n} smaller than max feature index ({inferred})"
        )
    A = sp.csr_matrix(
        (np.asarray(data), np.asarray(indices, dtype=np.int64), np.asarray(indptr, dtype=np.int64)),
        shape=(m, n),
    )
    return A, np.asarray(labels)


def loads_libsvm(text: str, **kwargs) -> tuple[sp.csr_matrix, np.ndarray]:
    """Parse LIBSVM data from a string."""
    return load_libsvm(io.StringIO(text), **kwargs)


def save_libsvm(
    path_or_file: str | Path | IO[str],
    A,
    labels: np.ndarray,
    zero_based: bool = False,
    label_fmt: str = "%.17g",
    value_fmt: str = "%.17g",
) -> None:
    """Write ``(A, labels)`` in LIBSVM format (lossless with defaults)."""
    A = sp.csr_matrix(A)
    labels = np.asarray(labels).ravel()
    if A.shape[0] != labels.shape[0]:
        raise DatasetError(
            f"A has {A.shape[0]} rows but labels has {labels.shape[0]} entries"
        )
    offset = 0 if zero_based else 1
    fh, close = _open_maybe(path_or_file, "w")
    try:
        for i in range(A.shape[0]):
            row = A.getrow(i)
            toks = [label_fmt % labels[i]]
            for j, v in zip(row.indices, row.data, strict=True):
                toks.append(f"{j + offset}:{value_fmt % v}")
            fh.write(" ".join(toks) + "\n")
    finally:
        if close:
            fh.close()


def dumps_libsvm(A, labels: np.ndarray, **kwargs) -> str:
    """Serialise to a LIBSVM-format string."""
    buf = io.StringIO()
    save_libsvm(buf, A, labels, **kwargs)
    return buf.getvalue()
