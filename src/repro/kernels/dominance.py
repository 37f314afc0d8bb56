"""Batch dominance kernels (Definition 3 over blocks).

The scalar :func:`repro.geometry.point.dominates` compares two points; these
kernels compare one point against a whole ``(n, d)`` block — or two blocks
against each other — in a constant number of numpy dispatches.  The two
mask kernels also take an ``(m, d)`` block of query points and then
return the ``(m, n)`` matrix, one row per query, in one broadcast.  All
kernels use the paper's smaller-is-better convention: ``p`` dominates
``q`` iff ``p <= q`` everywhere and ``p < q`` somewhere.

Inputs are plain arrays (or anything ``np.asarray`` accepts), so the
kernels serve both :class:`repro.kernels.block.PointBlock` data and the
ad-hoc corner arrays the join algorithm builds from R-tree entries.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _as_block(block: "np.ndarray") -> np.ndarray:
    return np.asarray(block, dtype=np.float64)


def _as_row(point: Sequence[float]) -> np.ndarray:
    return np.asarray(point, dtype=np.float64)


def dominating_mask(
    block: "np.ndarray", point: Sequence[float]
) -> np.ndarray:
    """Boolean mask of block rows that dominate ``point``.

    ``mask[i]`` is True iff ``block[i] <= point`` on every dimension and
    ``block[i] < point`` on at least one.  With an ``(m, d)`` block of
    query points, ``mask[i, j]`` is True iff ``block[j]`` dominates
    ``point[i]``.

    Scalar oracle: `repro.geometry.point.dominates`
    """
    rows = _as_block(block)
    row = _as_row(point)
    if row.ndim == 2:
        rows, row = rows[None, :, :], row[:, None, :]
        return (rows <= row).all(axis=2) & (rows < row).any(axis=2)
    return (rows <= row).all(axis=1) & (rows < row).any(axis=1)


def dominated_mask(
    block: "np.ndarray", point: Sequence[float]
) -> np.ndarray:
    """Boolean mask of block rows that ``point`` dominates.

    With an ``(m, d)`` block of query points, ``mask[i, j]`` is True iff
    ``point[i]`` dominates ``block[j]``.

    Scalar oracle: `repro.geometry.point.dominates`
    """
    rows = _as_block(block)
    row = _as_row(point)
    if row.ndim == 2:
        rows, row = rows[None, :, :], row[:, None, :]
        return (row <= rows).all(axis=2) & (row < rows).any(axis=2)
    return (row <= rows).all(axis=1) & (row < rows).any(axis=1)


def any_dominates(block: "np.ndarray", point: Sequence[float]) -> bool:
    """True iff some block row dominates ``point``.

    The is-dominated test of every skyline-maintenance loop.  Evaluates the
    weak relation first and short-circuits — on typical workloads most
    candidates fail the ``<=`` filter, so the second pass runs on a small
    remainder.

    Scalar oracle: `repro.geometry.point.dominates`
    """
    rows = _as_block(block)
    row = _as_row(point)
    weak = (rows <= row).all(axis=1)
    if not weak.any():
        return False
    return bool((rows[weak] < row).any())


def pairwise_dominance(
    a: "np.ndarray", b: "np.ndarray"
) -> np.ndarray:
    """The ``(len(a), len(b))`` matrix of ``a[i] dominates b[j]``.

    Materializes an ``(n, m, d)`` broadcast — intended for agreement tests
    and moderate blocks.

    Scalar oracle: `repro.geometry.point.dominates`
    """
    lhs = _as_block(a)[:, None, :]
    rhs = _as_block(b)[None, :, :]
    return (lhs <= rhs).all(axis=2) & (lhs < rhs).any(axis=2)
