"""Greedy particle routing: turn resample counts into placement orders.

After each resampling the master decides where every surviving replica
will live. Local replication is preferred; only the overflow is routed,
to the nearest worker by rank distance. The result is a deterministic
table of placement orders, an (m, 5) int32 array with one row
(lineage, source, destination, first_new_id, copies) per order: it puts
``copies`` replicas of ``lineage``, held by worker ``source``, on worker
``destination`` under new ids first_new_id .. first_new_id + copies - 1.
Rows are distinct (lineage, destination) pairs in ascending order, so the
new ids run 0..p-1 down the table. Workers execute their slice of it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import ValidationError

__all__ = ["compute_routing", "traffic_metrics", "worker_slice"]


def _validate_counts(counts: Sequence[int], W: int) -> np.ndarray:
    c = np.asarray(counts)
    if c.ndim != 1 or c.size == 0:
        raise ValidationError("counts must be a nonempty 1-D vector")
    if c.dtype.kind not in "iu":
        raise ValidationError(f"counts must be integers, got dtype {c.dtype}")
    if np.any(c < 0):
        raise ValidationError("counts must be >= 0")
    p = c.size
    if int(c.sum()) != p:
        raise ValidationError(f"counts must sum to the ensemble size {p}, got {int(c.sum())}")
    if W < 1:
        raise ValidationError(f"worker count must be >= 1, got {W}")
    return c.astype(np.int64)


def _validate_workers(worker_of: np.ndarray, p: int, W: int) -> np.ndarray:
    held = np.asarray(worker_of)
    if held.shape != (p,) or held.dtype.kind not in "iu":
        raise ValidationError(f"expected a 1-D integer array of {p} workers, "
                              f"got shape {held.shape}, dtype {held.dtype}")
    if held.min() < 0 or held.max() >= W:
        raise ValidationError(f"worker_of names workers outside 0..{W - 1}")
    return held.astype(np.int64)


def compute_routing(counts: Sequence[int], worker_of: np.ndarray, W: int) -> np.ndarray:
    """Two-stage greedy placement of the resampled ensemble, as the order
    table the module docstring describes.

    ``counts`` holds every lineage's integer replica count and
    ``worker_of`` its current worker, both indexed by lineage id.

    Stage 1 walks workers in ascending rank and their resident particles
    in ascending lineage id, keeping as many replicas local as capacity
    (ceil(p/W)) allows. Stage 2 walks the still-unplaced replicas in
    ascending lineage id and assigns them to the nearest worker with
    spare capacity (distance = rank difference, ties toward the lower
    rank); a particle's replicas may split across workers. Replica
    identities are renumbered 0..p-1 in (lineage, destination, copy)
    order, making the whole function a pure deterministic mapping.
    """
    c = _validate_counts(counts, W)
    p = c.size
    worker_of = _validate_workers(worker_of, p, W)
    w_max = math.ceil(p / W)

    # stage 1: a resident keeps min(count, capacity left after the
    # lower-numbered residents of its worker) replicas
    order = np.lexsort((np.arange(p), worker_of))
    ordered = c[order]
    before = np.cumsum(ordered) - ordered
    group_start = np.searchsorted(worker_of[order], worker_of[order])
    before -= before[group_start]
    kept = np.empty(p, dtype=np.int64)
    kept[order] = np.minimum(ordered, np.maximum(w_max - before, 0))
    remaining = c - kept
    capacity = (w_max - np.bincount(worker_of, weights=kept, minlength=W).astype(np.int64)).tolist()

    # stage 2: overflow to the nearest worker with spare capacity
    overflow = []       # (lineage, destination, copies)
    for lin in np.flatnonzero(remaining).tolist():
        left, src = int(remaining[lin]), int(worker_of[lin])
        while left > 0:
            best = min((w for w in range(W) if capacity[w] > 0), key=lambda w: (abs(w - src), w))
            k = min(left, capacity[best])
            overflow.append((lin, best, k))
            left -= k
            capacity[best] -= k

    # (lineage, destination) pairs are distinct: sorted, they are the orders
    local = np.flatnonzero(kept)
    extra = np.array(overflow, dtype=np.int64).reshape(-1, 3)
    lin = np.concatenate((local, extra[:, 0]))
    dest = np.concatenate((worker_of[local], extra[:, 1]))
    k = np.concatenate((kept[local], extra[:, 2]))
    order = np.lexsort((dest, lin))
    lin, dest, k = lin[order], dest[order], k[order]
    return np.column_stack((lin, worker_of[lin], dest, np.cumsum(k) - k, k)).astype(np.int32)


def worker_slice(orders: np.ndarray, rank: int) -> np.ndarray:
    """The rows of an order table that worker ``rank`` sends or receives."""
    return orders[(orders[:, 1] == rank) | (orders[:, 2] == rank)]


def traffic_metrics(orders: np.ndarray) -> tuple[float, float]:
    """(move_fraction, copy_fraction) of an order table.

    A move is an order that crosses workers: its replicas travel as one
    transfer and are replicated on arrival. Copies are the replicas
    beyond the first of each order, wherever they are made.
    """
    p = int(orders[:, 4].sum())
    moves = int(np.count_nonzero(orders[:, 2] != orders[:, 1]))
    return moves / p, (p - len(orders)) / p
