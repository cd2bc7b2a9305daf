"""Greedy particle routing: turn resample counts into placement orders.

After each resampling the master decides where every surviving replica
will live. Local replication is preferred; only the overflow is routed,
to the nearest worker by rank distance. The result is a deterministic,
serializable set of placement orders; workers execute their slice of it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import ValidationError

__all__ = ["Routing", "compute_routing", "traffic_metrics"]


class Routing:
    """Placement of a resampled ensemble: one row per placement order.

    Row i places ``copies[i]`` replicas of lineage ``lineage[i]``, held by
    worker ``source[i]``, on worker ``destination[i]``, under the next
    ``copies[i]`` new lineage ids. Rows are distinct (lineage, destination)
    pairs in ascending order. The constructor takes ownership of the four
    1-D integer arrays and makes them read-only. ``W_max`` bounds every
    worker's load.
    """

    __slots__ = ("lineage", "source", "destination", "copies", "W_max")

    def __init__(self, lineage: np.ndarray, source: np.ndarray, destination: np.ndarray,
                 copies: np.ndarray, W_max: int):
        if lineage.size == 0:
            raise ValidationError("routing must contain at least one entry")
        if W_max < 1:
            raise ValidationError(f"W_max must be >= 1, got {W_max}")
        if not lineage.shape == source.shape == destination.shape == copies.shape == (lineage.size,):
            raise ValidationError("routing columns must be 1-D arrays of one length")
        if destination.min() < 0:
            raise ValidationError("routing names a negative destination worker")
        if copies.min() < 1:
            raise ValidationError("routing orders must place at least one copy")
        loads = np.bincount(destination, weights=copies)
        overloaded = {w: int(loads[w]) for w in np.flatnonzero(loads > W_max).tolist()}
        if overloaded:
            raise ValidationError(f"destination load exceeds W_max={W_max}: {overloaded}")
        for column in (lineage, source, destination, copies):
            column.flags.writeable = False
        self.lineage, self.source, self.destination, self.copies = lineage, source, destination, copies
        self.W_max = int(W_max)

    def __repr__(self) -> str:
        return f"Routing(p={self.ensemble_size}, W_max={self.W_max})"

    @property
    def ensemble_size(self) -> int:
        return int(self.copies.sum())

    def slice_table(self, worker: int | None = None) -> np.ndarray:
        """Orders (lineage_id, source, destination, first_new_id, copies) as
        an (m, 5) int32 array, the compact form sent to workers: every row,
        or the rows a worker takes part in as sender or receiver. An order's
        replicas take new ids first_new_id .. first_new_id + copies - 1."""
        first = np.cumsum(self.copies) - self.copies
        table = np.column_stack((self.lineage, self.source, self.destination,
                                 first, self.copies)).astype(np.int32)
        if worker is None:
            return table
        return table[(self.source == worker) | (self.destination == worker)]


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


def compute_routing(counts: Sequence[int], worker_of: np.ndarray, W: int) -> Routing:
    """Two-stage greedy placement of the resampled ensemble.

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
    return Routing(lin[order], worker_of[lin[order]], dest[order], k[order], w_max)


def traffic_metrics(routing: Routing) -> tuple[float, float]:
    """(move_fraction, copy_fraction) of a routing.

    A move is an order that crosses workers: its replicas travel as one
    transfer and are replicated on arrival. Copies are the replicas
    beyond the first of each order, wherever they are made.
    """
    p = routing.ensemble_size
    moves = int(np.count_nonzero(routing.destination != routing.source))
    return moves / p, (p - routing.lineage.size) / p
