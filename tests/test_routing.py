"""Greedy post-resampling placement and its traffic accounting."""

import math

import numpy as np
import pytest

from pmcmc.core import ValidationError
from pmcmc.executor import worker_lineages
from pmcmc.routing import compute_routing, traffic_metrics, worker_slice


def _balanced(p, W):
    """Worker of every lineage under the executor's initial partition."""
    return np.array([w for w in range(W) for _ in worker_lineages(w, p, W)])


def _replicas(table):
    """An order table expanded to one row per replica, (lineage, source,
    destination, new id), in new id order."""
    copies = table[:, 4]
    rows = np.repeat(table[:, :4], copies, axis=0)
    rows[:, 3] += np.arange(len(rows)) - np.repeat(np.cumsum(copies) - copies, copies)
    return rows[np.argsort(rows[:, 3], kind="stable")]


def _loads(orders, W):
    return np.bincount(_replicas(orders)[:, 2], minlength=W).tolist()


class TestHandTrace:
    def test_single_survivor_four_workers(self):
        """p=8 on 4 workers, all mass on lineage 0: its host keeps two
        replicas, every other worker receives one transfer and replicates
        it once. Three distinct transfers for eight placements."""
        counts = [8, 0, 0, 0, 0, 0, 0, 0]
        orders = compute_routing(counts, _balanced(8, 4), 4)
        lineage, source, destination, _ = _replicas(orders).T
        assert _loads(orders, 4) == [2, 2, 2, 2]
        assert np.all(lineage == 0) and np.all(source == 0)
        assert int(orders[:, 4].sum()) == 8
        moved = destination != source
        cross = set(zip(lineage[moved].tolist(), destination[moved].tolist()))
        assert len(cross) == 3
        move, copy = traffic_metrics(orders)
        assert move == pytest.approx(3 / 8)
        assert copy == pytest.approx(0.5)

    def test_identity_counts_no_traffic(self):
        # every particle survives once: nothing moves, nothing is copied,
        # and identity renumbering keeps each lineage id
        counts = [1] * 8
        orders = compute_routing(counts, _balanced(8, 4), 4)
        lineage, source, destination, _ = _replicas(orders).T
        assert np.array_equal(destination, source)
        assert np.array_equal(lineage, np.arange(8))
        assert traffic_metrics(orders) == (0.0, 0.0)

    def test_single_worker_point_mass(self):
        # one worker: no moves possible, p-1 copies
        counts = [4, 0, 0, 0]
        move, copy = traffic_metrics(compute_routing(counts, _balanced(4, 1), 1))
        assert move == 0.0
        assert copy == pytest.approx(3 / 4)

    def test_replicas_can_split_across_workers(self):
        # 3 survivors of lineage 0 on a 2-worker, p=3 layout: capacity 2
        # keeps two local, the third goes to the other worker
        lineage, _, destination, _ = _replicas(compute_routing([3, 0, 0], np.array([0, 0, 1]), 2)).T
        assert sorted(destination.tolist()) == [0, 0, 1]
        assert set(lineage.tolist()) == {0}

    def test_nearest_worker_tie_goes_low(self):
        # survivor sits on worker 1 of 3 with one spare slot on 0 and 2:
        # equal distance, the tie must resolve to worker 0
        destination = _replicas(compute_routing([0, 3, 0], np.array([0, 1, 2]), 3))[:, 2]
        assert sorted(destination.tolist()) == [0, 1, 2]
        assert set(destination[destination != 1].tolist()) == {0, 2}

    def test_new_ids_follow_lineage_destination_order(self):
        counts = [2, 0, 2, 0]
        lineage, _, destination, _ = _replicas(compute_routing(counts, _balanced(4, 2), 2)).T
        keys = list(zip(lineage.tolist(), destination.tolist()))   # new id order
        assert keys == sorted(keys)

    def test_deterministic(self):
        counts = [0, 3, 1, 0, 2, 0, 1, 1]
        a = compute_routing(counts, _balanced(8, 3), 3)
        b = compute_routing(counts, _balanced(8, 3), 3)
        assert np.array_equal(a, b)


class TestLocalPriority:
    def test_resident_kept_before_routing(self):
        # worker 0 holds lineages 0,1 with counts 1,1: both stay even
        # though worker 1 has spare capacity
        counts = [1, 1, 2, 0]
        lineage, _, destination, _ = _replicas(compute_routing(counts, _balanced(4, 2), 2)).T
        assert np.all(destination[lineage <= 1] == 0)

    def test_only_overflow_leaves(self):
        # lineage 0 survives 3 times on a full worker of capacity 2:
        # exactly one replica leaves
        counts = [3, 1, 0, 0]
        lineage, _, destination, _ = _replicas(compute_routing(counts, _balanced(4, 2), 2)).T
        offsite = destination[(lineage == 0) & (destination != 0)]
        assert offsite.tolist() == [1]


class TestRoutingContainer:
    def test_slice_for(self):
        # the slice for worker 3 holds only its incoming order: lineage 0
        # from worker 0, two copies under new ids 6 and 7
        # (test_slices_partition_by_worker checks every worker's slice)
        orders = compute_routing([8, 0, 0, 0, 0, 0, 0, 0], _balanced(8, 4), 4)
        assert worker_slice(orders, 3).tolist() == [[0, 0, 3, 6, 2]]

    def test_input_validation(self):
        held = _balanced(4, 2)
        with pytest.raises(ValidationError):
            compute_routing([1, 1, 1], held, 2)                # counts do not sum to p
        with pytest.raises(ValidationError):
            compute_routing([1, 1, 1, -1], held, 2)
        with pytest.raises(ValidationError):
            compute_routing([1, 1, 1, 1], held, 0)
        with pytest.raises(ValidationError):
            compute_routing([1, 1, 1, 1], held[:3], 2)
        with pytest.raises(ValidationError):
            compute_routing([1, 1, 1, 1], np.full(4, 9), 2)
        for counts in ([1.5, 0.5], [1.0, 1.0], [True, True]):
            with pytest.raises(ValidationError, match="integers"):
                compute_routing(counts, np.array([0, 0]), 1)   # would truncate silently


class TestRandomBattery:
    def test_structural_invariants_hold_on_1000_instances(self):
        """Placement invariants over randomized ensembles: full coverage of
        new ids, per-worker load within capacity, conservation of each
        lineage's replica count, and sources named truthfully."""
        rng = np.random.default_rng(20260822)
        for trial in range(1000):
            p = int(rng.integers(1, 65))
            W = int(rng.integers(1, 17))
            workers = rng.integers(0, W, size=p)
            probs = rng.dirichlet(np.ones(p))
            counts = rng.multinomial(p, probs)
            orders = compute_routing(counts, workers, W)
            lineage, source, _, new_id = _replicas(orders).T

            assert orders.dtype == np.int32 and orders.ndim == 2 and orders.shape[1] == 5
            # orders: distinct (lineage, destination) pairs in ascending
            # order, each of at least one copy, p copies in all
            pairs = list(zip(orders[:, 0].tolist(), orders[:, 2].tolist()))
            assert pairs == sorted(set(pairs))
            assert orders[:, 4].min() >= 1 and int(orders[:, 4].sum()) == p
            assert np.array_equal(new_id, np.arange(p))
            loads = _loads(orders, W)
            assert len(loads) == W and max(loads) <= math.ceil(p / W)
            assert np.array_equal(source, workers[lineage])
            assert np.array_equal(np.bincount(lineage, minlength=p), counts)
            move, copy = traffic_metrics(orders)
            assert 0.0 <= move <= 1.0 and 0.0 <= copy <= 1.0

    def test_identity_battery_on_balanced_layouts(self):
        # survivors exactly in place on a balanced layout: the placement
        # must be a no-op regardless of (p, W)
        rng = np.random.default_rng(33)
        for _ in range(100):
            p = int(rng.integers(1, 65))
            W = int(rng.integers(1, 17))
            orders = compute_routing([1] * p, _balanced(p, W), W)
            lineage, source, destination, _ = _replicas(orders).T
            assert np.array_equal(destination, source)
            assert np.array_equal(lineage, np.arange(p))
            assert traffic_metrics(orders) == (0.0, 0.0)


def _sequential_reference(counts, source_of, W):
    """The greedy placement written out particle by particle, as the
    compute_routing docstring states it, from a lineage -> worker map in
    any order: (lineage, source, destination, new id) rows in new id
    order."""
    p = len(counts)
    w_max = math.ceil(p / W)
    remaining = [int(c) for c in counts]
    capacity = [w_max] * W
    placements = []
    for w in range(W):
        for lin in sorted(l for l, src in source_of.items() if src == w):
            k = min(remaining[lin], capacity[w])
            if k > 0:
                placements.append((lin, w, k))
                remaining[lin] -= k
                capacity[w] -= k
    for lin in range(p):
        while remaining[lin] > 0:
            src = source_of[lin]
            best = min((w for w in range(W) if capacity[w] > 0), key=lambda w: (abs(w - src), w))
            k = min(remaining[lin], capacity[best])
            placements.append((lin, best, k))
            remaining[lin] -= k
            capacity[best] -= k
    rows = [(lin, source_of[lin], dest) for lin, dest, k in sorted(placements) for _ in range(k)]
    return [(lin, src, dest, new_id) for new_id, (lin, src, dest) in enumerate(rows)]


class TestArrayPlacement:
    def test_matches_sequential_reference(self):
        """The array implementation places every replica exactly where the
        particle-by-particle greedy walk does, on skewed, point-mass and
        flat resampling counts over balanced and random layouts."""
        rng = np.random.default_rng(4711)
        for trial in range(600):
            p = int(rng.integers(1, 130))
            W = int(rng.integers(1, 17))
            if trial % 2:
                workers = rng.integers(0, W, size=p)
            else:
                workers = np.array([w for w in range(W) for _ in worker_lineages(w, p, W)])
            source_of = {int(i): int(workers[i]) for i in rng.permutation(p)}
            if trial % 3 == 0:
                counts = np.zeros(p, dtype=int)
                counts[int(rng.integers(p))] = p
            else:
                counts = rng.multinomial(p, rng.dirichlet(np.full(p, rng.choice([0.1, 1.0, 10.0]))))
            expected = _sequential_reference(counts, source_of, W)
            orders = compute_routing(counts, workers, W)
            assert [tuple(e) for e in _replicas(orders).tolist()] == expected

    def test_array_locations_validated(self):
        with pytest.raises(ValidationError):
            compute_routing([1, 1], np.array([0]), 2)          # one worker for two lineages
        with pytest.raises(ValidationError):
            compute_routing([1, 1], np.array([0, 2]), 2)       # worker 2 of 2
        with pytest.raises(ValidationError):
            compute_routing([1, 1], np.array([0.0, 1.0]), 2)   # not integers

    def test_slices_partition_by_worker(self):
        full = compute_routing([8, 0, 0, 0, 0, 0, 0, 0], _balanced(8, 4), 4)
        for w in range(4):
            table = worker_slice(full, w)
            assert table.shape[1] == 5 and table.dtype == np.int32
            assert np.array_equal(table, full[(full[:, 1] == w) | (full[:, 2] == w)])
        covered = np.unique(np.concatenate([worker_slice(full, w) for w in range(4)]), axis=0)
        assert np.array_equal(covered, full)
