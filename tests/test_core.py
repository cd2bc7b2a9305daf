"""Seed hierarchy, parameter containers, observation series, error types."""

import math
import pickle

import numpy as np
import pytest

from pmcmc.core import (
    MODEL_STREAM,
    PROPOSAL_STREAM,
    RESAMPLE_STREAM,
    SYNTH_STREAM,
    DegenerateEnsembleError,
    EngineError,
    ObservationSeries,
    Parameters,
    ProtocolError,
    SeedKey,
    SerializationError,
    ValidationError,
    derive_seed,
    derive_seeds,
    make_stream,
    philox_state,
    rekey,
)


class TestSeedHierarchy:
    def test_deterministic(self):
        key = SeedKey(3, 141, 5, 926, 1)
        assert derive_seed(key) == derive_seed(SeedKey(3, 141, 5, 926, 1))

    def test_distinct_across_each_field(self):
        base = SeedKey(1, 2, 3, 4, 0)
        variants = [
            SeedKey(9, 2, 3, 4, 0),
            SeedKey(1, 9, 3, 4, 0),
            SeedKey(1, 2, 9, 4, 0),
            SeedKey(1, 2, 3, 9, 0),
            SeedKey(1, 2, 3, 4, 1),
        ]
        seeds = {derive_seed(k) for k in [base, *variants]}
        assert len(seeds) == 6

    def test_64_bit_range(self):
        for key in (SeedKey(0, 0, 0, 0, 0), SeedKey(2**63, 2**31, 10**6, 10**6, 3)):
            s = derive_seed(key)
            assert 0 <= s < 2**64

    def test_field_order_matters(self):
        # swapping sample and lineage must land in a different stream
        assert derive_seed(SeedKey(0, 5, 0, 7, 0)) != derive_seed(SeedKey(0, 7, 0, 5, 0))

    def test_collision_battery(self):
        """One million structured keys, zero collisions."""
        rng = np.random.default_rng(8842)
        chains = rng.integers(0, 2**32, size=1_000_000)
        samples = rng.integers(0, 10_000, size=1_000_000)
        observations = rng.integers(0, 30, size=1_000_000)
        lineages = rng.integers(0, 4096, size=1_000_000)
        replicas = rng.integers(0, 4, size=1_000_000)
        keys = set(zip(chains.tolist(), samples.tolist(), observations.tolist(),
                       lineages.tolist(), replicas.tolist()))
        seeds = {derive_seed(SeedKey(*k)) for k in keys}
        assert len(seeds) == len(keys)

    def test_dense_local_block_distinct(self):
        # the collision-prone region: neighboring lineages and observations
        seeds = {
            derive_seed(SeedKey(0, s, j, i, r))
            for s in range(4) for j in range(6) for i in range(64) for r in range(4)
        }
        assert len(seeds) == 4 * 6 * 64 * 4

    def test_stream_constants_distinct(self):
        assert len({MODEL_STREAM, RESAMPLE_STREAM, PROPOSAL_STREAM, SYNTH_STREAM}) == 4

    def test_validation(self):
        with pytest.raises(ValidationError):
            SeedKey(-1, 0, 0, 0, 0)
        with pytest.raises(ValidationError):
            SeedKey(0, 0, 0, -3, 0)
        with pytest.raises(ValidationError):
            SeedKey(0, 0.5, 0, 0, 0)

    def test_philox_state_matches_construction(self):
        for seed in (0, 1, 2**64 - 1, 123456789):
            expected = np.random.Philox(key=seed).state
            built = philox_state(seed)
            assert built["bit_generator"] == expected["bit_generator"]
            np.testing.assert_array_equal(built["state"]["counter"], expected["state"]["counter"])
            np.testing.assert_array_equal(built["state"]["key"], expected["state"]["key"])
            assert built["buffer_pos"] == expected["buffer_pos"]

    def test_make_stream_equals_keyed_construction(self):
        """Built from the fixed seed sequence and rekeyed, a stream has the
        state and the draws of ``Philox(key=seed)``."""
        for seed in (0, 1, 2**63, 2**64 - 1):
            built = make_stream(seed)
            keyed = np.random.Generator(np.random.Philox(key=seed))
            a, b = built.bit_generator.state, keyed.bit_generator.state
            assert a.keys() == b.keys() and a["state"].keys() == b["state"].keys()
            for name in ("counter", "key"):
                np.testing.assert_array_equal(a["state"][name], b["state"][name])
                assert a["state"][name].dtype == b["state"][name].dtype
            np.testing.assert_array_equal(a["buffer"], b["buffer"])
            assert [a[k] for k in ("bit_generator", "buffer_pos", "has_uint32", "uinteger")] == \
                [b[k] for k in ("bit_generator", "buffer_pos", "has_uint32", "uinteger")]
            assert built.random(8).tolist() == keyed.random(8).tolist()
            assert built.integers(0, 2**32, 5).tolist() == keyed.integers(0, 2**32, 5).tolist()

    def test_state_assignment_equals_fresh_stream(self):
        g1 = make_stream(987654321)
        g2 = make_stream(0)
        g2.bit_generator.state = philox_state(987654321)
        assert g1.random(8).tolist() == g2.random(8).tolist()

    def test_rekey_equals_fresh_stream(self):
        g1 = make_stream(987654321)
        g2 = make_stream(0)
        g2.random(3)
        rekey(g2, 987654321)
        other = make_stream(0)
        rekey(other, 5)             # a later rekey leaves g2's stream alone
        assert g1.random(8).tolist() == g2.random(8).tolist()


class TestBlockSeeds:
    """derive_seeds is a vectorised restatement of derive_seed and must
    agree with it bit for bit."""

    PREFIXES = [(0, 0, 0), (3, 141, 5), (7, 199, 10), (2**63, 2**63, 2**63), (2**64 + 9, 2**40, 1)]

    def test_whole_lineage_blocks_match_every_stream(self):
        streams = range(MODEL_STREAM, SYNTH_STREAM + 1)
        for chain, sample, observation in self.PREFIXES:
            for replica in streams:
                for p in (1, 2, 37, 1000):
                    expected = [derive_seed(SeedKey(chain, sample, observation, lineage, replica))
                                for lineage in range(p)]
                    assert derive_seeds(chain, sample, observation, np.arange(p), replica) == expected
                    assert derive_seeds(chain, sample, observation, range(p), replica) == expected

    def test_large_and_unordered_lineage_ids(self):
        lineages = [2**63, 5, 2**64 - 1, 0, 2**63 - 1, 5]
        for replica in (MODEL_STREAM, RESAMPLE_STREAM, PROPOSAL_STREAM, SYNTH_STREAM):
            expected = [derive_seed(SeedKey(2**63, 1, 2**63, lineage, replica)) for lineage in lineages]
            assert derive_seeds(2**63, 1, 2**63, lineages, replica) == expected
            assert derive_seeds(2**63, 1, 2**63, np.array(lineages, dtype=np.uint64), replica) == expected

    def test_empty_block(self):
        assert derive_seeds(0, 0, 0, []) == []
        assert derive_seeds(0, 0, 0, np.arange(0)) == []

    def test_validation(self):
        for bad in ([-1], [0.5], [2**64], np.array([-1]), np.array([0.5]), np.zeros((2, 2), dtype=int)):
            with pytest.raises(ValidationError):
                derive_seeds(0, 0, 0, bad)
        with pytest.raises(ValidationError):
            derive_seeds(-1, 0, 0, [0])
        with pytest.raises(ValidationError):
            derive_seeds(0, 0, 0, [0], replica_index=-1)


class TestParameters:
    def test_mapping_semantics(self):
        theta = Parameters({"a": 0.9, "b": 2.0})
        assert theta["a"] == 0.9 and len(theta) == 2
        assert list(theta) == ["a", "b"]
        assert theta.names == ("a", "b") and theta.values == (0.9, 2.0)

    def test_declaration_order_preserved(self):
        theta = Parameters([("z", 1.0), ("a", 2.0)])
        assert theta.names == ("z", "a")

    def test_immutable(self):
        theta = Parameters({"a": 1.0})
        with pytest.raises(AttributeError):
            theta._values = (2.0,)
        with pytest.raises(TypeError):
            theta["a"] = 2.0

    def test_replace(self):
        theta = Parameters({"a": 1.0, "b": 2.0})
        theta2 = theta.replace(b=5.0)
        assert theta2["b"] == 5.0 and theta["b"] == 2.0
        with pytest.raises(ValidationError):
            theta.replace(zzz=1.0)

    def test_duplicate_and_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            Parameters([("a", 1.0), ("a", 2.0)])
        with pytest.raises(ValidationError):
            Parameters({"a": math.inf})
        with pytest.raises(ValidationError):
            Parameters({"a": math.nan})

    def test_equality_and_hash(self):
        assert Parameters({"a": 1.0}) == Parameters({"a": 1.0})
        assert Parameters({"a": 1.0}) != Parameters({"a": 2.0})
        assert hash(Parameters({"a": 1.0})) == hash(Parameters({"a": 1.0}))

    def test_pickle_round_trip(self):
        theta = Parameters({"a": 0.5, "K": 24.75})
        assert pickle.loads(pickle.dumps(theta)) == theta


class TestObservationSeries:
    def test_shape_and_iteration(self):
        series = ObservationSeries([1, 5], [{"y": 0.1}, {"y": 0.2}])
        assert len(series) == 2
        pairs = list(series)
        assert pairs[0] == (1, {"y": 0.1}) and pairs[1][0] == 5

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ObservationSeries([], [])

    def test_non_increasing_rejected(self):
        with pytest.raises(ValidationError):
            ObservationSeries([5, 5], [{}, {}])
        with pytest.raises(ValidationError):
            ObservationSeries([5, 3], [{}, {}])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ObservationSeries([1, 2], [{}])

    def test_non_finite_times_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="finite"):
                ObservationSeries([1.0, bad], [{}, {}])
            with pytest.raises(ValidationError, match="finite"):
                ObservationSeries([bad], [{}])
        with pytest.raises(ValidationError, match="finite"):
            ObservationSeries(["1"], [{}])


class TestErrors:
    def test_hierarchy(self):
        for cls in (ValidationError, DegenerateEnsembleError, ProtocolError, SerializationError):
            assert issubclass(cls, EngineError)

    def test_protocol_error_context(self):
        err = ProtocolError("boom", rank=3, step="10(d)/receive[2]")
        assert err.rank == 3 and err.step == "10(d)/receive[2]"
        assert "boom" in str(err)
