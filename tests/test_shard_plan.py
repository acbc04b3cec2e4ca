"""DIMM → shard assignment: balance, contiguity, validation."""

import pytest

from repro.common.errors import ConfigError
from repro.shard import validate_shards
from repro.shard.plan import ShardPlan


def test_balanced_contiguous_blocks():
    plan = ShardPlan.for_target(ndimms=6, shards=4)
    assert plan.effective == 4
    widths = [len(plan.owned(s)) for s in range(plan.effective)]
    assert widths == [2, 2, 1, 1]
    # contiguous: each shard's DIMMs form a run
    for shard in range(plan.effective):
        owned = plan.owned(shard)
        assert list(owned) == list(range(owned[0], owned[0] + len(owned)))


def test_every_dimm_owned_exactly_once():
    for ndimms in range(1, 9):
        for shards in range(1, 9):
            plan = ShardPlan.for_target(ndimms, shards)
            seen = [d for s in range(plan.effective) for d in plan.owned(s)]
            assert sorted(seen) == list(range(ndimms))
            for dimm in range(ndimms):
                assert dimm in plan.owned(plan.shard_of(dimm))


def test_effective_clamped_to_dimm_population():
    plan = ShardPlan.for_target(ndimms=2, shards=8)
    assert plan.requested == 8
    assert plan.effective == 2


def test_as_dict_round_trip():
    plan = ShardPlan.for_target(ndimms=4, shards=2)
    doc = plan.as_dict()
    assert doc == {"ndimms": 4, "requested": 2, "effective": 2,
                   "assignment": [0, 0, 1, 1]}


def test_validate_shards_rejects_junk():
    with pytest.raises(ConfigError):
        validate_shards(0)
    with pytest.raises(ConfigError):
        validate_shards(-3)
    with pytest.raises(ConfigError):
        validate_shards("many")
    with pytest.raises(ConfigError):
        validate_shards(None)
    assert validate_shards("4") == 4


def test_bad_ndimms_rejected():
    with pytest.raises(ConfigError):
        ShardPlan.for_target(ndimms=0, shards=2)
