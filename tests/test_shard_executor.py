"""Shard executor: lockstep barrier, forked workers, document shape.

The heavy identity property (sharded == serial over random workloads)
lives in ``test_shard_merge_properties``; here the focus is the
execution machinery — forked-worker protocol, watchdog/error paths,
engine resolution, the CLI-facing document contract, and the
``run_stream`` integration.
"""

import json

import pytest

from repro.common.errors import ConfigError
from repro.experiments.exec import run_stream
from repro.shard import shard_session
from repro.shard.executor import (
    DEFAULT_INTERVAL_PS,
    SHARD_SCHEMA,
    ShardError,
    execute_forked,
    execute_inprocess,
    identity_view,
    merge_payloads,
    prepare,
    run_shard_stream,
)
from repro.shard.stream import synthetic_stream

OVERRIDES = {"ndimms": 4, "interleaved": True}


def _ops(n=800, kind="burst", seed=0):
    return synthetic_stream(kind, n, fence_every=200, write_ratio=0.5,
                            seed=seed)


def _canon(doc):
    return json.dumps(identity_view(doc), sort_keys=True)


def test_document_shape():
    doc = run_shard_stream("vans", _ops(), shards=2, overrides=OVERRIDES,
                           fork=False)
    assert doc["schema"] == SHARD_SCHEMA
    assert doc["target"] == "vans"
    assert doc["plan"]["effective"] == 2
    assert doc["ops"] == 800
    assert doc["counts"]["fence"] == 4
    assert doc["counts"]["read"] + doc["counts"]["write"] \
        + doc["counts"]["write_nt"] == 800
    assert doc["epochs"] == 4
    assert doc["sim_end_ps"] > 0
    assert doc["busy_ps"] > 0
    assert doc["latency_min_ps"] <= doc["latency_max_ps"]
    assert int(doc["checksum"], 16) > 0
    assert doc["timeline"]["interval_ps"] == DEFAULT_INTERVAL_PS
    assert sum(doc["timeline"]["series"]["requests"].values()) == 800
    assert doc["instrumentation"]
    assert doc["fork"] is False


def test_forked_equals_inprocess():
    ops = _ops()
    inproc = run_shard_stream("vans", ops, shards=2, overrides=OVERRIDES,
                              fork=False)
    forked = run_shard_stream("vans", ops, shards=2, overrides=OVERRIDES,
                              fork=True)
    assert forked["fork"] is True
    assert _canon(forked) == _canon(inproc)


def test_media_level_engines_agree():
    ops = _ops(kind="rand")
    scalar = run_shard_stream("vans", ops, shards=2, overrides=OVERRIDES,
                              level="media", engine="scalar", fork=False)
    vector = run_shard_stream("vans", ops, shards=2, overrides=OVERRIDES,
                              level="media", engine="vector", fork=False)
    assert scalar["engine"] == "scalar" and vector["engine"] == "vector"
    assert _canon(scalar) == _canon(vector)


def test_single_shard_forces_inprocess():
    doc = run_shard_stream("vans", _ops(200), shards=1,
                           overrides=OVERRIDES, fork=True)
    assert doc["fork"] is False  # nothing to parallelize


def test_identity_view_drops_variant_keys():
    doc = run_shard_stream("vans", _ops(200), shards=2,
                           overrides=OVERRIDES, fork=False)
    view = identity_view(doc)
    for key in ("plan", "engine", "fork"):
        assert key in doc and key not in view


def test_execute_primitives_match_run():
    ops = _ops(400)
    prepared = prepare("vans", ops, shards=2, overrides=OVERRIDES)
    sim_end, payloads = execute_inprocess(prepared)
    doc = merge_payloads(prepared, sim_end, payloads, fork=False)
    assert _canon(doc) == _canon(
        run_shard_stream("vans", ops, shards=2, overrides=OVERRIDES,
                         fork=False))
    sim_end_f, payloads_f = execute_forked(prepared)
    assert sim_end_f == sim_end
    doc_f = merge_payloads(prepared, sim_end_f, payloads_f, fork=True)
    assert _canon(doc_f) == _canon(doc)


def test_prepared_reset_supports_re_execution():
    prepared = prepare("vans", _ops(300), shards=2, overrides=OVERRIDES)
    first = execute_inprocess(prepared)
    prepared.reset()
    second = execute_inprocess(prepared)
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_system_level_rejects_vector_engine():
    with pytest.raises(ConfigError, match="scalar"):
        prepare("vans", _ops(100), shards=2, overrides=OVERRIDES,
                level="system", engine="vector")


def test_unknown_level_and_engine_rejected():
    with pytest.raises(ConfigError, match="unknown shard level"):
        prepare("vans", _ops(100), level="dimm")
    with pytest.raises(ConfigError, match="unknown shard engine"):
        prepare("vans", _ops(100), engine="simd")


def test_targets_without_imc_rejected():
    with pytest.raises(ShardError, match="interleave map"):
        prepare("pmep", _ops(100))


def test_chained_ops_rejected_with_pointer():
    with pytest.raises(ValueError, match="chained-plane"):
        prepare("vans", [{"op": "store", "addr": 0}])


def test_worker_failure_surfaces_with_traceback():
    prepared = prepare("vans", _ops(100), shards=2, overrides=OVERRIDES)
    prepared.overrides["wpq_entries"] = "garbage"  # poison the rebuild
    with pytest.raises(ShardError, match="worker failed"):
        execute_forked(prepared, timeout_s=30.0)


# -- run_stream integration -------------------------------------------------

def test_run_stream_open_loop_routes_to_shard_plane():
    ops = [{"op": "read", "addr": 0, "count": 256, "stride": 64},
           {"op": "fence"}]
    doc = run_stream("vans", ops, issue="open", shards=2)
    assert doc["schema"] == SHARD_SCHEMA
    assert doc["ops"] == 256
    serial = run_stream("vans", ops, issue="open", shards=1)
    assert _canon(doc) == _canon(serial)


def test_run_stream_shards_imply_open_loop_validation():
    ops = [{"op": "read", "count": 16}]
    with pytest.raises(ValueError, match="open"):
        run_stream("vans", ops, issue="chained", shards=2)
    with pytest.raises(ValueError, match="unknown issue"):
        run_stream("vans", ops, issue="loopy")


def test_run_stream_shard_plane_refuses_faults():
    ops = [{"op": "read", "count": 16}, {"op": "fence"}]
    from repro.faults.plan import FaultPlan
    with pytest.raises(ValueError, match="uninstrumented"):
        run_stream("vans", ops, issue="open", shards=2,
                   faults=FaultPlan(specs=(), seed=1))


def test_shard_session_default_reaches_run_stream():
    ops = [{"op": "read", "addr": 0, "count": 128, "stride": 64},
           {"op": "fence"}]
    with shard_session(2):
        doc = run_stream("vans", ops, issue="open",
                         overrides=dict(OVERRIDES))
    assert doc["schema"] == SHARD_SCHEMA
    assert doc["plan"]["requested"] == 2
    # chained streams ignore the session default entirely
    chained = run_stream("vans", [{"op": "read", "count": 8}])
    assert "plan" not in chained
