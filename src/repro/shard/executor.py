"""Sharded stream execution: serial, in-process, and forked workers.

The execution model is a lockstep epoch barrier:

1. every shard executes its slice of the epoch's requests, each issuing
   at ``base + offset`` (open-loop — see :mod:`repro.shard.stream`);
2. the coordinator takes the max completion across shards;
3. on a fenced epoch every shard drains the channels it owns at that
   max, and the max drain time becomes the next epoch's base.

A single-shard run goes through the *same* state machine, merge
algebra, and payload shape, so "serial" is literally the one-shard
special case and the bit-identity claim reduces to per-DIMM
independence between fences — which the iMC model guarantees by
construction (per-channel WPQ/RPQ/bus/DIMM state, interaction only in
``fence``).  The CI ``shard-identity`` job checks the resulting
documents byte-for-byte anyway.

Forked mode runs each shard in a :class:`repro.common.supervise.Child`
(fork-preferring start method, pipe transport with stringified remote
tracebacks, a deadline on every barrier message, no process left
behind on any exit path) and retries the deterministic job with the
supervisor's exponential backoff.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import registry
from repro.common.errors import ConfigError, ReproError
from repro.common.supervise import (BACKOFF_S, Child, ChildFailure,
                                    ChildTimeout)
from repro.faults.injector import current as current_faults
from repro.flight.recorder import current as current_flight
from repro.shard import merge as shard_merge
from repro.shard import vector
from repro.shard.plan import ShardPlan
from repro.shard.stream import Epoch, ShardRequest, compile_epochs, partition
from repro.telemetry.sampler import current as current_telemetry

SHARD_SCHEMA = "repro.shard/1"

#: telemetry-timeline bucket width (completion-time bucketing)
DEFAULT_INTERVAL_PS = 1_000_000

#: per-barrier-message watchdog budget
DEFAULT_TIMEOUT_S = 120.0

#: doc keys that legitimately differ across execution variants of the
#: same stream (shard count, batch engine, process placement)
VARIANT_KEYS = ("plan", "engine", "fork")


class ShardError(ReproError):
    """Shard-plane configuration or worker failure."""


class ShardTimeoutError(ShardError):
    """A shard worker missed the watchdog deadline."""


def _mix(index: int, completion: int) -> int:
    return ((((index + 1) * shard_merge.MIX_INDEX) & shard_merge.MASK64)
            ^ ((completion * shard_merge.MIX_VALUE) & shard_merge.MASK64))


def _fence_owned(system, now: int, owned: Sequence[int]) -> int:
    """Drain the owned channels (the per-channel slice of
    ``IntegratedMemoryController.fence``, same timings, no counter)."""
    imc = system.imc
    done = now
    for i in owned:
        wpq_done = imc.wpqs[i].drain_time(now)
        if wpq_done > done:
            done = wpq_done
        flush_done = imc.dimms[i].flush(now)
        if flush_done > done:
            done = flush_done
    return done


class _ShardState:
    """One shard's system plus its result accumulators."""

    def __init__(self, system, owned: Sequence[int], epochs:
                 Sequence[Tuple[ShardRequest, ...]], level: str,
                 engine: str, interval_ps: int) -> None:
        self.system = system
        self.owned = tuple(owned)
        self.epochs = epochs
        self.level = level
        self.engine = engine
        self.interval_ps = interval_ps
        self._media_batches: Optional[List[List[tuple]]] = None
        if level == "media":
            self._media_batches = self._group_media(epochs)
        self.counts: Dict[str, int] = {"read": 0, "write": 0, "write_nt": 0}
        self.busy_ps = 0
        self.checksum = 0
        self.lat_min: Optional[int] = None
        self.lat_max: Optional[int] = None
        #: completion bucket -> [requests, busy_ps]
        self.buckets: Dict[int, List[int]] = {}

    def _group_media(self, epochs) -> List[List[tuple]]:
        """Per epoch: ``(media, indices, locals, writes, offsets, ops)``
        per DIMM, in first-touch order.  Grouped (and, for the vector
        engine, converted to int64/uint64 arrays) once at prepare time,
        so the hot loop per epoch is pure array math."""
        imc = self.system.imc
        inter = imc.interleaver
        grouped = []
        for requests in epochs:
            by_dimm: Dict[int, List[ShardRequest]] = {}
            locals_by_dimm: Dict[int, List[int]] = {}
            for req in requests:
                dimm, local = inter.map(req.addr)
                by_dimm.setdefault(dimm, []).append(req)
                locals_by_dimm.setdefault(dimm, []).append(local)
            batches = []
            for dimm, reqs in by_dimm.items():
                indices = [r.index for r in reqs]
                addrs = locals_by_dimm[dimm]
                writes = [r.op != "read" for r in reqs]
                offsets = [r.offset_ps for r in reqs]
                ops = [r.op for r in reqs]
                if self.engine == "vector":
                    np = vector.np
                    batches.append((
                        imc.dimms[dimm].media,
                        np.asarray(indices, dtype=np.uint64),
                        np.asarray(addrs, dtype=np.int64),
                        np.asarray(writes, dtype=bool),
                        np.asarray(offsets, dtype=np.int64),
                        ops))
                else:
                    batches.append((imc.dimms[dimm].media, indices, addrs,
                                    writes, offsets, ops))
            grouped.append(batches)
        return grouped

    # -- execution ----------------------------------------------------

    def execute_epoch(self, e: int, base: int) -> int:
        if self.level == "media":
            if self.engine == "vector":
                return self._execute_media_vector(e, base)
            return self._execute_media_scalar(e, base)
        return self._execute_system(e, base)

    def _note(self, index: int, op: str, issue: int, done: int) -> None:
        self.counts[op] += 1
        lat = done - issue
        self.busy_ps += lat
        if self.lat_min is None or lat < self.lat_min:
            self.lat_min = lat
        if self.lat_max is None or lat > self.lat_max:
            self.lat_max = lat
        self.checksum = (self.checksum + _mix(index, done)) \
            & shard_merge.MASK64
        row = self.buckets.get(done // self.interval_ps)
        if row is None:
            self.buckets[done // self.interval_ps] = [1, lat]
        else:
            row[0] += 1
            row[1] += lat

    def _execute_system(self, e: int, base: int) -> int:
        system = self.system
        local_max = base
        for req in self.epochs[e]:
            issue = base + req.offset_ps
            if req.op == "read":
                done = system.read(req.addr, issue)
            else:  # write / write_nt both ride the nt-store path
                done = system.write(req.addr, issue)
            self._note(req.index, req.op, issue, done)
            if done > local_max:
                local_max = done
        return local_max

    def _execute_media_scalar(self, e: int, base: int) -> int:
        local_max = base
        for media, indices, addrs, writes, offsets, ops in \
                self._media_batches[e]:
            access = media.access
            for index, addr, is_write, offset, op in \
                    zip(indices, addrs, writes, offsets, ops):
                issue = base + offset
                done = access(addr, is_write, issue)
                self._note(index, op, issue, done)
                if done > local_max:
                    local_max = done
        return local_max

    def _execute_media_vector(self, e: int, base: int) -> int:
        np = vector.np
        local_max = base
        interval = self.interval_ps
        for media, indices, addrs, writes, offsets, ops in \
                self._media_batches[e]:
            if not len(indices):
                continue
            issues = offsets + base
            completions = vector.media_access_batch(media, addrs, writes,
                                                    issues)
            lat = completions - issues
            self.busy_ps += int(np.sum(lat))
            lo, hi = int(np.min(lat)), int(np.max(lat))
            if self.lat_min is None or lo < self.lat_min:
                self.lat_min = lo
            if self.lat_max is None or hi > self.lat_max:
                self.lat_max = hi
            self.checksum = (self.checksum
                             + vector.batch_checksum(indices, completions)) \
                & shard_merge.MASK64
            for bucket, n, busy in vector.batch_timeline(completions, issues,
                                                         interval):
                row = self.buckets.get(bucket)
                if row is None:
                    self.buckets[bucket] = [n, busy]
                else:
                    row[0] += n
                    row[1] += busy
            nwrites = int(np.count_nonzero(writes))
            nnt = sum(1 for op in ops if op == "write_nt")
            self.counts["read"] += len(indices) - nwrites
            self.counts["write"] += nwrites - nnt
            self.counts["write_nt"] += nnt
            top = int(np.max(completions))
            if top > local_max:
                local_max = top
        return local_max

    def fence(self, gmax: int) -> int:
        if self.level == "media":
            # bare media has no queues to drain; the barrier max is the
            # fence time on every shard count
            return gmax
        return _fence_owned(self.system, gmax, self.owned)

    # -- result -------------------------------------------------------

    def payload(self) -> Dict[str, object]:
        timeline = shard_merge.empty_timeline(self.interval_ps)
        requests = timeline["series"]["requests"]
        busy = timeline["series"]["busy_ps"]
        for bucket in sorted(self.buckets):
            n, lat = self.buckets[bucket]
            requests[str(bucket)] = n
            busy[str(bucket)] = lat
        snapshot = shard_merge.filter_owned(
            shard_merge.canonical_snapshot(
                self.system.instrument_snapshot()), self.owned)
        return {
            "counts": dict(self.counts),
            "busy_ps": self.busy_ps,
            "checksum": self.checksum,
            "lat_min": self.lat_min,
            "lat_max": self.lat_max,
            "timeline": timeline,
            "snapshot": snapshot,
        }


def _resolve_engine(level: str, engine: str) -> str:
    if level not in ("system", "media"):
        raise ConfigError(f"unknown shard level {level!r} "
                          f"(choose 'system' or 'media')")
    if engine not in ("auto", "scalar", "vector"):
        raise ConfigError(f"unknown shard engine {engine!r} "
                          f"(choose 'auto', 'scalar', or 'vector')")
    if level == "system":
        if engine == "vector":
            raise ConfigError("the vector engine batches bare media "
                              "timing; system-level streams are scalar "
                              "(use level='media')")
        return "scalar"
    return "vector" if engine == "auto" else engine


def _refuse_recording_sessions(target: str) -> None:
    if current_flight().enabled or current_faults().enabled \
            or current_telemetry().enabled:
        raise ShardError(
            f"the shard plane runs {target!r} uninstrumented; disable the "
            f"active flight/telemetry/fault session (per-request recording "
            f"is inherently serial)")


class _Prepared:
    """A compiled, partitioned shard job; each execution builds its own
    shard systems."""

    def __init__(self, target: str, overrides: Mapping[str, object],
                 epochs: Sequence[Epoch], plan: ShardPlan, level: str,
                 engine: str, interval_ps: int,
                 substreams: Sequence[Sequence[Tuple[ShardRequest, ...]]]
                 ) -> None:
        self.target = target
        self.overrides = dict(overrides)
        self.epochs = epochs
        self.fenced = [epoch.fenced for epoch in epochs]
        self.plan = plan
        self.level = level
        self.engine = engine
        self.interval_ps = interval_ps
        self.substreams = substreams

    def build_states(self) -> List[_ShardState]:
        return [
            _ShardState(registry.build(self.target, **self.overrides),
                        self.plan.owned(shard), self.substreams[shard],
                        self.level, self.engine, self.interval_ps)
            for shard in range(self.plan.effective)]


def prepare(target: str, ops: Sequence[Mapping[str, object]], *,
            shards: Optional[int] = None,
            overrides: Optional[Mapping[str, object]] = None,
            level: str = "system", engine: str = "auto",
            interval_ps: int = DEFAULT_INTERVAL_PS) -> _Prepared:
    """Compile + partition a stream against a built target (no
    execution yet)."""
    engine = _resolve_engine(level, engine)
    _refuse_recording_sessions(target)
    overrides = dict(overrides or {})
    epochs = compile_epochs(ops)
    probe = registry.build(target, **overrides)
    imc = getattr(probe, "imc", None)
    interleaver = getattr(imc, "interleaver", None)
    if interleaver is None:
        raise ShardError(
            f"target {target!r} has no iMC interleave map; the shard plane "
            f"needs a VANS-family target (per-channel state is the unit of "
            f"isolation)")
    plan = ShardPlan.for_target(interleaver.ndimms,
                                1 if shards is None else shards)
    substreams = partition(epochs, interleaver, plan)
    return _Prepared(target, overrides, epochs, plan, level, engine,
                     interval_ps, substreams)


def execute_inprocess(prepared: _Prepared) -> Tuple[int, List[Dict]]:
    """Run every shard in this process under the lockstep barrier."""
    states = prepared.build_states()
    base = 0
    for e, is_fenced in enumerate(prepared.fenced):
        local_maxes = [state.execute_epoch(e, base) for state in states]
        gmax = max([base] + local_maxes)
        if is_fenced:
            base = max([gmax] + [state.fence(gmax) for state in states])
        else:
            base = gmax
    return base, [state.payload() for state in states]


# -- forked workers ----------------------------------------------------

def _shard_child(conn, spec: Dict[str, object]) -> None:
    """Worker entry: build the shard's system, follow the barrier
    protocol, ship the payload."""
    system = registry.build(spec["target"], **spec["overrides"])
    state = _ShardState(system, spec["owned"], spec["epochs"],
                        spec["level"], spec["engine"], spec["interval_ps"])
    for e, is_fenced in enumerate(spec["fenced"]):
        _, base = conn.recv()
        conn.send(("max", state.execute_epoch(e, base)))
        if is_fenced:
            _, gmax = conn.recv()
            conn.send(("fenced", state.fence(gmax)))
    conn.send(("result", state.payload()))


def _barrier(children: Sequence[Child], message, timeout_s: float
             ) -> List:
    """One barrier round: send ``message`` (unless ``None``) to every
    shard, then gather each shard's reply value in shard order."""
    try:
        if message is not None:
            for shard, child in enumerate(children):
                child.send(message)
        values = []
        for shard, child in enumerate(children):
            values.append(child.recv(timeout_s)[1])
        return values
    except ChildTimeout:
        raise ShardTimeoutError(
            f"shard {shard} (pid {children[shard].pid}) missed the "
            f"{timeout_s:.0f}s barrier deadline") from None
    except ChildFailure as exc:       # ChildError: the remote traceback
        raise ShardError(f"shard {shard} worker failed:\n{exc}") from None


def execute_forked(prepared: _Prepared,
                   timeout_s: float = DEFAULT_TIMEOUT_S
                   ) -> Tuple[int, List[Dict]]:
    """Run each shard in its own forked worker process."""
    children: List[Child] = []
    try:
        for shard in range(prepared.plan.effective):
            spec = {
                "target": prepared.target,
                "overrides": prepared.overrides,
                "owned": prepared.plan.owned(shard),
                "epochs": prepared.substreams[shard],
                "fenced": prepared.fenced,
                "level": prepared.level,
                "engine": prepared.engine,
                "interval_ps": prepared.interval_ps,
            }
            children.append(Child(_shard_child, spec, duplex=True))
        base = 0
        for is_fenced in prepared.fenced:
            base = max([base] + _barrier(children, ("epoch", base),
                                         timeout_s))
            if is_fenced:
                base = max([base] + _barrier(children, ("fence", base),
                                             timeout_s))
        return base, _barrier(children, None, timeout_s)
    finally:
        for child in children:
            child.stop()


def merge_payloads(prepared: _Prepared, sim_end_ps: int,
                   payloads: Sequence[Mapping[str, object]], *,
                   fork: bool, session: Optional[Mapping[str, object]] = None
                   ) -> Dict[str, object]:
    """Fold per-shard payloads into the ``repro.shard/1`` document."""
    counts = shard_merge.merge_counts([p["counts"] for p in payloads])
    counts["fence"] = sum(1 for f in prepared.fenced if f)
    total = counts["read"] + counts["write"] + counts["write_nt"]
    busy_ps = sum(p["busy_ps"] for p in payloads)
    lat_min, lat_max = shard_merge.merge_latency_bounds(
        [(p["lat_min"], p["lat_max"]) for p in payloads])
    checksum = shard_merge.merge_checksums(p["checksum"] for p in payloads)
    return {
        "schema": SHARD_SCHEMA,
        "target": prepared.target,
        "overrides": dict(prepared.overrides),
        "plan": prepared.plan.as_dict(),
        "level": prepared.level,
        "engine": prepared.engine,
        "fork": bool(fork),
        "epochs": len(prepared.epochs),
        "ops": total,
        "counts": counts,
        "sim_end_ps": sim_end_ps,
        "busy_ps": busy_ps,
        "mean_latency_ps": (busy_ps / total) if total else 0.0,
        "latency_min_ps": lat_min,
        "latency_max_ps": lat_max,
        "checksum": f"{checksum:016x}",
        "instrumentation": shard_merge.merge_snapshots(
            [p["snapshot"] for p in payloads]),
        "timeline": shard_merge.sort_timeline(shard_merge.merge_timelines(
            [p["timeline"] for p in payloads])),
        "faults": {},
        "session": dict(session or {}),
    }


def identity_view(doc: Mapping[str, object]) -> Dict[str, object]:
    """The variant-independent projection two runs of the same stream
    must agree on byte-for-byte (drops shard count / engine /
    process-placement keys — everything else is the simulation)."""
    return {key: value for key, value in doc.items()
            if key not in VARIANT_KEYS}


def run_shard_stream(target: str, ops: Sequence[Mapping[str, object]], *,
                     shards: Optional[int] = None,
                     overrides: Optional[Mapping[str, object]] = None,
                     level: str = "system", engine: str = "auto",
                     fork: Optional[bool] = None,
                     interval_ps: int = DEFAULT_INTERVAL_PS,
                     timeout_s: float = DEFAULT_TIMEOUT_S,
                     retries: int = 1,
                     session: Optional[Mapping[str, object]] = None,
                     progress=None) -> Dict[str, object]:
    """Run an open-loop stream sharded by the interleave map.

    ``shards=None`` runs one shard.
    ``fork=None`` forks workers only when more than one shard is
    effective and more than one CPU is available; ``fork=False`` runs
    every shard in-process (same numbers, no processes); ``fork=True``
    forces worker processes.  Worker failures and watchdog timeouts
    retry the whole (deterministic) job up to ``retries`` times with
    exponential backoff.

    Returns the ``repro.shard/1`` document — wall-clock free, so two
    runs of the same stream compare byte-for-byte after
    :func:`identity_view`.
    """
    if progress is not None:
        progress.phase(f"shard:{target}")
    prepared = prepare(target, ops, shards=shards, overrides=overrides,
                       level=level, engine=engine, interval_ps=interval_ps)
    if fork is None:
        fork = prepared.plan.effective > 1 and (os.cpu_count() or 1) > 1
    use_fork = bool(fork) and prepared.plan.effective > 1
    attempt = 0
    while True:
        attempt += 1
        try:
            if use_fork:
                sim_end, payloads = execute_forked(prepared, timeout_s)
            else:
                sim_end, payloads = execute_inprocess(prepared)
            break
        except ShardError:
            if not use_fork or attempt > retries:
                raise
            time.sleep(BACKOFF_S * 2 ** (attempt - 1))
    return merge_payloads(prepared, sim_end, payloads, fork=use_fork,
                          session=session)
