"""Wall-clock self/cumulative-time profiler core.

The profiler keeps an explicit frame stack.  ``push(key)`` opens a
frame and ``pop(frame)`` closes it, folding the elapsed wall time into
a per-key aggregate (call count, self time, cumulative time) and a
per-stack-path aggregate (for flamegraph exports).  Self time is
elapsed minus the time spent in child frames; cumulative time is
recursion-safe (a key already open further up the stack does not
double-count).

Two attachment surfaces exist:

* :meth:`Profiler.instrument` wraps the methods a target system names
  in its ``profile_points()`` protocol.  Wrapping happens *instance*-
  side over the class methods every run executes, so timings stay
  representative of unprofiled runs; uninstrumenting deletes the
  wrappers and the class methods show through again.
* ``engine.profiler = prof`` routes the event engine through its
  profiled dispatch replica, attributing each callback by qualname.

Sessions use the shared :class:`~repro.common.session.SessionStack`:
``session(prof)`` makes the profiler visible to ``registry.build()``
via :func:`current`, and uninstruments everything on exit.  The schema
of the exported profile document is ``repro.prof/1``.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import methodcaller
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.common.session import SessionStack

PROFILE_SCHEMA = "repro.prof/1"


class NullProfiler:
    """Zero-cost stand-in bound at class level on every target."""

    __slots__ = ()
    enabled = False

    def push(self, key: str) -> None:
        return None

    def pop(self, frame: Any) -> None:
        pass

    @contextmanager
    def frame(self, key: str) -> Iterator[None]:
        yield

    def wrap(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        return fn

    def instrument(self, system: Any) -> None:
        pass

    def uninstrument_all(self) -> None:
        pass


NULL_PROF = NullProfiler()


class Profiler:
    """Aggregating wall-clock profiler (see module docstring)."""

    enabled = True

    def __init__(self) -> None:
        # frame: [key, start_ns, child_ns, path_tuple]
        self._stack: List[list] = []
        #: key -> [calls, self_ns, cum_ns]
        self._frames: Dict[str, List[int]] = {}
        #: stack path tuple -> [calls, self_ns]
        self._paths: Dict[Tuple[str, ...], List[int]] = {}
        #: (owner, method name, installed wrapper) records for removal
        self._wrapped: List[Tuple[Any, str, Any]] = []
        self._systems: List[Any] = []
        self._engines: List[Any] = []

    # ------------------------------------------------------------------
    # hot path
    # ------------------------------------------------------------------

    def push(self, key: str) -> list:
        stack = self._stack
        path = stack[-1][3] + (key,) if stack else (key,)
        frame = [key, perf_counter_ns(), 0, path]
        stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        end = perf_counter_ns()
        stack = self._stack
        stack.pop()
        key = frame[0]
        elapsed = end - frame[1]
        self_ns = elapsed - frame[2]
        if self_ns < 0:
            self_ns = 0
        agg = self._frames.get(key)
        if agg is None:
            agg = self._frames[key] = [0, 0, 0]
        agg[0] += 1
        agg[1] += self_ns
        # recursion guard: cumulative counts only the outermost frame
        # of a key (stacks here are shallow, a linear scan is cheap)
        recursive = False
        for outer in stack:
            if outer[0] == key:
                recursive = True
                break
        if not recursive:
            agg[2] += elapsed
        if stack:
            stack[-1][2] += elapsed
        path = frame[3]
        pagg = self._paths.get(path)
        if pagg is None:
            pagg = self._paths[path] = [0, 0]
        pagg[0] += 1
        pagg[1] += self_ns

    @contextmanager
    def frame(self, key: str) -> Iterator[None]:
        entry = self.push(key)
        try:
            yield
        finally:
            self.pop(entry)

    def wrap(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        push = self.push
        pop = self.pop

        def profiled(*args: Any, **kwargs: Any) -> Any:
            frame = push(key)
            try:
                return fn(*args, **kwargs)
            finally:
                pop(frame)

        profiled.__repro_prof__ = True
        profiled.__repro_prof_key__ = key
        profiled.__wrapped__ = fn
        return profiled

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------

    def instrument(self, system: Any) -> None:
        """Wrap every attribution point a system advertises.

        Wrapping is instance-side over the class method; objects
        without a ``__dict__`` (slotted stations) are skipped — their
        time lands in the owning component's key.
        """
        points = getattr(system, "profile_points", None)
        if points is None:
            return
        for key, obj, name in points():
            d = getattr(obj, "__dict__", None)
            if d is None:
                continue
            if getattr(d.get(name), "__repro_prof__", False):
                continue  # already wrapped (warm-cache reuse)
            bound = getattr(obj, name, None)
            if bound is None:
                continue
            wrapper = self.wrap(key, bound)
            d[name] = wrapper
            self._wrapped.append((obj, name, wrapper))
        d = getattr(system, "__dict__", None)
        if d is not None:
            d["prof"] = self
            d["_prof_wrapped"] = True
            self._systems.append(system)

    def attach_engine(self, engine: Any) -> None:
        """Route an event engine through its profiled dispatch."""
        engine.profiler = self
        self._engines.append(engine)

    def uninstrument_all(self) -> None:
        """Delete every wrapper this profiler installed.

        Only bindings still pointing at our wrapper are touched, so a
        system released mid-session (which :func:`uninstrument` already
        stripped) or rewrapped by someone else is left alone.
        """
        for obj, name, wrapper in self._wrapped:
            d = getattr(obj, "__dict__", None)
            if d is not None and d.get(name) is wrapper:
                del d[name]
        self._wrapped.clear()
        for system in self._systems:
            d = getattr(system, "__dict__", None)
            if d is not None and d.get("prof") is self:
                d.pop("prof", None)
                d.pop("_prof_wrapped", None)
        self._systems.clear()
        for engine in self._engines:
            if getattr(engine, "profiler", None) is self:
                engine.profiler = None
        self._engines.clear()

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    @property
    def total_self_ns(self) -> int:
        return sum(agg[1] for agg in self._frames.values())

    def to_dict(self, wall_ns: Optional[int] = None,
                meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Deterministic ``repro.prof/1`` profile document."""
        frames = {
            key: {"calls": agg[0], "self_ns": agg[1], "cum_ns": agg[2]}
            for key, agg in sorted(self._frames.items())
        }
        stacks = [
            {"stack": list(path), "calls": agg[0], "self_ns": agg[1]}
            for path, agg in sorted(self._paths.items())
        ]
        return {
            "schema": PROFILE_SCHEMA,
            "meta": dict(sorted((meta or {}).items())),
            "wall_ns": wall_ns,
            "total_self_ns": self.total_self_ns,
            "frames": frames,
            "stacks": stacks,
        }


def validate_profile(doc: Any) -> List[str]:
    """Structural check of a profile document; returns problem strings."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["profile document is not an object"]
    if doc.get("schema") != PROFILE_SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, "
                        f"expected {PROFILE_SCHEMA!r}")
    frames = doc.get("frames")
    if not isinstance(frames, dict):
        problems.append("frames is not an object")
        frames = {}
    for key, entry in frames.items():
        if not isinstance(entry, dict):
            problems.append(f"frame {key!r} is not an object")
            continue
        for field in ("calls", "self_ns", "cum_ns"):
            if not isinstance(entry.get(field), int):
                problems.append(f"frame {key!r}.{field} is not an int")
    stacks = doc.get("stacks")
    if not isinstance(stacks, list):
        problems.append("stacks is not a list")
        stacks = []
    for i, entry in enumerate(stacks):
        if (not isinstance(entry, dict)
                or not isinstance(entry.get("stack"), list)
                or not all(isinstance(k, str) for k in entry["stack"])
                or not isinstance(entry.get("calls"), int)
                or not isinstance(entry.get("self_ns"), int)):
            problems.append(f"stacks[{i}] is malformed")
    wall = doc.get("wall_ns")
    if wall is not None and not isinstance(wall, int):
        problems.append("wall_ns is neither null nor an int")
    if not isinstance(doc.get("total_self_ns"), int):
        problems.append("total_self_ns is not an int")
    return problems


def profile_from_dict(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Validate and canonicalize a profile document (sorted keys/stacks).

    Canonical documents round-trip exactly:
    ``profile_from_dict(json.loads(json.dumps(doc))) == doc``.
    """
    problems = validate_profile(doc)
    if problems:
        raise ValueError("invalid profile document: "
                         + "; ".join(problems))
    return {
        "schema": PROFILE_SCHEMA,
        "meta": dict(sorted(doc.get("meta", {}).items())),
        "wall_ns": doc.get("wall_ns"),
        "total_self_ns": doc["total_self_ns"],
        "frames": {
            key: {"calls": e["calls"], "self_ns": e["self_ns"],
                  "cum_ns": e["cum_ns"]}
            for key, e in sorted(doc["frames"].items())
        },
        "stacks": sorted(
            ({"stack": list(e["stack"]), "calls": e["calls"],
              "self_ns": e["self_ns"]} for e in doc["stacks"]),
            key=lambda e: e["stack"]),
    }


def uninstrument(system: Any) -> None:
    """Strip any profiler wrappers from a system's attribution points.

    Used by the registry when a system is released back to the warm
    cache, so a parked system never leaks profiling into a later
    session.  Safe to call on systems that were never instrumented.
    """
    d = getattr(system, "__dict__", None)
    if d is None or "_prof_wrapped" not in d:
        return
    points = getattr(system, "profile_points", None)
    if points is not None:
        for _key, obj, name in points():
            od = getattr(obj, "__dict__", None)
            if od is not None and getattr(od.get(name), "__repro_prof__",
                                          False):
                del od[name]
    d.pop("prof", None)
    d.pop("_prof_wrapped", None)


# ----------------------------------------------------------------------
# session plumbing: ``session(prof)`` makes the profiler current for the
# block (``None`` keeps NULL_PROF current) and uninstruments on exit
# ----------------------------------------------------------------------

_SESSIONS = SessionStack(NULL_PROF,
                         on_exit=methodcaller("uninstrument_all"))
current = _SESSIONS.current
session = _SESSIONS.session
