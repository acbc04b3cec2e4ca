"""Line protocol for ``repro-serve``: one JSON object per line.

Both directions speak newline-delimited JSON (ASCII, one message per
line) over a plain TCP stream, so a session is debuggable with
``nc``/``telnet`` and any language with a JSON parser is a client.

Client -> server message types:

``hello``
    ``{"type": "hello", "tenant": "team-a"}`` — opens the session.
    Reply: ``welcome`` carrying the assigned session id, the protocol
    version, and the daemon's scheduling limits.
``run``
    ``{"type": "run", "id": 1, "experiment": "fig1", "scale": "smoke",
    "seed": 42, "flight": {...}?, "telemetry": {...}?, "faults":
    {...}?}`` — submit a named experiment (``flight`` is a
    :class:`~repro.flight.recorder.FlightRecorder` kwargs spec, e.g.
    ``{"mode": "every", "every": 8}``).  Reply: ``accepted`` immediately, then a pushed
    ``result`` (or ``error``) carrying the serialized
    :class:`~repro.experiments.common.ExperimentResult` list and a run
    manifest stamped with the session identity; a tenant over quota
    gets ``rejected`` with ``code`` 429 instead.
``stream``
    ``{"type": "stream", "id": 2, "target": "vans", "overrides": {...},
    "ops": [{"op": "read", "addr": 0, "count": 64, "stride": 64},
    ...], "faults": {...}?}`` — drive a registry target with a raw
    request stream (see :func:`repro.experiments.exec.run_stream`).
    The optional ``faults`` field is a ``repro.faultplan/1`` plan
    document; the stream result then carries the fault report with
    its persistence audit (the litmus thin-client path).
``ping`` / ``stats`` / ``experiments`` / ``targets``
    Introspection; answered inline by the daemon.
``bye``
    Graceful close; reply ``goodbye``.

Both submit messages may also carry ``progress`` (``true`` or a dict of
reporter knobs) to stream live progress frames.  A ``run`` or
``stream`` message with any field outside :data:`SUBMIT_FIELDS` is
rejected with code 2, never run with the field ignored.

Error replies carry ``code``: 2 for usage errors (unknown
experiment/target/override — message includes closest-match
suggestions), 429 for quota/backpressure rejection, 1 for internal
failures (remote traceback attached).
"""

from __future__ import annotations

import json
from typing import Any, Dict, FrozenSet

from repro.common.errors import ReproError

#: protocol version string, echoed in every ``welcome``
PROTOCOL = "repro.serve/1"

#: the fields each submit message type may carry
SUBMIT_FIELDS: Dict[str, FrozenSet[str]] = {
    "run": frozenset({"type", "id", "experiment", "scale", "seed",
                      "flight", "telemetry", "faults", "progress"}),
    "stream": frozenset({"type", "id", "target", "overrides", "ops",
                         "faults", "progress"}),
}

#: bound on one encoded message line (a smoke-scale result document is
#: tens of KiB; this is sanity, not a budget)
MAX_LINE_BYTES = 32 * 1024 * 1024


class MessageFormatError(ReproError):
    """A malformed or oversized protocol message."""


def encode(message: Dict[str, Any]) -> bytes:
    """One message -> one ASCII JSON line (newline-terminated)."""
    line = json.dumps(message, sort_keys=True, separators=(",", ":"),
                      default=str, ensure_ascii=True)
    return line.encode("ascii") + b"\n"


def decode(line: bytes) -> Dict[str, Any]:
    """One received line -> message dict; raises :class:`MessageFormatError`
    for anything that is not a JSON object."""
    if len(line) > MAX_LINE_BYTES:
        raise MessageFormatError(f"message exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line.decode("utf-8", errors="replace"))
    except json.JSONDecodeError as exc:
        raise MessageFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise MessageFormatError(
            f"expected a JSON object, got {type(message).__name__}")
    return message


def error_message(code: int, error: str,
                  request_id: Any = None) -> Dict[str, Any]:
    """Standard error reply shape."""
    message: Dict[str, Any] = {"type": "error", "code": code,
                               "error": error}
    if request_id is not None:
        message["id"] = request_id
    return message
