"""One session stack for every null-object hook.

The flight recorder, telemetry sampler, fault injector, progress
reporter and host profiler each install a live hook for the duration
of a ``with`` block; :func:`repro.registry.build` reads the innermost
one through the module's ``current()`` and falls back to the hook's
zero-cost null object when no session is open.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional


class SessionStack:
    """Innermost-wins stack of live hooks over a null default.

    ``on_exit`` (when given) is called with the hook as its session
    closes: the telemetry sampler and progress reporter finalize there,
    the profiler strips its wrappers.
    """

    def __init__(self, null: Any,
                 on_exit: Optional[Callable[[Any], None]] = None) -> None:
        self.null = null
        self._on_exit = on_exit
        self._active: List[Any] = []

    def current(self) -> Any:
        """The innermost active hook, or the null object."""
        return self._active[-1] if self._active else self.null

    @contextmanager
    def session(self, hook: Any) -> Iterator[Any]:
        """Make ``hook`` current for the block; ``None`` is a no-op
        context that yields the null object."""
        if hook is None:
            yield self.null
            return
        self._active.append(hook)
        try:
            yield hook
        finally:
            self._active.remove(hook)
            if self._on_exit is not None:
                self._on_exit(hook)
