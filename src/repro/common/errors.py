"""Exception hierarchy for the repro package."""


def _suggest(name, known):
    """``"; did you mean 'x'?"`` (or ``'x' or 'y'``) for a typo'd name."""
    import difflib  # only an error message pays for it
    matches = difflib.get_close_matches(name, known, n=2, cutoff=0.5)
    if not matches:
        return ""
    if len(matches) == 1:
        return f"; did you mean {matches[0]!r}?"
    return f"; did you mean {matches[0]!r} or {matches[1]!r}?"


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value."""


class ProtocolError(ReproError):
    """A device violated a bus/DIMM protocol rule.

    Raised by the DDR4 protocol checker when a command stream breaks a
    timing or state constraint, mirroring the role of Micron's Verilog
    verification model in the paper.
    """


class SimulationError(ReproError):
    """The simulation reached an impossible or deadlocked state."""


class FaultPlanError(ReproError):
    """A fault-injection plan document is malformed or inconsistent.

    Raised when a ``repro.faultplan/1`` document fails validation or a
    :class:`~repro.faults.plan.FaultSpec` is constructed with
    contradictory trigger/parameter combinations.
    """


class UnknownTargetError(ReproError):
    """A target-system name not present in the target registry.

    Carries the unknown name and the sorted list of known names so
    callers (library users and CLIs alike) can render a helpful message;
    CLIs translate this to exit code 2.
    """

    def __init__(self, name: str, known=()):
        self.name = name
        self.known = sorted(known)
        choices = ", ".join(self.known) or "(none registered)"
        super().__init__(f"unknown target {name!r}"
                         f"{_suggest(name, self.known)}"
                         f"; choose from: {choices}")


class UnknownExperimentError(ReproError):
    """An experiment id not present in the experiment registry."""

    def __init__(self, name: str, known=()):
        self.name = name
        self.known = sorted(known)
        choices = ", ".join(self.known) or "(none registered)"
        super().__init__(f"unknown experiment {name!r}"
                         f"{_suggest(name, self.known)}"
                         f"; known experiments: {choices}")


class UnknownOverrideError(ReproError):
    """``registry.build`` was passed an override kwarg the target's
    builder does not accept.

    A typo like ``lazy_cahe=True`` must fail loudly instead of silently
    building the default configuration; the error names the bad key and
    the valid override set (with a closest-match suggestion).
    """

    def __init__(self, target: str, key: str, allowed=()):
        self.target = target
        self.key = key
        self.allowed = sorted(allowed)
        choices = ", ".join(self.allowed) or "(none)"
        super().__init__(f"unknown override {key!r} for target "
                         f"{target!r}{_suggest(key, self.allowed)}"
                         f"; valid overrides: {choices}")


class QuotaExceededError(ReproError):
    """A serve-session submission exceeded its tenant's quota.

    The session scheduler raises this for backpressure (bounded per-tenant
    queues) and quota enforcement; the wire protocol maps it to a
    429-style ``{"error": {"code": 429}}`` rejection.
    """

    #: HTTP-flavoured status code carried on the wire
    code = 429

    def __init__(self, tenant: str, reason: str):
        self.tenant = tenant
        self.reason = reason
        super().__init__(f"tenant {tenant!r} over quota: {reason}")
