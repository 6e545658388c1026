"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration was supplied."""


class CheckpointError(ConfigError):
    """Checkpoint state that does not restore: a missing key, a list of the
    wrong length or a value of a type its codec rejects.  ``path`` locates
    it innermost part first; the message names it outermost first
    (``controller.banks[15].open_row``)."""

    def __init__(self, reason: str, path: list | None = None):
        self.reason, self.path = reason, [] if path is None else path
        super().__init__(reason, self.path)  # both args survive pickling

    def __str__(self) -> str:
        where = "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in reversed(self.path)
        )
        return f"checkpoint state {where.lstrip('.') or '(root)'}: {self.reason}"


class AddressMapError(ReproError):
    """A physical address or frame cannot be decoded/encoded."""


class AllocationError(ReproError):
    """The physical-memory allocator could not satisfy a request."""


class OutOfMemoryError(AllocationError):
    """No free frame exists anywhere in physical memory."""


class SchedulerError(ReproError):
    """The OS scheduler was driven into an invalid state."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class MonitorError(SimulationError):
    """An invariant monitor observed a violation in strict mode."""


class ProtocolError(SimulationError):
    """A DRAM timing or protocol constraint was violated."""


class WireError(ReproError):
    """A malformed or incompatible frame on the service wire protocol."""


class ServiceError(ReproError):
    """The sweep service rejected a request or failed to execute a job."""


class ServiceUnavailable(ServiceError):
    """No server answered within the client's connect-retry budget."""
