"""Exception types shared across the runtime."""


class ZonegcError(Exception):
    """Base class for all runtime errors raised by this package."""


class LifecycleError(ZonegcError):
    """Operation on a handle that is not in the required lifecycle phase."""


class AlignmentError(ZonegcError):
    """Address offset is not a multiple of the 16-byte slot granularity."""


class IndexRangeError(ZonegcError):
    """Index or address falls outside the table or zone it must lie in."""


class ShapeError(ZonegcError):
    """Bit-vector operands do not share the declared width."""


class ZoneCapacityError(ZonegcError):
    """A zone's region is exhausted; no pooled or fresh slot available."""


class YieldOverflowError(ZonegcError):
    """Scratch region of a yield scope is full."""


class EphemeralStateError(ZonegcError):
    """State code outside the four ephemeral-value codes."""


class PromotionError(ZonegcError):
    """Promotion attempted with a non-promotable ephemeral state."""


class PartitionPlanError(ZonegcError):
    """Partition plan request is malformed (for example zero partitions)."""


class PartitionFaultError(ZonegcError):
    """One or more workers failed; carries the surviving partial results.

    Attributes:
        failed: list of (range, exception) pairs for the failed partitions.
        partials: dict mapping completed ranges to their partial results.
    """

    def __init__(self, failed, partials):
        self.failed = list(failed)
        self.partials = dict(partials)
        ranges = ", ".join(f"[{a}, {b})" for (a, b), _ in self.failed)
        super().__init__(f"partition fault in range(s) {ranges}")


class ObjectiveUndefinedError(ZonegcError):
    """Scheduler objective evaluated with zero threads on a loaded zone."""


class DepthLimitError(ZonegcError):
    """Recursion chunk exceeds the configured safe depth."""


class ConfigError(ZonegcError):
    """Malformed configuration file, unknown key, or out-of-range value.

    args holds one message per failed check of the configuration.
    """

    def __str__(self) -> str:
        return "; ".join(map(str, self.args))
