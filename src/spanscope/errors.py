"""Exception types shared across the package."""


class SpanscopeError(Exception):
    """Base class for all spanscope errors."""


class MalformedDocumentError(SpanscopeError):
    """Input document cannot be parsed or fails schema validation."""


class InvariantViolationError(SpanscopeError):
    """A structural invariant of a trace is violated; names the offending span."""

    def __init__(self, span_id, message):
        super().__init__(f"span {span_id!r}: {message}")
        self.span_id = span_id


class UnknownSpanError(SpanscopeError):
    """Requested span id does not exist in the trace."""


class DanglingCalleeError(SpanscopeError):
    """A block calls a function that is neither defined nor declared external."""

    def __init__(self, callee, caller):
        super().__init__(f"call to undefined function {callee!r} from {caller!r}")
        self.callee = callee
        self.caller = caller


class UnreachableBlockError(SpanscopeError):
    """Blocks of a function are not connected to its entry or exit."""

    def __init__(self, function, blocks, direction="entry"):
        blocks = sorted(blocks)
        super().__init__(
            f"function {function!r}: blocks not reachable from {direction}: {blocks}"
        )
        self.function = function
        self.blocks = blocks


class DuplicateSharedEntryError(SpanscopeError):
    """The shared-library dictionary lists the same class.function twice."""


class NoPathError(SpanscopeError):
    """The trace root cannot be located on the graph."""

    def __init__(self, span_id, message):
        super().__init__(f"span {span_id!r}: {message}")
        self.span_id = span_id


class EmptyPartitionError(SpanscopeError):
    """Budget allocation received an empty partition."""


class PartitionMismatchError(SpanscopeError):
    """The supplied partition does not cover the trace exactly."""


class UnknownEntryError(SpanscopeError):
    """The entry function of a decision is missing or not in the graph."""


class ReconstructionError(SpanscopeError):
    """A decision is inconsistent with the graph it is replayed against."""


class InvalidSpecError(SpanscopeError):
    """A synthetic system specification is out of range."""


class UnknownFaultTargetError(SpanscopeError):
    """A fault targets a function that does not exist in the system."""


class ConfigError(SpanscopeError):
    """Bad command-line or configuration-file input."""
