"""Exception types shared across the toolkit."""


class QCompactError(Exception):
    """Base class for toolkit-specific failures."""


class InternalConsistencyError(QCompactError):
    """A certified invariant failed to hold.

    This signals an implementation bug or a genuinely violated claim, not a
    malformed input (malformed inputs raise ValueError).
    """
