"""Errors shared by the computation modules and the command line."""


class GateError(AssertionError):
    """A mathematical gate failed: an inequality that must hold for every
    input did not.  Raised explicitly, so the check survives ``python -O``;
    the command line maps it to exit 3."""
