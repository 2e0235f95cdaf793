"""Exception types shared across the pipeline."""


class MindstoneError(Exception):
    """Base class for all errors raised by this package."""


class IndexBuildError(MindstoneError):
    """Raised when an inverted index cannot be built (e.g. duplicate para_id)."""


class UnknownDocumentError(MindstoneError):
    """Raised when a doc ordinal or para_id is not present in the index."""


class StageError(MindstoneError):
    """A pipeline stage failed; carries the stage identity."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class ScorerProtocolError(MindstoneError):
    """Base class for external-scorer wire protocol failures."""


class HandshakeTimeoutError(ScorerProtocolError):
    """External scorer did not complete the hello handshake in time."""


class MalformedResponseError(ScorerProtocolError):
    """External scorer emitted a line that does not parse as a valid response."""

    def __init__(self, message: str, line: str | bytes):
        super().__init__(f"{message}: {line!r}")
        self.line = line


class ScorerExitError(ScorerProtocolError):
    """External scorer subprocess exited unexpectedly."""
