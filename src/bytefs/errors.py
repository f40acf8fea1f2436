"""Error types shared across the device, firmware, and file-system layers."""


class ByteFSError(Exception):
    pass


class AddressFault(ByteFSError):
    """Access outside the valid address range."""


class InvalidArgument(ByteFSError):
    pass


class SpaceExhausted(ByteFSError):
    pass


class BackPressure(ByteFSError):
    """Log region full even after cleaning; caller should retry."""


class StateError(ByteFSError):
    """Operation issued against an object in the wrong state."""


class TxAborted(ByteFSError):
    """Transaction aborted by a write conflict with another transaction."""


class RecoveryFailed(ByteFSError):
    def __init__(self, message, section_id=None):
        super().__init__(message)
        self.section_id = section_id


class FsError(ByteFSError):
    pass


class AlreadyExists(FsError):
    pass


class NotFound(FsError):
    pass


class NotADirectory(FsError):
    pass


class IsADirectory(FsError):
    pass


class DirectoryNotEmpty(FsError):
    pass
