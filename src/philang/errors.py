"""Error types, and the int64 range, shared across the runtime. Each type's
`exit_code` is the CLI's exit code for it."""

# the range of a program's integers and heap addresses
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


class PhilangError(Exception):
    """Base class for everything this package raises on purpose."""

    exit_code = 1
    frames = ()  # where a fault that left Program.run happened, innermost first


class SyntaxFault(PhilangError):
    exit_code = 2

    def __init__(self, message, file=None, line=None):
        self.file = file
        self.line = line
        # every fault that names a line also names its file
        super().__init__(message if line is None else f"{file}:{line}: {message}")


class EvalFault(PhilangError):
    """Runtime error during evaluation. `kind` is a stable diagnostic tag."""

    def __init__(self, kind, message):
        self.kind = kind
        super().__init__(f"{kind}: {message}")


class BudgetExceeded(PhilangError):
    exit_code = 3

    def __init__(self, limit):
        self.limit = limit
        super().__init__(f"evaluation budget exhausted ({limit} steps)")
