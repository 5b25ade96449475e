"""Exception hierarchy shared across the package, and the text-file read
that reports a byte outside UTF-8 as a ``FormatError``."""


class BacError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(BacError):
    """Invalid denoiser configuration (bad counts, non-divisible heads, ...)."""


class DimensionError(BacError):
    """Input array shape does not match the configuration."""


class RangeError(BacError):
    """An index (timestep, similarity index) is outside its valid range."""


class DegenerateFeatureError(BacError):
    """A feature matrix with zero norm was encountered where a direction is required."""


class ScheduleError(BacError):
    """A schedule violates its invariants (missing 0, not ascending, out of range)."""


class BudgetError(BacError):
    """Update budget outside [1, K]."""


class EnumerationSizeError(BacError):
    """Brute-force enumeration would exceed the combinatorial guard."""


class PlanError(BacError):
    """A schedule plan does not cover the architecture or misses mandatory step 0."""


class ConsistencyError(BacError):
    """Two artifacts (profile / schedule / config) disagree on K or block coverage."""


class FormatError(BacError):
    """A persisted file does not match its grammar.

    Carries the offending line number when known so CLI messages can name it.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CorrelationError(BacError):
    """Pearson correlation undefined because one series has zero variance."""


def read_text(path: str) -> str:
    """The UTF-8 text of the file at ``path``; ``FormatError`` naming the line
    of the first byte that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"byte 0x{data[exc.start]:02x} is not UTF-8",
                          data.count(b"\n", 0, exc.start) + 1) from None
