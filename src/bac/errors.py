"""Exception hierarchy shared across the package, and the one grammar of its
text inputs.

``read_file`` is the one read of an input file: its ``FormatError`` names the
file.  ``write_file`` is the one write of an output file.  ``read_entries`` is
the one reader of ``key<sep>value`` lines (config, schedule, report): its
``FormatError`` names the line.  ``parse_int`` and ``parse_float`` are the
one number rule: ASCII text without ``_``, as the writers print it.
"""


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

    Carries the offending line number when known, and the file's path once
    ``read_file`` has read it, so CLI messages can name both.
    """

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        super().__init__(message)
        self.line, self.path = line, path

    def __str__(self) -> str:
        where = (self.path, None if self.line is None else f"line {self.line}")
        return ": ".join([w for w in where if w is not None] + [self.args[0]])


class CorrelationError(BacError):
    """Pearson correlation undefined because one series has zero variance."""


def read_file(path: str, parse):
    """``parse`` of the UTF-8 text of the file at ``path``.  A byte that is not
    UTF-8 is a ``FormatError`` naming its line, and every ``FormatError``
    raised here names ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"byte 0x{data[exc.start]:02x} is not UTF-8",
                          data.count(b"\n", 0, exc.start) + 1, path) from None
    except FormatError as exc:
        exc.path = path
        raise


def write_file(path: str, text: str) -> None:
    """Write ``text``, built whole by the caller, as the UTF-8 file at ``path``,
    so a writer that fails while formatting leaves no file behind."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _plain(text: str) -> str:
    """``text`` if it is ASCII without ``_``; ``ValueError`` otherwise.  Bare
    ``int`` and ``float`` also take ``1_0`` and non-ASCII digits, which no
    writer prints."""
    if "_" in text or not text.isascii():
        raise ValueError(f"not a plain number: {text!r}")
    return text


def parse_int(text: str) -> int:
    """``int(text)`` for ASCII text without ``_``; ``ValueError`` otherwise."""
    return int(_plain(text))


def parse_float(text: str) -> float:
    """``float(text)`` for ASCII text without ``_``; ``ValueError`` otherwise."""
    return float(_plain(text))


def read_entries(text: str, sep: str, parse, what: str) -> dict:
    """``{key: parse(key, value)}`` over the ``key<sep>value`` lines of
    ``text``, in file order.  Blank lines and ``#`` comments are skipped and
    both sides of ``sep`` are stripped.  A line without ``sep`` (``expected
    <what>``), a repeated key, and a ``ValueError`` from ``parse`` are
    ``FormatError``s naming the line, and so is any ``FormatError`` that
    ``parse`` raises."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, found, value = line.partition(sep)
        if not found:
            raise FormatError(f"expected {what}", lineno)
        key = key.strip()
        if key in entries:
            raise FormatError(f"duplicate key {key!r}", lineno)
        try:
            entries[key] = parse(key, value.strip())
        except ValueError:
            raise FormatError(f"malformed value for {key!r}", lineno) from None
        except FormatError as exc:
            exc.line = lineno
            raise
    return entries
