"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 1, DataError -> 2,
NumericError -> 3. require states the range rules a config dataclass
checks when it is built.
"""

from pathlib import Path


class RollingQuantError(Exception):
    """Base class for all package errors."""


class ConfigError(RollingQuantError):
    """Invalid run or generator configuration."""


class DataError(RollingQuantError):
    """Base class for ingestion/validation problems."""


class ParseError(DataError):
    """Malformed input row; message names file, line and column."""


class ValidationError(DataError):
    """Dataset invariant violated; message names stock/date."""


class NumericError(RollingQuantError):
    """Base class for numeric/training failures."""


class TrainingError(NumericError):
    """Loss became non-finite during training."""


class StrategyError(NumericError):
    """A ranking strategy could not be computed."""


class RebalanceError(NumericError):
    """Portfolio could not be traded to targets."""


def require(**rules):
    """ConfigError 'name: must be <rule>' for the first name=(holds, rule)
    whose holds is false; write each test so that a NaN fails it."""
    for name, (holds, rule) in rules.items():
        if not holds:
            raise ConfigError(f"{name}: must be {rule}")


def not_utf8(path) -> str:
    """'<path>:<line>: ...' naming the first byte of the file that is not UTF-8.
    Lines end at each \\r\\n, \\r or \\n, as the csv reader and configparser
    count them."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return f"{path}:{line}: byte 0x{data[exc.start]:02x} is not UTF-8 text"
    return f"{path}: not UTF-8 text"  # the file changed after the failed read
