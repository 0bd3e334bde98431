"""Exception types shared across the package, and the field rules of the
checked types.

The CLI maps these onto its exit-code contract: configuration and usage
problems (ConfigError) exit 2, I/O and file-format problems
(StreamFormatError) exit 3, numerical failures (TrainingDivergedError,
DegenerateInputError) exit 4.

Each checked type (each config dataclass, and Stream) states its field
rules once, as a RULES table (field name -> Rule), and its constructor (so
dataclasses.replace too) applies it with check_fields, then any rule across
fields (a generator class too small to split, a kernel longer than the
trial) as a ConfigError. A rule accepts JSON values only: a bool is not an
integer, and an integer too large for a float is not a finite number; an
integer that passes is stored as an int. A subject id, class label or
timestamp obeys integer(0) as well. An input refused for its shape or
size, no trials included, is a ShapeError.
"""

import math
import operator
from collections.abc import Callable
from numbers import Integral, Real
from typing import NamedTuple


class ShapeError(ValueError):
    """An array has the wrong dimensionality or dimensions, or no trials."""


class DegenerateInputError(ValueError):
    """Input is too small or too degenerate for the requested operation."""


class ConfigError(ValueError):
    """A configuration value violates its contract."""


class Rule(NamedTuple):
    """What one config field accepts, and how a message describes it."""

    accepts: Callable
    text: str

    def check(self, value, what: str, error=ConfigError) -> None:
        """Raise error naming what (section and field) and value unless
        the rule accepts value."""
        if not self.accepts(value):
            raise error(f"{what} must be {self.text}, got {value!r}")


def _is_integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    try:
        return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def integer(low: int, high: float = math.inf) -> Rule:
    text = f"an integer >= {low}" if high == math.inf else f"an integer in [{low}, {high}]"
    return Rule(lambda v: _is_integer(v) and low <= v <= high, text)


def number(low: float, exclusive: bool = False) -> Rule:
    above = operator.gt if exclusive else operator.ge
    return Rule(lambda v: _is_finite(v) and above(v, low),
                f"a finite number {'>' if exclusive else '>='} {low}")


def integers(low: int) -> Rule:
    return Rule(lambda v: isinstance(v, (list, tuple)) and len(v) > 0
                and all(_is_integer(x) and x >= low for x in v),
                f"a non-empty list of integers >= {low}")


def one_of(names: tuple) -> Rule:
    return Rule(lambda v: isinstance(v, str) and v in names, f"one of {names}")


BOOL = Rule(lambda v: isinstance(v, bool), "true or false")
STRING = Rule(lambda v: isinstance(v, str), "a string")


def check_fields(config, section: str, rules: dict) -> None:
    """Apply a rule table to a config's fields, in table order, and store
    each integer that passes as an int."""
    for name, rule in rules.items():
        value = getattr(config, name)
        rule.check(value, f"{section} {name}")
        if _is_integer(value):
            object.__setattr__(config, name, int(value))


class StreamFormatError(ValueError):
    """A stream file on disk is malformed.

    ``offset`` is the byte position at which the problem was detected,
    or -1 when the problem is not tied to a position (e.g. manifest
    inconsistencies).
    """

    def __init__(self, message: str, offset: int = -1):
        super().__init__(message if offset < 0 else f"{message} (at byte {offset})")
        self.offset = offset


class TrainingDivergedError(RuntimeError):
    """The training loss became non-finite."""
