"""Exception types shared across the package, and `as_int`, which raises one."""

from __future__ import annotations


class VerbaError(Exception):
    """Base class for all errors raised by this package."""


class WordSyntaxError(VerbaError):
    """Malformed word text; carries the 0-based position of the offence."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


class UnknownVariableFamily(WordSyntaxError):
    """A letter other than x/y started a variable."""


class DisjointnessViolation(VerbaError):
    """Two words that must not share variables do."""


class ArityMismatch(VerbaError):
    """Number of supplied arguments does not match the word's variables."""


class NotAGroup(VerbaError):
    """Cayley-table validation failed; `witness` holds offending indices."""

    def __init__(self, message: str, witness: tuple = ()):
        super().__init__(message)
        self.witness = witness


class OrderCapExceeded(VerbaError):
    """A closure grew past the configured group-order cap."""


class UnknownSpec(VerbaError):
    """Unrecognised builtin group spec string."""


class UnassignedVariable(VerbaError):
    """A word was evaluated without a value for one of its variables."""


class NotNormal(VerbaError):
    """An operation required a normal subgroup or a conjugation-closed subset."""


class ProductNotSubgroup(VerbaError):
    """Set product HK of two non-normal subgroups is not closed."""


class BudgetExceeded(VerbaError):
    """An enumeration would materialize more tuples than allowed."""

    def __init__(self, size: int, budget: int, what: str = "enumeration", unit: str = "tuples"):
        super().__init__(f"{what} needs {size} {unit}, budget is {budget}")
        self.size = size
        self.budget = budget


class PreconditionFailed(VerbaError):
    """A stated precondition of a checker did not hold for the inputs."""


class PowerConditionFailed(VerbaError):
    """Some n-th power of a subgroup element escapes its generating subset."""


class BadIndex(VerbaError):
    """Element index outside the group's range."""


class UnknownCheckId(VerbaError):
    """Check id not in the registered table."""


class InternalInvariantViolation(VerbaError):
    """A containment that is a theorem failed; indicates a bug here."""


def as_int(text: str, error: VerbaError) -> int:
    """int(text), raising `error` where int refuses the text: a malformed
    number, or one past Python's limit on the digits it converts."""
    try:
        return int(text)
    except ValueError:
        raise error from None
