"""Shared exception types, and the cap test for a cost that is a power.

The CLI maps these onto exit codes: bad configs exit 2, cost-cap aborts
exit 3, postcondition failures exit 4.
"""


class CapExceeded(Exception):
    """A computation would exceed its configured cost cap."""


def cap_power(base: int, exp: int, cap: int, what: str) -> None:
    """Raise CapExceeded when base^exp > cap (exp >= 0), from bit lengths first.

    A power with at least as many bits as the cap is larger than it, so it is
    never taken; any other power has fewer than twice the cap's bits.
    """
    if (base.bit_length() - 1) * exp >= cap.bit_length() or base**exp > cap:
        raise CapExceeded(f"{what} = {base}^{exp} exceeds cap {cap}")


class CoprimalityError(ValueError):
    """A coprime average was requested for non-coprime cardinalities."""


class PostconditionError(AssertionError):
    """An exhaustively checked postcondition failed.

    Raised when a verification that should succeed by theory does not;
    on hypothesis-violating inputs this is a reportable event, otherwise
    it signals a bug.
    """


class ConfigError(ValueError):
    """An experiment config failed schema validation."""
