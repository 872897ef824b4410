"""Error taxonomy shared by all modules.

Exit-code mapping used by the CLI: contract/config problems exit 1,
numerical-consistency problems exit 2 (a failed gradient check exits 3 but
is reported as data, not an exception).
"""

import functools
import numbers
import sys

import numpy as np


class HypalignError(Exception):
    """Base class for all package errors."""

    kind = "error"
    exit_code = 1


class ContractViolationError(HypalignError):
    """A caller broke a documented precondition (bad shapes, bad config,
    degenerate inputs)."""

    kind = "contract"
    exit_code = 1


class DomainError(ContractViolationError):
    """A configuration ``field`` outside its domain, as ``detail`` says."""

    def __init__(self, field: str, detail: str):
        super().__init__(f"{field} {detail}")
        self.field, self.detail = field, detail


class NumericalConsistencyError(HypalignError):
    """A quantity left its mathematically valid range by more than the
    tolerated floating-point drift, or a non-finite value appeared."""

    kind = "numerical"
    exit_code = 2


class GenerationError(ContractViolationError):
    """Synthetic-corpus generation could not satisfy its constraints."""

    kind = "generation"


@functools.cache
def _bounds(interval: str) -> tuple:
    low, high = (float(end) for end in interval[1:-1].split(","))
    return low, interval[0] == "[", high, interval[-1] == "]"


def check_domains(config, domains: dict) -> None:
    """Raise a :class:`DomainError` naming the first field of ``config``
    outside its domain.  ``domains`` maps field names to intervals written
    like ``"[0, 1)"`` or ``"(0, inf)"``, and a field annotated ``bool`` to
    ``None``: it must hold a bool.  A field annotated ``int`` must hold an
    integer, and no other field a bool.  A field of no plain kind (a scalar
    that is learned or stacked, such as ``Manifold.kappa``) may hold a tape
    value or a numeric array, checked run by run.  A value that is not a real
    number, ``nan``, an infinity or an integer past float's range (which
    float arithmetic on it would overflow) lies outside every interval."""
    kinds = type(config).__annotations__
    for name, interval in domains.items():
        value, kind = getattr(config, name), kinds.get(name)
        bools, ints = kind in ("bool", bool), kind in ("int", int)
        if isinstance(value, bool) != bools or (ints and not isinstance(value, numbers.Integral)):
            raise DomainError(name, f"{value!r} is not "
                              f"{'a bool' if bools else 'an integer' if ints else 'a real number'}")
        if bools:
            continue
        low, closed_low, high, closed_high = _bounds(interval)
        # in a field of no plain kind a numeric array, a tape value's too, holds
        # one value per run (autodiff.per_run); any other value is one run
        array = getattr(value, "value", value)
        by_run = (kind not in ("float", float) and isinstance(array, np.ndarray)
                  and array.dtype.kind in "iuf")
        for run in array.ravel().tolist() if by_run else [value]:
            if not (isinstance(run, numbers.Real) and abs(run) <= sys.float_info.max
                    and (low <= run if closed_low else low < run)
                    and (run <= high if closed_high else run < high)):
                raise DomainError(name, f"{run!r} outside its domain {interval}")
