"""Search and resource bounds used by the bounded decision procedures.

Every bounded verdict (Unknown, NoneWithinBounds) echoes the Bounds object it
was computed with, so reports are reproducible.

The Groebner step limit is ambient rather than passed down, because Groebner
work is also reached through ideal comparison operators, which cannot take a
parameter.  Each public entry point that takes `bounds` and can reach the
Groebner engine is wrapped in `applies_bounds`, which puts `bounds.steps` in a
context variable for the duration of the call.  Outside any such call the
limit is DEFAULT_STEPS.  Nothing else sets a limit: a run depends only on its
arguments.
"""

from __future__ import annotations

import functools
import inspect
from contextvars import ContextVar
from dataclasses import asdict, dataclass

DEFAULT_STEPS = 1_000_000

_steps = ContextVar("diagcert_steps", default=DEFAULT_STEPS)


def current_steps() -> int:
    """Step limit for one Groebner computation started now."""
    return _steps.get()


def applies_bounds(fn):
    """Run fn with the step limit of its `bounds` argument in effect.

    A call with bounds=None keeps the limit of the enclosing call.
    """
    index = list(inspect.signature(fn).parameters).index("bounds")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bounds = args[index] if len(args) > index else kwargs.get("bounds")
        if bounds is None:
            return fn(*args, **kwargs)
        token = _steps.set(bounds.steps)
        try:
            return fn(*args, **kwargs)
        finally:
            _steps.reset(token)

    return wrapper


@dataclass(frozen=True)
class Bounds:
    """Bounds for coefficient pools and search budgets.

    degree/height bound the coefficient pool used by element enumeration
    (monomial total degree <= degree, integer coefficients with |c| <= height).
    steps caps the reduction steps of each Groebner computation.
    search_nodes is the number of nodes the elementary operation search may
    spend; iso_candidates caps the isomorphism candidate sweep;
    sample_elements caps annihilator-lattice sampling.
    """

    degree: int = 2
    height: int = 3
    steps: int = DEFAULT_STEPS
    search_nodes: int = 20_000
    iso_candidates: int = 4_000
    sample_elements: int = 500
    seed: int = 0

    def __post_init__(self):
        for name in ("degree", "height", "steps", "search_nodes",
                     "iso_candidates", "sample_elements"):
            if getattr(self, name) <= 0:
                raise ValueError(f"bound {name!r} must be positive")

    def to_json(self) -> dict:
        return asdict(self)
