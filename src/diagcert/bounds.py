"""Search and resource bounds used by the bounded decision procedures.

Every bounded verdict (Unknown, NoneWithinBounds) echoes the Bounds object it
was computed with, so reports are reproducible.

The Groebner step limit is ambient rather than passed down, because Groebner
work is also reached through ideal comparison operators, which cannot take a
parameter.  Each public entry point that takes `bounds` and can reach the
Groebner engine is wrapped in `applies_bounds`, which puts `bounds.steps` in a
context variable for the duration of the call.  Outside any such call the
limit is `DIAGCERT_BUDGET` or DEFAULT_STEPS.
"""

from __future__ import annotations

import functools
import inspect
import os
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field

DEFAULT_STEPS = 1_000_000

_steps = ContextVar("diagcert_steps", default=None)


def _env_steps() -> int:
    raw = os.environ.get("DIAGCERT_BUDGET")
    if raw is None:
        return DEFAULT_STEPS
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_STEPS
    return value if value > 0 else DEFAULT_STEPS


def current_steps() -> int:
    """Step limit for one Groebner computation started now."""
    steps = _steps.get()
    return _env_steps() if steps is None else steps


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
    steps caps the reduction steps of each Groebner computation; its default
    is `DIAGCERT_BUDGET` or DEFAULT_STEPS, read when the Bounds is made.
    search_nodes caps the elementary operation search; iso_candidates caps the
    isomorphism candidate sweep; sample_elements caps annihilator-lattice
    sampling.
    """

    degree: int = 2
    height: int = 3
    steps: int = field(default_factory=_env_steps)
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
