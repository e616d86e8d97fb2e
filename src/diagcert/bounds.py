"""Search and resource bounds used by the bounded decision procedures.

Every bounded verdict (Unknown, NoneWithinBounds) echoes the Bounds object it
was computed with, so reports are reproducible.

One Bounds is in effect at a time, held in a context variable rather than
passed down, because Groebner work is also reached through ideal comparison
operators, which cannot take a parameter.  Each public entry point that takes
`bounds` is wrapped in `applies_bounds`: it runs under its `bounds` argument,
or under its caller's bounds when that argument is None.  Outside any such
call, Bounds() is in effect.  Nothing else sets a limit: a run depends only on
its arguments.
"""

from __future__ import annotations

import functools
import inspect
from contextvars import ContextVar
from dataclasses import asdict, dataclass, fields

DEFAULT_STEPS = 1_000_000


def current_steps() -> int:
    """Step limit for one Groebner computation started now."""
    bounds = _in_effect.get()
    return bounds.steps


def applies_bounds(fn):
    """Run fn with its `bounds` argument in effect; None means the bounds
    already in effect, which fn then receives."""
    index = list(inspect.signature(fn).parameters).index("bounds")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        args = list(args)
        if len(args) > index:
            args[index] = bounds = args[index] or _in_effect.get()
        else:
            kwargs["bounds"] = bounds = kwargs.get("bounds") or _in_effect.get()
        token = _in_effect.set(bounds)
        try:
            return fn(*args, **kwargs)
        finally:
            _in_effect.reset(token)

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

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"bound {f.name!r} must be positive")

    def to_json(self) -> dict:
        return asdict(self)


_in_effect = ContextVar("diagcert_bounds", default=Bounds())
