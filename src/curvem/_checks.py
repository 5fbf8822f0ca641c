"""The checks of the package's number arguments: counts, degrees and reals."""

from __future__ import annotations

from numbers import Real

import numpy as np


def check_integer(error: type[Exception], name: str, value, low: int,
                  high: int | None = None) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an integer in [low, high].

    Python and numpy integers pass; bool does not, though Python counts it
    as an int.  ``high=None`` leaves the range open above.
    """
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        return
    bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise error(f"{name} must be an integer {bounds}, got {value!r}")


def is_real(value) -> bool:
    """A real number, Python or numpy; bool is none, though Python counts it
    as an int (and numpy's bool is no number at all)."""
    return isinstance(value, Real) and not isinstance(value, bool)
