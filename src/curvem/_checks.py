"""The integer check of the package's count and degree arguments."""

from __future__ import annotations

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
