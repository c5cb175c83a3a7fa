"""Field-value checks shared by the config dataclasses' ``__post_init__``."""

from __future__ import annotations

import math


def require_positive_finite(cfg, names: tuple[str, ...]) -> None:
    """Reject non-positive, NaN or infinite values for timing knobs.

    A plain ``<= 0`` check silently admits ``float("nan")`` (every
    comparison with NaN is False), and a NaN poll interval or spin
    ceiling turns into a supervisor hang instead of an error — so every
    timing field is held to *positive finite* here.  Raises the same
    ``ValueError`` shape as the other ``__post_init__`` checks; the
    ``Backend.run()`` boundary maps it to ``BackendConfigError``.
    """
    for name in names:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value) or value <= 0:
            raise ValueError(
                f"{name} must be a positive finite number, got {value!r}")


def require_nonneg(cfg, names: tuple[str, ...]) -> None:
    for name in names:
        if getattr(cfg, name) < 0:
            raise ValueError(f"{name} must be >= 0")
