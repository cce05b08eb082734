"""Shared exception base for the package.

Every library error derives from :class:`QcrbSatError` so the CLI can turn
any module failure into a machine-readable error object. ``detail`` holds
structured diagnostics (residuals, offending indices, ...).
"""

from __future__ import annotations


class QcrbSatError(Exception):
    def __init__(self, message: str, **detail):
        super().__init__(message)
        self.detail = dict(detail)

    def to_dict(self) -> dict:
        return {
            "type": type(self).__name__,
            "message": str(self),
            "detail": {k: jsonable(v) for k, v in self.detail.items()},
        }


class InvalidToleranceError(QcrbSatError):
    pass


def require_tolerance(name: str, value) -> None:
    """Refuse a tolerance that is not a finite number >= 0 (zero is valid)."""
    if not 0.0 <= value < float("inf"):
        text = repr(float(value))
        raise InvalidToleranceError(f"{name} must be finite and >= 0, got {text}",
                                    tolerance=name, value=text)


def jsonable(v):
    """``v`` with numpy values, arrays and complex numbers as plain JSON values."""
    import numpy as np

    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: jsonable(x) for k, x in v.items()}
    return v
