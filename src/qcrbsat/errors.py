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
