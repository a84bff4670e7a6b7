"""Numerical-breakdown exception hierarchy and pivot remediation.

Incomplete factorizations break down when elimination drives a pivot to
(near) zero, and iterative solves break down when a preconditioner
apply produces NaN/Inf.  This module gives every layer of the stack one
shared vocabulary for those events:

* :class:`NumericalBreakdown` — the root.  Subclasses also inherit the
  builtin exception callers historically caught (``ZeroDivisionError``
  for sweep/Jacobi diagonals, ``ValueError`` for zero diagonals and
  non-finite values) so existing ``except`` clauses keep working while
  new code can catch the whole family with one clause.
* :class:`PivotPolicy` — the configurable small/zero-pivot remediation
  used by ``ilu/ilut.py``, ``ilu/elimination.py`` and both kernel
  backends.  ``"guard"`` reproduces the historical substitution
  bit-exactly, ``"raise"`` turns breakdown into a typed error for the
  fallback/retry layer, and ``"shift"`` applies a threshold-scaled
  sign-preserving perturbation in the spirit of Bollhöfer et al.'s
  block-ILU pivot treatment.
* :func:`assert_finite` — the NaN/Inf guard applied at preconditioner
  apply boundaries.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NumericalBreakdown",
    "ZeroPivotError",
    "ZeroDiagonalError",
    "NonFiniteError",
    "FallbackExhausted",
    "PivotPolicy",
    "assert_finite",
]

#: Relative floor used by the ``"shift"`` policy when the drop threshold
#: is zero: perturbations never fall below sqrt(eps) times the row scale,
#: which keeps the perturbed factor bounded (Bollhöfer's condition-number
#: motivated choice).
_SHIFT_FLOOR = float(np.sqrt(np.finfo(np.float64).eps))


class NumericalBreakdown(ArithmeticError):
    """A numerical event the algorithm cannot proceed through.

    Carries the offending ``row`` (or ``-1`` when not row-specific) and
    the offending ``value`` so failure reports and logs can localise the
    breakdown without parsing messages.
    """

    def __init__(self, message: str, *, row: int = -1, value: float = float("nan")) -> None:
        super().__init__(message)
        self.row = int(row)
        self.value = float(value)


class ZeroPivotError(NumericalBreakdown, ZeroDivisionError):
    """Elimination hit an exactly/near zero pivot.

    Also a ``ZeroDivisionError`` so callers of the historical
    ``diag_guard=False`` paths and the stationary sweeps keep working.
    """


class ZeroDiagonalError(NumericalBreakdown, ValueError):
    """A zero entry on a diagonal that must be zero-free.

    Also a ``ValueError`` for backward compatibility with
    ``DiagonalPreconditioner`` callers.
    """


class NonFiniteError(NumericalBreakdown, ValueError):
    """NaN or Inf detected at a guarded boundary."""


class FallbackExhausted(NumericalBreakdown):
    """Every candidate in a fallback chain (or retry schedule) failed."""


def assert_finite(x: np.ndarray, *, where: str = "") -> np.ndarray:
    """Raise :class:`NonFiniteError` if ``x`` has a NaN/Inf entry.

    Returns ``x`` unchanged so the guard composes as an expression.  The
    error names the first offending index (as ``row``) and its value.
    """
    arr = np.asarray(x)
    if arr.dtype.kind != "f" or bool(np.isfinite(arr).all()):
        return x
    flat = arr.reshape(-1)
    bad = int(np.flatnonzero(~np.isfinite(flat))[0])
    label = where or "array"
    raise NonFiniteError(
        f"non-finite value {float(flat[bad])!r} at index {bad} in {label}",
        row=bad,
        value=float(flat[bad]),
    )


class PivotPolicy:
    """What to do when elimination meets a small/zero pivot.

    Parameters
    ----------
    mode:
        ``"guard"`` — substitute the historical fallback pivot (the drop
        threshold ``tau`` if positive, else the row norm, else 1.0);
        the default of every ILUT entry point.
        ``"raise"`` — raise :class:`ZeroPivotError`.
        ``"shift"`` — replace the pivot by a sign-preserving
        threshold-scaled perturbation ``±shift_scale * max(tau,
        sqrt(eps)) * rownorm`` (à la Bollhöfer), so the factor stays
        bounded without abandoning the sparsity pattern.
    breakdown_tol:
        Pivots with ``|diag| <= breakdown_tol * rownorm`` are treated as
        broken down in addition to exact zeros.  The default ``0.0``
        triggers on exact zeros only — required for bit-exactness with
        the historical guard.
    shift_scale:
        Multiplier on the ``"shift"`` perturbation magnitude.
    """

    __slots__ = ("mode", "breakdown_tol", "shift_scale")

    _MODES = ("guard", "raise", "shift")

    def __init__(
        self,
        mode: str = "guard",
        *,
        breakdown_tol: float = 0.0,
        shift_scale: float = 1.0,
    ) -> None:
        if mode not in self._MODES:
            raise ValueError(f"unknown pivot policy {mode!r}; choose from {self._MODES}")
        if breakdown_tol < 0:
            raise ValueError(f"breakdown_tol must be >= 0, got {breakdown_tol}")
        if shift_scale <= 0:
            raise ValueError(f"shift_scale must be > 0, got {shift_scale}")
        self.mode = mode
        self.breakdown_tol = float(breakdown_tol)
        self.shift_scale = float(shift_scale)

    def is_breakdown(self, diag: float, norm: float) -> bool:
        if diag == 0.0 or math.isnan(diag):
            return True
        return self.breakdown_tol > 0.0 and abs(diag) <= self.breakdown_tol * (
            norm if norm > 0 else 1.0
        )

    def resolve(self, row: int, diag: float, tau: float, norm: float) -> float:
        """Return the pivot to divide by, remediating a breakdown.

        ``tau`` is the (absolute) drop threshold in effect for the row
        and ``norm`` the row's scaling (the same norm dropping uses).
        """
        if not self.is_breakdown(diag, norm):
            return diag
        if self.mode == "raise":
            raise ZeroPivotError(f"zero pivot at row {row}", row=row, value=diag)
        if self.mode == "guard":
            return tau if tau > 0 else (norm if norm > 0 else 1.0)
        # "shift": sign-preserving threshold-scaled perturbation
        scale = norm if norm > 0 else 1.0
        magnitude = self.shift_scale * max(tau, _SHIFT_FLOOR) * scale
        sign = 1.0 if (diag >= 0 or math.isnan(diag)) else -1.0
        return sign * magnitude

    def describe(self) -> str:
        extra = ""
        if self.breakdown_tol:
            extra += f", breakdown_tol={self.breakdown_tol:g}"
        if self.mode == "shift" and self.shift_scale - 1.0 != 0.0:
            extra += f", shift_scale={self.shift_scale:g}"
        return f"PivotPolicy({self.mode}{extra})"

    def __repr__(self) -> str:
        return self.describe()
