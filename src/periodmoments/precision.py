"""Working-precision plumbing and error types shared by every module.

High-precision arithmetic goes through mpmath's global context. The
Precision dataclass records how many significant digits we carry and the
absolute/relative tolerances downstream checks aim for. Vectorized
double-precision fast paths live in the individual modules and are
validated against the mpmath routes by the test suite.

Default is 40 working digits: Gamma quotients near the critical line lose
digits, and the quadrature engines need headroom to estimate their own
error honestly.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

from mpmath import mp

DEFAULT_WORKING_DIGITS = 40

# Environment override for the CLI and for ad-hoc runs.
ENV_PRECISION = "PERIOD_MOMENTS_PRECISION"


class PoleError(ArithmeticError):
    """Evaluation requested exactly at (or numerically on top of) a pole."""


class RangeError(ValueError):
    """Argument outside the range the implementation is contracted for."""


class NonConvergenceError(RuntimeError):
    """An iterative scheme did not reach the requested tolerance.

    Carries the best available estimate and the last refinement delta so a
    caller can decide whether the partial answer is still usable.
    """

    def __init__(self, message, best=None, last_delta=None):
        super().__init__(message)
        self.best = best
        self.last_delta = last_delta


class TruncationError(RuntimeError):
    """A series cutoff cannot meet the requested tolerance at the stored horizon."""


@dataclass(frozen=True)
class Precision:
    """Working digit count plus target tolerances.

    Invariant: working_digits >= 2 * digits implied by target_rel_tol, so
    that intermediate cancellation cannot eat the answer.
    """

    working_digits: int = DEFAULT_WORKING_DIGITS
    target_abs_tol: float = 1e-12
    target_rel_tol: float = 1e-12

    def __post_init__(self):
        if self.working_digits < 2:
            raise ValueError("working_digits must be a positive integer >= 2")
        if not (self.target_abs_tol > 0 and self.target_rel_tol > 0):
            raise ValueError("tolerances must be strictly positive")
        implied = -math.log10(self.target_rel_tol)
        if self.working_digits < 2 * implied:
            raise ValueError(
                "working_digits %d < 2x digits implied by target_rel_tol (%.1f)"
                % (self.working_digits, implied)
            )


def default_precision() -> Precision:
    """Precision from the environment override, or the 40-digit default."""
    digits = DEFAULT_WORKING_DIGITS
    raw = os.environ.get(ENV_PRECISION)
    if raw:
        try:
            digits = max(15, int(raw))
        except ValueError:
            raise ValueError("%s must be an integer, got %r" % (ENV_PRECISION, raw)) from None
    # Keep the invariant: tolerances track the digit budget at half depth.
    tol = 10.0 ** (-(digits // 2))
    return Precision(working_digits=digits, target_abs_tol=tol, target_rel_tol=tol)


@contextmanager
def working_dps(digits: int):
    """Temporarily set the global mpmath decimal precision."""
    saved = mp.dps
    mp.dps = int(digits)
    try:
        yield mp
    finally:
        mp.dps = saved
