"""Working-precision plumbing and error types shared by every module.

High-precision arithmetic goes through mpmath's global context:
working_digits() gives the decimal digits the CLI sets there, and
working_dps temporarily changes them inside a computation. Vectorized
double-precision fast paths live in the individual modules and are
validated against the mpmath routes by the test suite.

Default is 40 working digits: Gamma quotients near the critical line lose
digits, and the mpmath oracle routes need headroom over the float64 tier
they check.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

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


def working_digits() -> int:
    """Digits from the environment override (at least 15), or the 40-digit default."""
    raw = os.environ.get(ENV_PRECISION)
    if not raw:
        return DEFAULT_WORKING_DIGITS
    try:
        return max(15, int(raw))
    except ValueError:
        raise ValueError("%s must be an integer, got %r" % (ENV_PRECISION, raw)) from None


@contextmanager
def working_dps(digits: int):
    """Temporarily set the global mpmath decimal precision."""
    saved = mp.dps
    mp.dps = int(digits)
    try:
        yield mp
    finally:
        mp.dps = saved
