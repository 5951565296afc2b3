"""Error types shared by every module.

High-precision arithmetic goes through mpmath's global context, and each
mp computation states its digits where it runs (`with mp.workdps(n)`),
so no result depends on the precision a caller left there.  Vectorized
double-precision fast paths live in the individual modules and are
validated against the mpmath routes by the test suite.
"""


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
