"""The exceptions that the command line maps to exit codes.

They live apart from the modules that raise them, which re-export them, so
that the command line can catch them without importing numpy or the
modules it does not run.
"""
from __future__ import annotations


class BundleSyntaxError(ValueError):
    """Raised when bundle text is not well-formed."""


class ShapeError(ValueError):
    """Raised when a matrix/vector in a bundle has inconsistent dimensions."""


class GradingError(ValueError):
    """A declared weight grading that some bundle entry leaves."""


class BadPresentation(ValueError):
    """A group presentation or generator argument that defines no bundle."""


class NotFinite(ValueError):
    """Operation requires a closed finite bundle."""


class MissingBraiding(KeyError):
    def __init__(self, i, j, message=None):
        super().__init__(message or f"no braiding block for ({i!r},{j!r})")
        self.pair = (i, j)

    def __str__(self) -> str:
        return self.args[0]


class ConjInconsistent(ValueError):
    pass


class InvalidBundle(ValueError):
    def __init__(self, report):
        super().__init__(
            "bundle failed validation: "
            + ", ".join(c.name for c in report.failures())
        )
        self.report = report


class InconsistentSolve(ValueError):
    pass
