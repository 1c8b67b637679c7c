"""Exception and warning types shared across the package.

Each error class is one outcome of the command line, which maps it to an exit
code and a stderr prefix:

- ``ConfigError`` (and ``OSError``): exit 2, ``config error:``;
- ``PositivityError``, ``FitFailureError`` (and ``numpy.linalg.LinAlgError``):
  exit 3, ``numeric failure:``;
- ``ModelInconsistencyError``: exit 4, ``model inconsistency:``.
"""


class DecolabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DecolabError, ValueError):
    """Input is malformed, out of range, or a combination no path supports."""


class PositivityError(DecolabError, RuntimeError):
    """Evolved density matrix lost positivity beyond tolerance."""


class ModelInconsistencyError(DecolabError, ValueError):
    """Measured (T1, T2) are incompatible with the rate model."""


class FitFailureError(DecolabError, RuntimeError):
    """Nonlinear least-squares fit did not converge or could not start."""


class TruncationWarning(UserWarning):
    """Grid or basis truncation may bias the result; carries a mass estimate."""

    def __init__(self, message, captured_mass=None):
        super().__init__(message)
        self.captured_mass = captured_mass


class ValidityWarning(UserWarning):
    """Result evaluated outside the validity window of a perturbative formula."""
