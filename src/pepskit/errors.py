"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage/input problems exit 1, resource
budgets exit 2, numerical failures exit 3.
"""

from __future__ import annotations


class PepskitError(Exception):
    """Base class for all package errors."""

    code = "error"


class ArgumentError(PepskitError):
    """Invalid argument or malformed input (CLI exit code 1)."""

    code = "argument"


class ModelError(PepskitError):
    """Inconsistent lattice/tensor data, e.g. mismatched bond dimensions."""

    code = "model"


class NotInjectiveError(PepskitError):
    """A site or blocked tensor has no left-inverse."""

    code = "not_injective"


class SizeBudgetError(PepskitError):
    """A requested computation exceeds one of the package's size limits (exit 2).

    ``predicted_size`` holds the quantity that went over its limit: the
    entries of a contraction intermediate (a state vector or an oracle
    half included) or of a generated site array over
    ``network.DEFAULT_BUDGET``, the total multiply-adds of a contraction
    plan over ``network.WORK_BUDGET``, or the matrix dimension of a
    parent-Hamiltonian eigensolve over ``parent.ITERATIVE_CUTOFF``.
    """

    code = "budget"

    def __init__(self, message: str, predicted_size: int = 0):
        super().__init__(message)
        self.predicted_size = predicted_size


class NumericalError(PepskitError):
    """An underlying numerical routine failed to converge (exit 3)."""

    code = "numerical"


class DegenerateFitError(PepskitError):
    """A decay fit was requested on data with no signal (all zeros)."""

    code = "degenerate_fit"
