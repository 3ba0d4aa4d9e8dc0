"""Exception hierarchy for the jobmarket package.

The CLI maps these onto process exit codes, so the distinction between
"bad input", "question undefined for these parameters" and "numerics
broke down" is part of the public contract.
"""


class JobMarketError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(JobMarketError, ValueError):
    """Invalid parameters, configuration or arguments (exit code 2)."""


class ZeroNoiseError(JobMarketError, ValueError):
    """A stochastic threshold was requested with sigma = 0 (exit code 3).

    The extinction and persistence criteria are statements about the noisy
    model; the deterministic limit has different theory, so asking for them
    at sigma = 0 is a domain error rather than an infinity.
    """


class IntegrationError(JobMarketError, RuntimeError):
    """Numerical failure while advancing a trajectory (exit code 4).

    ``cell`` names the failing row of a multi-cell batch (see
    ``run_batch``), so a caller can drop that cell and rerun the others;
    it is None for a single-cell run.
    """

    def __init__(self, message: str, cell: int | None = None) -> None:
        super().__init__(message)
        self.cell = cell
