"""Exception types shared across the package."""


class InternalInconsistencyError(RuntimeError):
    """Two supposedly equivalent computation routes disagreed beyond tolerance.

    Raised when a closed-form result fails its residual check, when a radicand
    is more negative than the clamping band allows, or when quantities tied
    by an identity disagree. This always indicates a bug or an input far
    outside the supported domain, never a condition the caller should
    routinely handle.
    """


class OracleConvergenceError(RuntimeError):
    """The Jacobi eigensolver did not converge within its sweep cap."""


class NotApplicableError(ValueError):
    """The requested quantity is undefined for this input (e.g. a rank
    deficient state passed to a bound that requires full rank)."""
