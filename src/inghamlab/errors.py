"""Exception and warning types shared across the package."""


class ArtifactError(Exception):
    """Base class for all library-specific errors."""


class NonAdmissible(ArtifactError):
    """Curve parameters violate the growth/curvature admissibility rules."""


class DegenerateCurve(ArtifactError):
    """A measure construction collapsed (zero length/mass)."""


class InsufficientDecay(ArtifactError):
    """|mu_hat| never drops below 0.99 on the sampled radial grid."""


class ToleranceNotMet(ArtifactError):
    """Adaptive quadrature exhausted its panel budget above tolerance."""


class DivergentParameters(ArtifactError):
    """Tail-sum parameters fail the convergence condition."""


class NotHermitian(ArtifactError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class OutOfDomain(ArtifactError):
    """Parameter outside the stated domain of a boundary branch."""


class InadmissiblePoints(ArtifactError):
    """Three-point configuration violates an admissibility condition."""


class AmbiguousCurve(ArtifactError):
    """Too few samples to classify an observation curve."""


class ResolutionExceeded(ArtifactError):
    """Spectral truncation too small for the evolved state (aliasing)."""


class DecayTooWeak(UserWarning):
    """Fitted Fourier decay is too weak for two-sided frame bounds."""
