"""Exception hierarchy shared by all spheriq modules."""


class SpheriqError(Exception):
    """Base class for all library errors."""


class TooFewSamples(SpheriqError):
    """A sampled curve does not carry enough points for the stencil."""


class DegenerateInput(SpheriqError):
    """Input collapses to a point or otherwise carries no information."""


class OutsideSphere(SpheriqError):
    """Requested cylinder point has no lift to the unit sphere."""


class NotConvertible(SpheriqError):
    """Cylinder form cannot be rewritten in the other orientation."""


class EmptyIntersection(SpheriqError):
    """Cylinder misses the unit sphere entirely."""


class Degenerate(SpheriqError):
    """Operation requires a non-degenerate conic."""


class OutOfRegion(SpheriqError):
    """Momentum coefficients match no admissible parameter region."""


class NoFeasibleRegion(SpheriqError):
    """The reconstruction integrand is nowhere positive."""


class QuadratureFailure(SpheriqError):
    """The quadrature chart does not apply to the integrand, or its inversion
    did not converge."""


class OutOfDomain(SpheriqError):
    """Parameter lies outside the profile domain."""


class ZeroLatitude(SpheriqError):
    """Principal curvature along parallels is singular at z = 0."""


class BadParameter(SpheriqError):
    """Constructor parameter outside its family range."""


class IllConditioned(SpheriqError):
    """Least-squares system has no usable solution."""


class NoImplicitForm(SpheriqError):
    """Surface family carries no implicit quadric equation."""


class MissingParams(SpheriqError):
    """Surface record lacks the cylinder parameters needed here."""


class DegenerateProjection(SpheriqError):
    """Projected quartic coefficients blow up for these parameters."""


class AtPole(SpheriqError):
    """Stereographic projection is undefined at the projection pole."""


class IOFailure(SpheriqError):
    """File could not be written or read."""
