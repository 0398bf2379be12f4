"""Exception types shared across the package."""


class BlockstatError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BlockstatError):
    """Argument outside the mathematically supported domain."""


class PoleError(BlockstatError):
    """A bottom hypergeometric parameter hit a nonpositive integer."""


class IntegrabilityError(BlockstatError):
    """A measure density failed its declared integrability."""


class QuadratureFailure(BlockstatError):
    """Adaptive quadrature did not reach the requested tolerance."""


class RateOverflow(BlockstatError):
    """Total exit rate of a simulated state exceeded the safety cap."""


class NonAbsorbing(BlockstatError):
    """A killed-ASG replicate exceeded the event budget without absorbing."""


class EmptyPath(BlockstatError):
    """Occupancy requested for a path with no usable sojourns."""


class NoConvergence(BlockstatError):
    """Truncation doubling hit its cap without stabilising."""


class InstabilityDetected(BlockstatError):
    """A forward recursion left the admissible (positive, monotone) cone."""


class NotPositiveRecurrent(BlockstatError):
    """Parameters outside the positive-recurrence regime."""


class NegativeMass(BlockstatError):
    """A probability came out negative beyond the clipping tolerance."""


class RootOrderViolation(BlockstatError):
    """Quadratic roots violated the expected ordering x- in (0,1) < x+."""


class IllConditioned(BlockstatError):
    """A small linear system was too ill-conditioned to trust."""


class PreconditionViolated(BlockstatError):
    """An operation precondition does not hold."""
