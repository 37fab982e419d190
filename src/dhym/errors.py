"""Exception types shared across the package."""


class DhymError(Exception):
    """Base of every dhym exception; the CLI reports each one as invalid
    input (exit 2).  Each subclass also keeps its builtin base, so callers
    that catch ValueError or RuntimeError still see it."""


class DomainError(DhymError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class PhaseOutsideBranchError(DomainError):
    """The Lagrangian phase of a tuple does not lie in the requested branch."""

    def __init__(self, phase, branch):
        self.phase = phase
        self.branch = branch
        lo, hi = branch.value
        super().__init__(
            f"phase {phase:.12g} outside {branch.name} = ({lo:.12g}, {hi:.12g})"
        )


class SamplingExhaustedError(DhymError, RuntimeError):
    """The level-set sampler cannot reach theta: the corner draw refuses
    |theta| >= 4 * (pi/2 - sampling.ANGLE_EPS), the largest sum of four
    clipped angles."""


class DegeneratePathError(DhymError, RuntimeError):
    """The central-charge path passes through (or too close to) the origin,
    so its winding angle is not well-defined."""

    def __init__(self, t_origin, abs_z, threshold):
        self.t_origin = t_origin
        self.abs_z = abs_z
        self.threshold = threshold
        super().__init__(
            f"central charge degenerates: |Z({t_origin:.12g})| = {abs_z:.3e} "
            f"< {threshold:.3e}; winding angle undefined"
        )


class UndefinedAngleError(DomainError):
    """Z(1) vanishes, so no phase can be read off the integrals."""


class InvalidPairError(DhymError, ValueError):
    """A metric/form matrix pair violates Hermiticity or positivity."""


class ConvergenceError(DhymError, RuntimeError):
    """An iterative eigensolve failed to reach its tolerance."""
