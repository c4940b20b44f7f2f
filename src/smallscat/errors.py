"""Exception types shared across the package."""


class SmallscatError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SmallscatError):
    """A run configuration file is missing, malformed, or inconsistent."""


class DensityInfeasible(SmallscatError):
    """The requested particle count cannot be placed at the separation constraint."""


class DegenerateMesh(SmallscatError):
    """A surface mesh contains (near-)zero-area triangles or is not closed."""


class SolveFailure(SmallscatError):
    """A linear solve did not reach the requested residual."""


class MissingFunctional(SmallscatError):
    """A shape functional required by the boundary kind is not available."""


class RegimeViolation(SmallscatError):
    """Scene validation failed; the small-particle asymptotics do not apply."""


class PointInsideParticle(SmallscatError):
    """A field evaluation point lies inside a particle's exclusion ball."""


class DesignInfeasible(SmallscatError):
    """The requested refraction target cannot be realized with admissible impedances."""


class NonConvergence(SmallscatError):
    """An iterative kernel evaluation (series or fixed point) diverged."""


class UnsupportedScene(SmallscatError, NotImplementedError):
    """The scene combines features no solver handles (a hard cloud in a background medium)."""


class GridTooLarge(SmallscatError):
    """A grid exceeds its cell cap, or a kernel's stored arrays exceed the memory budget."""
