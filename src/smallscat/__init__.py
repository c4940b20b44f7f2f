"""Many-body acoustic scattering by small particles.

Reduced per-particle linear systems for soft, impedance, and hard scatterers,
their effective-medium limits on cube covers, empirical limit statistics,
inverse design of refraction coefficients, and a variable-index background
kernel.  See the README for the CLI and configuration schema.

The names below load their module on first access (PEP 562), so importing
the package, or ``smallscat.cli``, loads no numpy: ``--threads`` must set the
BLAS thread count before numpy starts.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "background": ("BackgroundMedium", "GreenEvaluator", "born_series", "fixed_point_solve",
                   "free_space_green", "green", "scattered_plane_wave"),
    "config": ("field_from_config",),
    "core": ("CloudSpec", "Hard", "Impedance", "IncidentWave", "Particle", "Scene", "Soft",
             "ValidationReport", "generate_cloud", "validate_scene"),
    "errors": ("ConfigError", "DegenerateMesh", "DensityInfeasible", "DesignInfeasible",
               "GridTooLarge", "MissingFunctional", "NonConvergence", "PointInsideParticle",
               "RegimeViolation", "SmallscatError", "SolveFailure", "UnsupportedScene"),
    "fields": ("AffineField", "ConstantField", "GaussianBumpField", "GriddedField",
               "ScalarField"),
    "grids": ("Box", "GridCover"),
    "homogenize": ("CollocationSolution", "ConvergenceReport", "DesignPrescription",
                   "HardLimitSolution", "LimitCoefficients", "collocation_solve",
                   "convergence_study", "cover_field_from_solution", "inverse_design",
                   "limit_from_cloud", "limit_from_prescription", "neumann_limit_solve"),
    "manybody": ("EffectiveFieldSolution", "FarField", "eval_field", "far_field",
                 "fibonacci_directions", "solve_hard", "solve_impedance", "solve_soft"),
    "onebody": ("ShapeFunctionals", "SurfaceMesh", "amplitude_onebody", "capacitance_zeroth",
                "charge_hard", "charge_impedance", "charge_soft", "icosphere", "load_obj",
                "mesh_particle", "polarizability", "save_obj", "spheroid",
                "static_double_layer_matrix"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # Looked up on every access, never cached here, so a name always reads
    # what its module currently binds.
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
