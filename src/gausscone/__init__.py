"""Numerical verification of Beckner, Poincare, log-Sobolev and
Heisenberg-uncertainty inequalities for weighted Gaussian measures on
convex cones.

The package is organized around five objects: a Weight (the density w with
its cone, homogeneity degree and certified curvature bound), a Measure (the
probability measure w e^{-|x|^2/(2 lambda^2)} dx / Z with its quadrature
rule), ScalarFields (test functions with exact derivatives and decay
envelopes), inequality checkers producing InequalityCheck verdicts, and a
Galerkin spectral solver realizing the generator and its semigroup.

Importing the package loads no submodule and so no numpy: each public name
below is imported from its submodule on first access (PEP 562).  That lets
the command line, run as a program (`gausscone.program`, `python -m
gausscone.cli`), fix the BLAS thread count before numpy loads, while a
library caller keeps whatever thread settings it has.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "cones": ("Cone", "FullSpace", "Halfspace", "Orthant"),
    "fields": ("Decay", "ScalarField", "affine", "constant", "exp_axis",
               "gaussian", "gaussian_quarter", "hermite_witness",
               "poly_gauss"),
    "functionals": ("dirichlet_energy", "entropy", "hup_deficit", "lq_norm",
                    "optimal_scale", "variance"),
    "gamma": ("apply_generator", "bochner_residual", "carre_du_champ",
              "cd_margin", "gamma2", "neumann_residual"),
    "inequalities": ("InequalityCheck", "check_beckner", "check_euclidean_lsi",
                     "check_hup", "check_lsi", "check_lsi_equivalence",
                     "check_poincare", "check_scale_poincare",
                     "sharpness_sweep"),
    "measures": ("Measure", "QuadratureRule", "build_rule", "integrate",
                 "make_measure", "special_moments"),
    "spectral": ("GalerkinSystem", "SpectralResult", "build_galerkin",
                 "poisson_solve", "semigroup_apply", "semigroup_decay_check",
                 "spectral_gap"),
    "stability": ("check_hup_stability", "distance_to_family"),
    "weights": ("CustomLogWeight", "DunklProduct", "GaussianTilt", "Monomial",
                "PartialProduct", "Radial", "Weight", "curvature_lower_bound",
                "make_weight"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
