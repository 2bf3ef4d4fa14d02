"""Numerical verification of Beckner, Poincare, log-Sobolev and
Heisenberg-uncertainty inequalities for weighted Gaussian measures on
convex cones.

The package is organized around five objects: a Weight (the density w with
its cone, homogeneity degree and certified curvature bound), a Measure (the
probability measure w e^{-|x|^2/(2 lambda^2)} dx / Z with its quadrature
rule), ScalarFields (test functions with exact derivatives and decay
envelopes), inequality checkers producing InequalityCheck verdicts, and a
Galerkin spectral solver realizing the generator and its semigroup.
"""

__version__ = "0.1.0"

from .cones import Cone, FullSpace, Halfspace, Orthant
from .fields import (
    Decay,
    ScalarField,
    affine,
    constant,
    exp_axis,
    gaussian,
    gaussian_quarter,
    hermite_witness,
    poly_gauss,
)
from .functionals import (
    dirichlet_energy,
    entropy,
    hup_deficit,
    lq_norm,
    optimal_scale,
    variance,
)
from .gamma import (
    apply_generator,
    bochner_residual,
    carre_du_champ,
    cd_margin,
    gamma2,
    neumann_residual,
)
from .inequalities import (
    InequalityCheck,
    check_beckner,
    check_euclidean_lsi,
    check_hup,
    check_lsi,
    check_lsi_equivalence,
    check_poincare,
    check_scale_poincare,
    sharpness_sweep,
)
from .measures import (
    Measure,
    QuadratureRule,
    build_rule,
    integrate,
    make_measure,
    special_moments,
)
from .spectral import (
    GalerkinSystem,
    SpectralResult,
    build_galerkin,
    poisson_solve,
    semigroup_apply,
    semigroup_decay_check,
    spectral_gap,
)
from .stability import check_hup_stability, distance_to_family
from .weights import (
    CustomLogWeight,
    DunklProduct,
    GaussianTilt,
    Monomial,
    PartialProduct,
    Radial,
    Weight,
    curvature_lower_bound,
    make_weight,
)
