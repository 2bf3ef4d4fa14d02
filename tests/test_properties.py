"""Property-based invariants over randomized weights, scales and fields.

The independent oracle throughout is the Gamma closed form of the axis
moments: for exponent a and power k,

    int_0^inf t^(a+k) e^(-t^2/(2 s^2)) dt = s^(a+k+1) 2^((a+k-1)/2) Gamma((a+k+1)/2),

so any tensor rule must integrate random monomials against the weighted
Gaussian to the product of per-axis moments.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausscone.fields import gaussian, poly_gauss
from gausscone.functionals import hup_deficit
from gausscone.inequalities import check_beckner, check_lsi, check_poincare
from gausscone.measures import build_rule, make_measure
from gausscone.stability import distance_to_family
from gausscone.weights import Monomial, make_weight

from oracles import gamma_moment

exponents_2d = st.tuples(
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False))


@given(exponents_2d,
       st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                min_size=1, max_size=4),
       st.floats(min_value=0.4, max_value=2.5))
@settings(max_examples=25, deadline=None)
def test_tensor_rule_monomial_moments(exps, powers, lam):
    """Random monomial integrands against the Gamma-moment oracle.

    Axes with zero exponent are unconstrained (full line): even moments
    double the half-line value and odd ones vanish.
    """
    w = make_weight(Monomial(exps), 2)
    rule = build_rule(w, lam, order=16)
    for kx, ky in powers:
        got = float(np.sum(rule.weights * rule.nodes[:, 0] ** kx
                           * rule.nodes[:, 1] ** ky))
        expect = 1.0
        for a, k in ((exps[0], kx), (exps[1], ky)):
            axis_moment = lam ** (a + k + 1) * gamma_moment(a, k)
            if a == 0.0:  # full-line axis
                axis_moment = 0.0 if k % 2 else 2.0 * axis_moment
            expect *= axis_moment
        scale = abs(lam ** (sum(exps) + kx + ky + 2)
                    * gamma_moment(exps[0], kx) * gamma_moment(exps[1], ky))
        assert got == pytest.approx(expect, rel=1e-11, abs=1e-12 * (1 + scale))


@given(exponents_2d, st.floats(min_value=0.3, max_value=3.0))
@settings(max_examples=20, deadline=None)
def test_partition_scaling_covariance(exps, lam):
    """Z(lambda) equals the product of the per-axis Gamma moments at lambda."""
    w = make_weight(Monomial(exps), 2)
    expect = 1.0
    for a in exps:
        axis_mass = lam ** (a + 1) * gamma_moment(a, 0)
        expect *= 2.0 * axis_mass if a == 0.0 else axis_mass
    assert build_rule(w, lam).mass == pytest.approx(expect, rel=1e-11)


@given(exponents_2d, st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_inequalities_hold_for_random_fields(exps, seed):
    """Beckner, Poincare and LSI verdicts on seeded fields never fail."""
    w = make_weight(Monomial(exps), 2)
    mu = make_measure(w, 1.0)
    constrained = frozenset(w.singular_axes())
    f = poly_gauss(seed, 2, even_axes=constrained)
    for chk in (check_poincare(mu, f), check_beckner(mu, f, 1.0, 2.0),
                check_lsi(mu, f)):
        assert chk.passed, (exps, seed, chk.theorem, chk.deficit)


@given(exponents_2d, st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_hup_deficit_nonnegative_random(exps, seed):
    mu = make_measure(make_weight(Monomial(exps), 2))
    f = poly_gauss(seed, 2)
    res = hup_deficit(mu, f)
    assert res.delta >= -1e-9
    assert res.identity_residual <= 1e-8 * (1.0 + abs(res.delta))


@given(st.floats(min_value=0.2, max_value=4.0),
       st.floats(min_value=-3.0, max_value=3.0).filter(lambda c: abs(c) > 1e-3))
@settings(max_examples=8, deadline=None)
def test_family_members_have_zero_distance(lam0, c0):
    mu = make_measure(make_weight(Monomial((1.0, 0.0)), 2))
    res = distance_to_family(mu, gaussian(c0, lam0, 2))
    norm = abs(c0)  # distance scales with the amplitude
    assert res.distance <= 1e-6 * (1.0 + norm)
    assert res.lam == pytest.approx(lam0, rel=1e-4)
