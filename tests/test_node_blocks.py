"""Passes over a rule's nodes run NODE_BLOCK nodes at a time.

`integrate`, `integrate_with_error` and `nu_integral` call a callable
integrand on one node block at a time, weight and sum each block, and add
the block sums in block order; `Measure.node_jet` fills a field's order-1
jet block by block, and the Monte Carlo rule is drawn and folded block by
block.  A sum therefore equals the blocked fold of the oracle bit for bit
(the one whole-array sum on a rule of one block, and within round-off of it
on more), and the rule equals the one a single draw gives.  This holds on a
Monte Carlo rule whose last block is ragged and on a tensor rule smaller
than one block.  A pass holds the rule, one field jet and one block, so its
memory grows with the rule by no more than those, and a mis-shaped
integrand is a ContractError.
"""

import math
import tracemalloc

import numpy as np
import pytest

from gausscone.cones import FullSpace, Halfspace, Orthant
from gausscone.errors import ContractError
from gausscone.fields import exp_axis, gaussian, hermite_witness, poly_gauss, product
from gausscone.gamma import integration_by_parts_residual
from gausscone.inequalities import (
    check_beckner,
    check_lsi,
    check_poincare,
    check_scale_poincare,
)
from gausscone.measures import (
    NODE_BLOCK,
    _mc_rule,
    integrate,
    integrate_with_error,
    make_measure,
    nu_integral,
)
from gausscone.weights import DunklProduct, Monomial, make_weight

from oracles import mc_rule, nu_fold

RAGGED = 3 * NODE_BLOCK + 17
RATE = 0.8


def _dunkl_weight(certify=False):
    return make_weight(DunklProduct(((0.6, 0.8),), (0.5,)), 2,
                       cone=Halfspace(2, (0.6, 0.8)), certify=certify)


@pytest.fixture(scope="module", params=["monte_carlo", "tensor"])
def measure(request):
    if request.param == "monte_carlo":
        mu = make_measure(_dunkl_weight(), 1.0, mc_samples=RAGGED, seed=5)
        assert len(mu.nodes) == RAGGED
    else:
        mu = make_measure(make_weight(Monomial((1.0, 2.0)), 2), 1.0, order=16)
        assert len(mu.nodes) < NODE_BLOCK
    return mu


def _scalar(x):
    r2 = np.sum(x ** 2, axis=1)
    return (1.0 + x[:, 0] ** 2 - x[:, 0] * x[:, 1]) * np.exp(-RATE * r2)


def _vector(x):
    # (N, 2, 2), built axis-first like the checkers' integrands
    r2 = np.sum(x ** 2, axis=1)
    rows = np.stack([np.ones(len(x)), x[:, 0] ** 2, 1.0 + x[:, 1] ** 2, r2 ** 2])
    return (rows * np.exp(-RATE * r2)).T.reshape(len(x), 2, 2)


@pytest.mark.parametrize("integrand", [_scalar, _vector], ids=["scalar", "vector"])
def test_nu_integral_equals_blocked_fold(measure, integrand):
    rule = measure.rule_at(1.0 / math.sqrt(2.0 * RATE))
    expected = nu_fold(rule, integrand, RATE)
    got = nu_integral(measure, integrand, RATE)
    assert np.shape(got) == expected.shape
    assert np.array_equal(got, expected)
    # block sums added in order stay within round-off of one whole-array sum
    whole = nu_fold(rule, integrand, RATE, block=None)
    np.testing.assert_allclose(got, whole, rtol=1e-14, atol=0)
    if len(rule.weights) <= NODE_BLOCK:
        assert np.array_equal(got, whole)


@pytest.mark.parametrize("cone", [Halfspace(2, (0.6, 0.8)), Orthant(2, (0, 1)),
                                  FullSpace(2)],
                         ids=["half_plane", "orthant", "full_space"])
def test_mc_rule_drawn_in_blocks_is_one_draw(cone):
    # the Philox stream drawn NODE_BLOCK rows at a time is its one whole draw
    # row for row, and every step after the draw acts on one node
    weight = make_weight(DunklProduct(((0.6, 0.8),), (0.5,)), 2, cone=cone,
                         certify=False)
    for lam in (1.0, 0.7):
        got, ref = _mc_rule(weight, lam, RAGGED, 9), mc_rule(weight, lam, RAGGED, 9)
        assert np.array_equal(got.nodes, ref.nodes)
        assert got.nodes.T.flags.c_contiguous
        assert np.array_equal(got.weights, ref.weights)
        assert got.mass == ref.mass
        assert got.mc == ref.mc


def test_standard_error_merges_block_spreads():
    # the per-block (sum q^2, q^2-weighted mean, centred sum of squares)
    # triples merge to the two-pass sum of q_i^2 (f_i - est)^2
    mu = make_measure(_dunkl_weight(), 1.0, mc_samples=RAGGED, seed=5)
    q = mu.rule.weights
    for integrand in (_scalar, _vector):
        vals = np.moveaxis(integrand(mu.nodes), 0, -1)
        est, se = integrate_with_error(mu, integrand)
        dev = vals - np.expand_dims(est, -1)
        two_pass = np.sqrt(np.sum(q * q * dev * dev, axis=-1)) * mu.normalization
        np.testing.assert_allclose(se, two_pass, rtol=1e-12, atol=0)


@pytest.mark.parametrize("integrand", [_scalar, _vector], ids=["scalar", "vector"])
def test_integrate_callable_equals_its_values(measure, integrand):
    # the callable is called block by block, the array of its values is
    # taken whole; both are summed once, so they agree bit for bit
    vals = integrand(measure.nodes)
    for call in (integrate, integrate_with_error):
        got, ref = call(measure, integrand), call(measure, vals)
        assert np.array_equal(got, ref)
    expected = np.sum(np.moveaxis(vals, 0, -1) * measure.rule.weights, axis=-1)
    got = integrate(measure, integrand)
    np.testing.assert_allclose(got, expected * measure.normalization,
                               rtol=1e-15, atol=0)


@pytest.mark.parametrize("call", ["integrate", "integrate_with_error"])
def test_integrate_calls_the_integrand_on_blocks(measure, call):
    seen = []

    def counting(x):
        assert x.strides[0] == x.itemsize
        seen.append(x.copy())
        return _scalar(x)

    {"integrate": integrate,
     "integrate_with_error": integrate_with_error}[call](measure, counting)
    sizes = [len(x) for x in seen]
    assert max(sizes) <= NODE_BLOCK
    assert sum(sizes) == len(measure.rule.weights)
    assert np.array_equal(np.concatenate(seen), measure.nodes)


def test_integrand_sees_axis_first_blocks_in_order(measure):
    rule = measure.rule_at(1.0 / math.sqrt(2.0 * RATE))
    seen = []

    def counting(x):
        # every coordinate is one contiguous row of the block
        assert x.strides[0] == x.itemsize
        seen.append(x.copy())
        return _scalar(x)

    nu_integral(measure, counting, RATE)
    sizes = [len(x) for x in seen]
    assert max(sizes) <= NODE_BLOCK
    assert sum(sizes) == len(rule.weights)
    assert np.array_equal(np.concatenate(seen), rule.nodes)


# fields whose jet at a node does not depend on the batch around it: the
# contraction of the monomial table has one nonzero term per row or none
EXACT_FIELDS = [gaussian(1.3, 0.9, 2), hermite_witness(1, 2), exp_axis(0.7, 0, 2),
                product(gaussian(1.3, 0.9, 2), exp_axis(-0.4, 1, 2))]
# fields with a dense polynomial: OpenBLAS rounds the contraction of the
# monomial table by kernels it picks from the batch size (its thread split
# of the columns, its small-matrix path), so a node's jet may move by an ulp
# or a few with the batch it is evaluated in, in whole arrays as in blocks
DENSE_FIELDS = [poly_gauss(3, 2), poly_gauss(8, 2, degree=5),
                product(gaussian(1.3, 0.9, 2), poly_gauss(4, 2))]


@pytest.mark.parametrize("field", EXACT_FIELDS + DENSE_FIELDS,
                         ids=["gaussian", "hermite", "exp_axis", "product",
                              "poly_gauss", "poly_gauss_deg5", "poly_product"])
def test_node_jet_equals_whole_array_jet(measure, field):
    vals, grad = measure.node_jet(field)
    ref_vals, ref_grad = field.jet(measure.nodes, 1)
    assert grad.T.flags.c_contiguous
    if any(field is f for f in EXACT_FIELDS):
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(grad, ref_grad)
    else:
        for got, ref in ((vals, ref_vals), (grad, ref_grad)):
            np.testing.assert_allclose(got, ref, rtol=1e-13,
                                       atol=1e-13 * np.max(np.abs(ref)))


@pytest.mark.parametrize("call", ["nu_integral", "integrate",
                                  "integrate_with_error"])
@pytest.mark.parametrize("shape", ["scalar", "one_more_node", "transposed"])
def test_misshaped_integrand_is_contract_error(measure, call, shape):
    # every call takes the integrand one block of nodes at a time
    size = min(len(measure.nodes), NODE_BLOCK)

    def integrand(x):
        n = len(x)
        return {"scalar": 1.0, "one_more_node": np.ones(n + 1),
                "transposed": np.ones((3, n))}[shape]

    with pytest.raises(ContractError) as err:
        if call == "nu_integral":
            nu_integral(measure, integrand, RATE)
        else:
            {"integrate": integrate,
             "integrate_with_error": integrate_with_error}[call](measure, integrand)
    message = str(err.value)
    assert f"{size} nodes" in message
    received = {"scalar": "()", "one_more_node": f"({size + 1},)",
                "transposed": f"(3, {size})"}[shape]
    assert received in message


def test_integrand_shape_must_not_change_between_blocks():
    mu = make_measure(_dunkl_weight(), 1.0, mc_samples=RAGGED, seed=5)
    calls = []

    def changing(x):
        calls.append(len(x))
        return np.ones((len(x), 2 if len(calls) == 1 else 3))

    with pytest.raises(ContractError) as err:
        nu_integral(mu, changing, RATE)
    assert f"({NODE_BLOCK}, 2)" in str(err.value)
    assert f"({NODE_BLOCK}, 3)" in str(err.value)


def _ibp_peak(samples: int) -> int:
    mu = make_measure(_dunkl_weight(), 1.0, mc_samples=samples, seed=2)
    f, g = poly_gauss(1, 2), poly_gauss(2, 2)
    integration_by_parts_residual(mu, f, g)  # warm every lazy table
    tracemalloc.start()
    try:
        integration_by_parts_residual(mu, f, g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_integration_by_parts_memory_is_bounded():
    # the nu-pass scales each block of the cached lambda = 1 rule and sums it
    # as it goes, so doubling N may add at most 8 bytes a node plus a fixed
    # slack; a rescaled rule or a folded buffer would add 24 or more
    small, large = 2 ** 16, 2 ** 17
    growth = _ibp_peak(large) - _ibp_peak(small)
    allowed = 8 * (large - small) + 2 ** 18
    assert growth <= allowed, (growth, allowed)


def _checks_peak(samples: int) -> int:
    weight = _dunkl_weight(certify=True)
    f = poly_gauss(3, 2)

    def checks(seed):
        mu = make_measure(weight, 1.0, mc_samples=samples, seed=seed)
        for p in (1.0, 1.5):
            check_beckner(mu, f, p, 2.0)
        for level in ("basic", "gradient_stability", "l2_stability"):
            check_poincare(mu, f, 2.0, level)
        check_lsi(mu, f, 2.0)

    checks(3)  # warm every lazy table
    tracemalloc.start()
    try:
        checks(4)  # a new seed, so the rule is built inside the trace
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_checks_memory_is_bounded():
    # the rule (nodes and weights, 24 bytes a node in 2-D) and one field's
    # order-1 jet (values and gradients, 24 more) are all that may grow
    # with N; every integrand is formed one block at a time
    small, large = 2 ** 16, 2 ** 17
    growth = _checks_peak(large) - _checks_peak(small)
    allowed = (24 + 24) * (large - small) + 2 ** 18
    assert growth <= allowed, (growth, allowed)


def _scale_poincare_peak(samples: int) -> int:
    mu = make_measure(_dunkl_weight(certify=True), 1.0, mc_samples=samples,
                      seed=2)
    f = poly_gauss(3, 2)
    check_scale_poincare(mu, f, 1.3, "improved")  # warm every lazy table
    tracemalloc.start()
    try:
        check_scale_poincare(mu, f, 1.3, "improved")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scale_poincare_memory_is_bounded():
    # the dilated field's order-1 jet on the run's own rule (values and
    # gradients, 24 bytes a node in 2-D) is all that may grow with N; a
    # rescaled copy of the rule would add 24 more
    small, large = 2 ** 16, 2 ** 17
    growth = _scale_poincare_peak(large) - _scale_poincare_peak(small)
    allowed = 24 * (large - small) + 2 ** 18
    assert growth <= allowed, (growth, allowed)
