"""Acceptance criteria, one test per criterion, each printing a pass/fail
line (run with `pytest tests/test_acceptance.py -v -s` to see them inline).

Every tolerance is pinned here; nothing defers to later calibration.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from gausscone.config import parse_config
from gausscone.fields import (
    affine,
    constant,
    exp_axis,
    gaussian,
    gaussian_quarter,
    hermite_witness,
    mass_dilated,
    poly_gauss,
    scaled,
    shifted,
    squared,
)
from gausscone.functionals import hup_deficit
from gausscone.gamma import bochner_residual, cd_margin, integration_by_parts_residual
from gausscone.inequalities import (
    check_beckner,
    check_euclidean_lsi,
    check_lsi,
    check_lsi_equivalence,
    check_poincare,
)
from gausscone.measures import make_measure, special_moments
from gausscone.report import emit, run
from gausscone.spectral import build_galerkin, semigroup_decay_check, spectral_gap
from gausscone.stability import brute_force_lambda_scan, check_hup_stability, distance_to_family
from gausscone.suites import default_library
from gausscone.weights import (
    DunklProduct,
    GaussianTilt,
    Monomial,
    Radial,
    make_weight,
)

REPLICATION_CONFIG = str(Path(__file__).resolve().parent.parent
                         / "configs" / "paper_replication.json")


def _report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label}" + (f" ({detail})" if detail else ""))
    return ok


def test_criterion_1_gaussian_baseline():
    t0 = time.perf_counter()
    ok = True
    details = []
    for dim in (1, 2):
        w = make_weight(Monomial(tuple([0.0] * dim)), dim)
        mu = make_measure(w, 1.0)
        res = spectral_gap(build_galerkin(mu, 12))
        ok &= abs(res.gap - 1.0) <= 1e-8
        ok &= res.convergence_delta <= 1e-9
        details.append(f"n={dim} gap={res.gap:.12f} delta={res.convergence_delta:.2e}")
        worst = math.inf
        for f in default_library(w, seed=0):
            for chk in (check_poincare(mu, f),
                        check_beckner(mu, f, 1.0, 2.0),
                        check_lsi(mu, f)):
                ok &= chk.passed and chk.deficit >= -1e-9
                worst = min(worst, chk.deficit)
        details.append(f"n={dim} min deficit={worst:.2e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 10.0
    assert _report(1, "Gaussian baseline (gap, Poincare/Beckner/LSI library)",
                   ok, f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_2_curvature_pipeline():
    ok = True
    for spec, dim in ((Monomial((1.0, 2.0)), 2), (Monomial((1.5, 0.0)), 2),
                      (Radial(1.5), 1)):
        w = make_weight(spec, dim)
        ok &= w.curvature == 0.0 and w.certificate.kind == "analytic"
    wt = make_weight(GaussianTilt(-0.5), 1)
    ok &= wt.curvature == -0.5
    mu = make_measure(wt, 1.0)
    res = spectral_gap(build_galerkin(mu, 14))
    ok &= abs(res.gap - 0.5) <= 1e-6
    worst = 0.0
    for a, b in ((1.0, 0.0), (2.0, 0.5), (-0.7, 1.3)):
        chk = check_poincare(mu, affine([a], b))
        worst = max(worst, abs(chk.deficit))
    ok &= worst <= 1e-8
    assert _report(2, "curvature pipeline (analytic K_w, tilt gap, affine equality)",
                   ok, f"gap={res.gap:.9f}, max |deficit|={worst:.2e}")


def test_criterion_3_partial_weight_equalities():
    w = make_weight(Monomial((1.5, 0.0)), 2)
    mu = make_measure(w, 1.0)
    # (a) Poincare equality for f = 3 x_2 + 1
    chk_a = check_poincare(mu, affine([0.0, 3.0], 1.0))
    ok_a = (abs(chk_a.lhs - 9.0) <= 1e-8 and abs(chk_a.rhs - 9.0) <= 1e-8
            and abs(chk_a.deficit) <= 1e-8)
    # (b) LSI equality for f = e^{0.5 x_2}: both sides 2 b^2 e^{2 b^2}
    ent_expect = 0.8243606353500641
    chk_b = check_lsi(mu, exp_axis(0.5, 1, 2))
    ok_b = (abs(chk_b.lhs - ent_expect) <= 1e-7
            and abs(chk_b.rhs - ent_expect) <= 1e-7)
    # (c) HUP stability equality for the witness under |x_1|
    w1 = make_weight(Monomial((1.0, 0.0)), 2)
    rep = check_hup_stability(make_measure(w1), hermite_witness(1, 2),
                              improved=True)
    target = math.sqrt(math.pi) / 4.0
    ok_c = (abs(rep.delta - target) <= 1e-6
            and abs(rep.distance_sq - target) <= 1e-6
            and abs(rep.diagnostics["lambda_star"] - 1.0) <= 1e-8
            and rep.passed)
    ok = ok_a and ok_b and ok_c
    assert _report(3, "partial-weight equality suite (Poincare, LSI, HUP witness)",
                   ok, f"a={ok_a} b={ok_b} c={ok_c}")


def test_criterion_4_identity_suite():
    weights = [
        ("one", make_weight(Monomial((0.0, 0.0)), 2)),
        ("|x1|", make_weight(Monomial((1.0, 0.0)), 2)),
        ("|x1| x2^2", make_weight(Monomial((1.0, 2.0)), 2)),
        ("radial a=1", make_weight(Radial(1.0), 2, certify=False)),
    ]
    ok = True
    worst_res = 0.0
    for name, w in weights:
        sig = w.cone.axis_signature() or ("full", "full")
        even = frozenset(i for i, k in enumerate(sig) if k != "full")
        mu = make_measure(w, 1.0)
        for seed in range(50):
            f = poly_gauss(seed, 2, even_axes=even)
            res = hup_deficit(mu, f)
            rel = res.identity_residual / (1.0 + abs(res.delta))
            worst_res = max(worst_res, rel)
            ok &= rel <= 1e-8
        ok &= abs(special_moments(mu).second_moment - (2 + w.degree)) <= 1e-8
        # scale lambda = 1/sqrt(2): x_n moment 1/2 for weights independent
        # of x_n, and the (n+alpha+2)/2 second moment for w2 = x_n^2 w
        if 1 in w.free_axes():
            mu_half = make_measure(w, 1.0 / math.sqrt(2.0))
            ok &= abs(special_moments(mu_half).axis_moments[1] - 0.5) <= 1e-8
    w2 = make_weight(Monomial((1.0, 2.0)), 2)
    mu2 = make_measure(w2, 1.0 / math.sqrt(2.0))
    ok &= abs(special_moments(mu2).second_moment - (2 + 1.0 + 2.0) / 2.0) <= 1e-8
    assert _report(4, "identity suite (conjugation identity, moment identities)",
                   ok, f"max relative identity residual={worst_res:.2e}")


def test_criterion_5_euclidean_lsi():
    ok = True
    w = make_weight(Monomial((0.0,)), 1)
    mu = make_measure(w)
    c_w = mu.normalization
    closed_form = math.log(c_w) / c_w - 1.0 / (2.0 * c_w)
    for amp in (1.0, 2.0):
        chk = check_euclidean_lsi(mu, gaussian_quarter(amp, 1))
        scale = 1.0 + abs(chk.lhs) + abs(chk.rhs)
        ok &= abs(chk.deficit) <= 1e-7 * scale
        ok &= abs(chk.lhs - amp ** 2 * closed_form) <= 1e-7 * scale
        ok &= abs(chk.rhs - amp ** 2 * closed_form) <= 1e-7 * scale
    # deficit invariance under the mass-preserving rescaling
    from gausscone.inequalities import euclidean_lsi_rescaling_invariance
    inv = euclidean_lsi_rescaling_invariance(mu, gaussian(1.0, 1.15, 1), lam=2.0)
    ok &= inv["relative_change"] <= 1e-7
    # a non-Gaussian probe as well
    wit = hermite_witness(0, 1)
    base = check_euclidean_lsi(mu, wit)
    lam = 2.0
    resc = check_euclidean_lsi(mu, mass_dilated(wit, lam, 1.0))
    ok &= abs(base.deficit - resc.deficit) <= 1e-7 * (
        1.0 + abs(base.rhs) + abs(resc.rhs))
    # equivalence bookkeeping, including the exact-zero x^2 coefficient
    mu_p = make_measure(make_weight(Monomial((1.5, 0.0)), 2))
    for big_f in (constant(1.0, 2), exp_axis(0.25, 1, 2),
                  poly_gauss(7, 2, even_axes=frozenset({0}))):
        res = check_lsi_equivalence(mu_p, big_f)
        ok &= res["forward_residual"] <= 1e-7
        ok &= res["backward_residual"] <= 1e-7
        ok &= res["d_coefficient"] == 0.0
    assert _report(5, "Euclidean LSI (equality, rescaling, equivalence)", ok)


def test_criterion_6_gamma_calculus():
    ok = True
    rng = np.random.default_rng(0)
    ratios = []
    w1 = make_weight(Monomial((0.0, 0.0)), 2)
    pts = w1.cone.sample_interior(rng, 10, radius=2.0)
    for seed in range(10):
        f = poly_gauss(seed + 500, 2)
        x = pts[seed]
        r1 = bochner_residual(w1, f, x, h=2e-2)
        r2 = bochner_residual(w1, f, x, h=1e-2)
        ratio = r1 / r2
        ratios.append(ratio)
        ok &= abs(ratio - 4.0) <= 0.5
    builtins = [
        make_weight(Monomial((0.0, 0.0)), 2),
        make_weight(Monomial((1.5, 0.0)), 2),
        make_weight(Monomial((1.0, 2.0)), 2),
        make_weight(Radial(1.5), 1),
        make_weight(GaussianTilt(-0.5), 2),
        make_weight(DunklProduct(((math.sqrt(0.5), math.sqrt(0.5)),), (0.75,)), 2),
    ]
    worst_margin = math.inf
    for w in builtins:
        sample = w.cone.sample_interior(np.random.default_rng(3), 10_000,
                                        radius=6.0)
        sig = w.cone.axis_signature()
        even = (frozenset(i for i, k in enumerate(sig) if k != "full")
                if sig else frozenset())
        for f in (poly_gauss(1, w.dim, even_axes=even),
                  gaussian(1.0, 1.3, w.dim)):
            margin = cd_margin(w, f, sample=sample)
            worst_margin = min(worst_margin, margin)
            ok &= margin >= -1e-9
    wp = make_weight(Monomial((1.5, 0.0)), 2)
    mup = make_measure(wp, 1.0)
    pairs_fields = [constant(2.0, 2), exp_axis(0.5, 1, 2),
                    gaussian(1.0, 1.2, 2),
                    poly_gauss(0, 2, even_axes=frozenset({0})),
                    squared(hermite_witness(1, 2))]
    worst_ibp = 0.0
    for i, f in enumerate(pairs_fields):
        for g in pairs_fields[i:]:
            worst_ibp = max(worst_ibp,
                            integration_by_parts_residual(mup, f, g))
    ok &= worst_ibp <= 1e-7
    assert _report(6, "Gamma calculus (Bochner O(h^2), CD margin, int-by-parts)",
                   ok, f"ratios~4: {all(abs(r - 4) <= 0.5 for r in ratios)}, "
                       f"min margin={worst_margin:.2e}, ibp={worst_ibp:.2e}")


def test_criterion_7_semigroup_decay():
    ok = True
    grid = np.arange(0.0, 3.25, 0.25)
    assert len(grid) == 13
    for spec, dim in ((Monomial((0.0,)), 1), (Monomial((1.5, 0.0)), 2)):
        w = make_weight(spec, dim)
        mu = make_measure(w, 1.0)
        system = build_galerkin(mu, 12 if dim == 2 else 14)
        sig = w.cone.axis_signature() or tuple(["full"] * dim)
        even = frozenset(i for i, k in enumerate(sig) if k != "full")
        free = w.free_axes()
        axis = free[0] if free else dim - 1
        quad_vec = [0.0] * dim
        quad_vec[axis] = 1.0
        fields = [
            shifted(scaled(squared(affine(quad_vec, 0.0)), 0.2), 1.0),
            exp_axis(0.5, axis, dim),
            shifted(gaussian(1.0, 1.2, dim), 0.05),
            shifted(poly_gauss(21, dim, even_axes=even), 3.0),
            shifted(scaled(hermite_witness(axis, dim), 0.3), 1.5),
        ]
        for f in fields:
            for p, q in ((1.0, 2.0), (1.5, 2.0)):
                res = semigroup_decay_check(system, f, p, q, grid, slack=1e-3)
                ok &= res.decreasing and res.quotient_bounded
    assert _report(7, "semigroup decay (13-point grid, both (p, q) pairs, 5 fields)",
                   ok)


def test_criterion_8_stability():
    ok = True
    weights = [
        make_weight(Monomial((0.0, 0.0)), 2),
        make_weight(Monomial((1.0, 0.0)), 2),
        make_weight(Monomial((1.0, 2.0)), 2),
        make_weight(Radial(1.5), 1),
    ]
    worst_basic = math.inf
    worst_improved = math.inf
    for w in weights:
        mu = make_measure(w)
        for seed in range(20):
            f = poly_gauss(seed + 800, w.dim)
            rep = check_hup_stability(mu, f, improved=True, tolerance=1e-7)
            worst_basic = min(worst_basic, rep.basic_deficit)
            worst_improved = min(worst_improved, rep.improved_deficit)
            ok &= rep.basic_deficit >= -1e-7 and rep.improved_deficit >= -1e-7
    mu = make_measure(weights[1])
    for seed in (801, 805, 811):
        f = poly_gauss(seed, 2)
        fast = distance_to_family(mu, f)
        oracle = brute_force_lambda_scan(mu, f, num=2001)
        ok &= abs(fast.lam - oracle.lam) / oracle.lam <= 1e-6
        ok &= abs(fast.distance - oracle.distance) <= 1e-6 * (1 + oracle.distance)
    assert _report(8, "HUP stability (S1/S2 seeded, optimizer oracle)",
                   ok, f"min basic={worst_basic:.2e}, min improved={worst_improved:.2e}")


def test_criterion_9_determinism_and_interfaces(tmp_path):
    t0 = time.perf_counter()
    cfg = parse_config(REPLICATION_CONFIG)
    rep1 = run(cfg)
    ok = rep1.passed
    bytes1 = emit(rep1, "json")
    bytes2 = emit(run(cfg), "json")
    ok &= bytes1 == bytes2
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 300.0

    # exit-code golden tests through the real CLI
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "dim": 1, "weight": {"kind": "one"}, "quadrature": {"order": 16},
        "suites": ["poincare"], "seed": 0}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dim": 1, "weight": {"kind": "one"}, "quadrature": {"order": 16},
        "suites": ["sobolev"], "seed": 0}))

    def code(args):
        return subprocess.run([sys.executable, "-m", "gausscone.cli", *args],
                              capture_output=True).returncode

    ok &= code(["verify", "--config", str(good)]) == 0
    ok &= code(["verify", "--config", str(bad)]) == 2
    ok &= code(["verify", "--config", str(good),
                "--out", "/nonexistent-dir/x.json"]) == 3
    assert _report(9, "determinism and interfaces (byte-identical JSON, exit codes)",
                   ok, f"replication wall={elapsed:.1f}s, bytes={len(bytes1)}")
