"""Both sides of every inequality theorem, with deficits, pass verdicts and
the sharpness sweeps the proofs prescribe.

Conventions: every check is stored as lhs <= rhs with deficit = rhs - lhs.
`verdict` judges it: pass iff deficit >= -scale (1 + |lhs| + |rhs|), scale
the run tolerance (TOLERANCE_SCALE = 1e-7 by default: quadrature-limited,
not theory-limited), and a failed conjugation identity fails at any scale.
`GATES` holds that scale and every other limit that decides a report
record's `pass`.  Checks outside the range the proofs cover (q < 2 in the
Beckner/Poincare family, whose Hoelder step uses q/(q-2)) still run but carry
an informational flag and never fail a suite.

Each check under mu_{w,lambda} reads the order-1 jet of its field at the
measure's nodes from the measure (`Measure.node_jet`), which keeps the last
field's jet, so the Beckner pairs, the three Poincare levels and the LSI on
one field share one jet per measure.  Every integral comes from that jet
through the formulas of `functionals`, so a checker's norms, variance,
entropy and energy are the ones `lq_norm`, `variance`, `entropy` and
`dirichlet_energy` return.  The measure keeps the integrals taken from the
jet with it (`Measure.field_integral`), and its barycenter and covariance,
so the two Beckner pairs take ||f||_1, ||f||_1.5, ||f||_2 and the energy
once, and the Poincare levels the mean and variance, the energy and the
projection vector v once.

Every checker takes the run's `Measure` first, including the ones stated
under nu = w dx (Euclidean LSI, HUP), whose rules come from the measure's
settings.  The scale-dependent Poincare check needs no other rule: for w
homogeneous, mu_{w,lambda} is the image of mu_{w,sigma} under y -> s y,
s = lambda/sigma, so it integrates g(y) = f(s y) on the measure itself, and
its affine gap is Var(g) - v.Cov(x)^{-1} v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractError,
    DegenerateInputError,
    NotHomogeneousError,
    ParameterError,
)
from .fields import ScalarField, _rescaled, gaussian, mass_dilated, one_plus, product
from .functionals import (
    _energy,
    _entropy,
    _lq_norm,
    _mean_variance,
    _moment_rows,
    _nu_moments,
    hup_deficit,
)
from .measures import (
    Measure,
    integrate,
    nu_integral,
    partition_function,
)

TOLERANCE_SCALE = 1e-7


class Gate(NamedTuple):
    value: float | tuple[float, float]
    scale: str  # "run": value times the run tolerance; "fixed": value itself
    kind: str   # "relative" to the size of what it compares, or "absolute"


# Every limit that decides a report record's `pass`, under the theorem of the
# record it gates (a record with several limits has one entry per limit);
# "per_field" gates every record built from an InequalityCheck.
GATES = {
    "per_field": Gate(1.0, "run", "relative"),
    "cd_margin": Gate(1e-9, "fixed", "absolute"),
    "bochner_convergence": Gate((3.5, 4.5), "fixed", "relative"),
    "bochner_convergence_floor": Gate(1e-13, "fixed", "absolute"),
    "bochner_convergence_min_ratios": Gate(5, "fixed", "absolute"),
    "integration_by_parts": Gate(1e-7, "fixed", "relative"),
    "euler_identity": Gate(1e-10, "fixed", "relative"),
    "neumann_admission": Gate(1e-8, "fixed", "absolute"),
    "beckner_sharpness": Gate(1e-3, "fixed", "relative"),
    "poincare_extremal": Gate(1e-9, "fixed", "absolute"),
    "lsi_extremal": Gate(1e-8, "fixed", "relative"),
    "euclidean_lsi_equality": Gate(1e-7, "fixed", "relative"),
    "euclidean_lsi_rescaling": Gate(1e-7, "fixed", "relative"),
    "lsi_equivalence": Gate(1e-7, "fixed", "relative"),
    "lsi_equivalence_log_slack": Gate(1e-12, "fixed", "absolute"),
    "hup_identity": Gate(1e-8, "fixed", "relative"),
    "hup_stability_witness": Gate(1.0, "run", "absolute"),
    "hup_stability_witness_equality_gap": Gate(1e-6, "fixed", "relative"),
    "hup_stability_seeded": Gate(2.0, "run", "absolute"),
    "hup_stability_oracle": Gate(1e-6, "fixed", "relative"),
    "spectral_gap": Gate(1e-6, "fixed", "absolute"),
    "spectral_gap_convergence": Gate(1e-4, "fixed", "relative"),
    "spectral_free_axis_eigenfunction": Gate(1e-8, "fixed", "absolute"),
    "poisson_solve": Gate(1e-6, "fixed", "absolute"),
    "poincare_duality": Gate(1e-7, "fixed", "relative"),
    "poincare_duality_middle": Gate(1e-9, "fixed", "relative"),
    "semigroup_decay": Gate(1e-3, "fixed", "relative"),
    "semigroup_decay_floor": Gate(1e-12, "fixed", "absolute"),
}


def limit(name: str, run_tolerance: float = TOLERANCE_SCALE):
    """The limit of gate `name`, read from GATES when called: its value,
    times the run tolerance if the gate scales with it."""
    gate = GATES[name]
    return gate.value * run_tolerance if gate.scale == "run" else gate.value


@dataclass(frozen=True)
class InequalityCheck:
    theorem: str
    p: float | None
    q: float | None
    lhs: float
    rhs: float
    constant: float
    deficit: float
    informational: bool = False
    diagnostics: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return verdict(self)[0]


def verdict(check: InequalityCheck, scale: float = TOLERANCE_SCALE,
            equality: bool = False) -> tuple[bool, float]:
    """A per-field check's verdict and its tolerance, scale (1 + |lhs| + |rhs|):
    deficit >= -tolerance (and <= tolerance for an equality case), failed at
    every scale by a failed conjugation identity (`identity_ok`, `check_hup`)."""
    tol = scale * (1.0 + abs(check.lhs) + abs(check.rhs))
    ok = check.deficit >= -tol and (not equality or check.deficit <= tol)
    return bool(ok and check.diagnostics.get("identity_ok", True)), tol


def _check(theorem, p, q, lhs, rhs, constant, informational=False,
           diagnostics=None) -> InequalityCheck:
    return InequalityCheck(
        theorem=theorem, p=p, q=q, lhs=float(lhs), rhs=float(rhs),
        constant=float(constant), deficit=float(rhs - lhs),
        informational=informational, diagnostics=diagnostics or {})


def _field_lq_norm(measure: Measure, f: ScalarField, q: float) -> float:
    """||f||_q under mu, taken once per field and measure."""
    return measure.field_integral(
        f, ("lq_norm", q), lambda vals, _: _lq_norm(measure, vals, q))


def _field_energy(measure: Measure, f: ScalarField, q: float) -> float:
    """int |grad f|^q dmu, taken once per field and measure."""
    return measure.field_integral(
        f, ("energy", q), lambda _, grad: _energy(measure, grad, q))


def _field_projection(measure: Measure, f: ScalarField, mean: float) -> np.ndarray:
    """The Poincare projection v = int (f - mean) x dmu, taken once per field
    and measure, each component summed over one contiguous row of a block's
    axis-first nodes."""
    return measure.field_integral(f, ("projection",), lambda vals, _: integrate(
        measure, lambda x, fv: ((fv - mean) * x.T).T, vals))


# ---------------------------------------------------------------------------
# Beckner family
# ---------------------------------------------------------------------------

def check_beckner(measure: Measure, f: ScalarField, p: float,
                  q: float) -> InequalityCheck:
    """(||f||_q^2 - ||f||_p^2)/(q-p) <= (1/(1+K_w)) (int |grad f|^q)^{2/q}."""
    if not (1.0 <= p < q):
        raise ParameterError("need 1 <= p < q")
    kw = measure.weight.kw
    nq = _field_lq_norm(measure, f, q)
    np_ = _field_lq_norm(measure, f, p)
    lhs = (nq ** 2 - np_ ** 2) / (q - p)
    energy = _field_energy(measure, f, q)
    rhs = energy ** (2.0 / q) / (1.0 + kw)
    return _check("beckner", p, q, lhs, rhs, 1.0 / (1.0 + kw),
                  informational=q < 2.0,
                  diagnostics={"norm_q": nq, "norm_p": np_, "energy_q": energy,
                               "note": "outside verified q-range" if q < 2.0 else ""})


def check_poincare(measure: Measure, f: ScalarField, q: float = 2.0,
                   level: str = "basic") -> InequalityCheck:
    """Poincare inequality and its gradient/L2 stability refinements."""
    kw = measure.weight.kw
    c = 1.0 + kw
    if level == "basic":
        if q < 1.0:
            raise ParameterError("q must be >= 1")
    elif level not in ("gradient_stability", "l2_stability"):
        raise ParameterError(f"unknown Poincare level {level!r}")
    elif q != 2.0:
        raise ParameterError("stability levels are stated at q = 2 only")
    mean, var = measure.field_integral(
        f, ("mean_variance",), lambda vals, _: _mean_variance(measure, vals))
    energy = _field_energy(measure, f, q)
    if level == "basic":
        rhs = energy ** (2.0 / q) / c
        return _check("poincare", None, q, var, rhs, 1.0 / c,
                      informational=q < 2.0,
                      diagnostics={"variance": var, "energy_q": energy})
    rhs = energy - c * var
    v = _field_projection(measure, f, mean)
    mx = measure.barycenter()
    vals, grad = measure.node_jet(f)
    if level == "gradient_stability":
        # lhs = (1/2) int |grad f - c v|^2 dmu, the squares added one axis at
        # a time in the order np.sum(..., axis=1) adds them
        def grad_gap(x, d):
            sq = np.zeros(len(d))
            for g, cv in zip(d.T, c * v):
                g = g - cv
                g *= g
                sq += g
            return sq

        lhs = 0.5 * integrate(measure, grad_gap, grad)
        return _check("poincare_gradient_stability", None, 2.0, lhs, rhs, c,
                      diagnostics={"projection_vector": v.tolist(),
                                   "variance": var, "energy": energy})
    # lhs = (c/2) int pi^2 dmu with pi = f - mean - c (x - mx).v, formed on
    # each block of nodes; expanding (x - mx).v with v = vf - mean mx,
    # vf = int f x dmu, gives the terms reported below, which sum to pi
    def l2_gap(x, fv):
        pi = fv - mean - c * ((x - mx) @ v)
        pi *= pi
        return pi

    lhs = 0.5 * c * integrate(measure, l2_gap, vals)
    vf = v + mean * mx
    return _check("poincare_l2_stability", None, 2.0, lhs, rhs, c,
                  diagnostics={
                      "mean": mean, "first_moment": vf.tolist(),
                      "measure_barycenter": mx.tolist(),
                      "term_const": -mean, "term_fx_scale": (-c * vf).tolist(),
                      "term_mean_x_scale": (c * mean * mx).tolist(),
                      "term_mean_barycenter_sq": -c * mean * float(mx @ mx),
                      "term_fx_dot_barycenter": c * float(vf @ mx),
                      "variance": var, "energy": energy})


def check_scale_poincare(measure: Measure, f: ScalarField, lam: float,
                         level: str = "basic") -> InequalityCheck:
    """Scale-dependent Poincare inequality under mu_{w,lambda}, w homogeneous,
    on the run's measure mu_{w,sigma}, whose image under y -> s y is
    mu_{w,lambda} (s = lambda/sigma).  With g(y) = f(s y), the basic level is
    c Var(g)/lambda^2 <= E(g)/s^2 and the improved level c Var(g) + (c/2) gap
    <= sigma^2 E(g), gap = inf_{a,b} int |f - a - b.x|^2 dmu_{w,lambda} =
    Var(g) - v.Cov(x)^{-1} v, v = int (g - mean) x dmu, Cov(x) its covariance."""
    if lam <= 0:
        raise ParameterError("lambda must be positive")
    if level not in ("basic", "improved"):
        raise ParameterError(f"unknown scale level {level!r}")
    if not measure.weight.is_homogeneous:
        raise NotHomogeneousError("the scale dilation needs a homogeneous weight")
    c = 1.0 + measure.weight.kw
    s = lam / measure.scale
    g = f if s == 1.0 else _rescaled(f, f"dilated({f.name},{s})", s, 1.0)
    mean, var = measure.field_integral(
        g, ("mean_variance",), lambda vals, _: _mean_variance(measure, vals))
    energy = _field_energy(measure, g, 2.0)
    if level == "basic":
        lhs = c / (lam * lam) * var
        return _check("scale_poincare", None, 2.0, lhs, energy / s ** 2,
                      c / lam ** 2, diagnostics={"lambda": lam, "variance": var})
    v = _field_projection(measure, g, mean)
    try:
        coef = np.linalg.solve(measure.covariance(), v)
    except np.linalg.LinAlgError:
        raise DegenerateInputError(
            f"singular affine Gram matrix on a {len(measure.nodes)}-node rule"
        ) from None
    affine_gap = max(var - float(v @ coef), 0.0)
    lhs = c * var + 0.5 * c * affine_gap
    rhs = measure.scale ** 2 * energy
    return _check("scale_poincare_improved", None, 2.0, lhs, rhs, c,
                  diagnostics={"lambda": lam, "variance": var,
                               "affine_gap": affine_gap})


# ---------------------------------------------------------------------------
# log-Sobolev family
# ---------------------------------------------------------------------------

def check_lsi(measure: Measure, f: ScalarField, q: float = 2.0) -> InequalityCheck:
    """Gaussian-measure log-Sobolev inequality.

    q = 2 reports Ent(f^2) <= (2/(1+K_w)) int |grad f|^2 dmu; general q uses
    the unnormalized form (2/q^2) (int |f|^q)^{2/q-1} Ent(|f|^q) <= rhs, which
    reduces to the normalized statement when ||f||_q = 1.
    """
    if q < 2.0:
        raise ParameterError("the LSI family is stated for q >= 2")
    kw = measure.weight.kw
    vals, _ = measure.node_jet(f)
    ent_q, iq = _entropy(measure, lambda x, v: np.abs(v) ** q, vals)
    energy = _field_energy(measure, f, q)
    lhs_gen = (2.0 / q ** 2) * iq ** (2.0 / q - 1.0) * ent_q
    rhs_gen = energy ** (2.0 / q) / (1.0 + kw)
    if q == 2.0:
        lhs, rhs = 2.0 * lhs_gen, 2.0 * rhs_gen
        constant = 2.0 / (1.0 + kw)
    else:
        lhs, rhs = lhs_gen, rhs_gen
        constant = 1.0 / (1.0 + kw)
    return _check("lsi", None, q, lhs, rhs, constant,
                  diagnostics={"entropy_q": ent_q, "mass_q": iq,
                               "energy_q": energy})


def _c_lsih(measure: Measure) -> tuple[float, float, float]:
    c_w = 1.0 / partition_function(measure)
    n_alpha = measure.weight.dim + measure.weight.degree
    return 4.0 * c_w ** (2.0 / n_alpha) / (math.e * n_alpha), c_w, n_alpha


def check_euclidean_lsi(measure: Measure, f: ScalarField) -> InequalityCheck:
    """Sharp Euclidean LSI for log-concave homogeneous weights:

        Ent_nu(f^2) <= (n+alpha)/2 * int f^2 dnu * log(C_LSIH * A / B)

    with C_LSIH = 4 C_w^{2/(n+alpha)} / (e (n+alpha)); equality at Gaussians
    A e^{-|x|^2/4}."""
    weight = measure.weight
    if not weight.is_homogeneous:
        raise ContractError("Euclidean LSI requires a homogeneous weight")
    if weight.kw != 0.0:
        raise ContractError("Euclidean LSI requires a log-concave weight (K_w = 0)")
    c_lsih, c_w, n_alpha = _c_lsih(measure)
    m = _nu_moments(measure, f, entropy=True)
    b, a = m.norm_sq, m.energy
    if b <= 0:
        raise DegenerateInputError("zero field")
    ent = m.sq_log_sq - b * math.log(b)
    rhs = 0.5 * n_alpha * b * math.log(c_lsih * a / b)
    return _check("euclidean_lsi", None, 2.0, ent, rhs, c_lsih,
                  diagnostics={"C_w": c_w, "n_plus_alpha": n_alpha,
                               "mass": b, "energy": a})


def check_lsi_equivalence(measure: Measure, big_f: ScalarField) -> dict:
    """Term-by-term bookkeeping tying the Euclidean LSI to the Gaussian one.

    forward: with h = sqrt(C_w) e^{-|x|^2/4} and f = F h,
        Ent_mu(F^2) = Ent_nu(f^2) - int f^2 log h^2 dnu
        int |grad F|^2 dmu = int |grad f|^2 dnu - (n+alpha)/2 int f^2 dnu
                             + 1/4 int |x|^2 f^2 dnu
    backward: the linearization log t <= s t - log s - 1 at s = e/C_w^{2/(n+a)}
    turns the Euclidean bound into Ent_mu(F^2) <= 2 int |grad F|^2 dmu; the
    coefficient of int |x|^2 f^2 dnu in that assembly cancels exactly.
    """
    weight = measure.weight
    if not weight.is_homogeneous or weight.kw != 0.0:
        raise ContractError("requires a log-concave homogeneous weight")
    c_lsih, c_w, n_alpha = _c_lsih(measure)
    h = gaussian(math.sqrt(c_w), math.sqrt(2.0), weight.dim)
    f = product(big_f, h)

    # every term evaluates on the same rate-matched rule (2 rate_F + 1/2 is
    # exactly twice the decay rate of f = F h), so the bookkeeping identities
    # are checked at quadrature precision; the mu side sums F's rows (the
    # rule carries mu's Gaussian) and the nu side f's, in two separate
    # passes, so the identities compare independent evaluations
    mass_mu, energy_mu, _, _, vlogv_mu = (c_w * float(v) for v in nu_integral(
        measure, lambda pts: _moment_rows(big_f, pts, True),
        2.0 * big_f.decay.rate + 0.5))
    ent_mu = vlogv_mu - mass_mu * math.log(mass_mu)

    m = _nu_moments(measure, f, entropy=True)
    b, a, d = m.norm_sq, m.energy, m.moment
    if b <= 0:
        raise DegenerateInputError("zero field")
    ent_nu = m.sq_log_sq - b * math.log(b)
    f2_log_h2 = math.log(c_w) * b - 0.5 * d

    scale = 1.0 + abs(ent_mu) + abs(ent_nu) + abs(energy_mu)
    res_entropy = abs(ent_mu - (ent_nu - f2_log_h2)) / scale
    res_energy = abs(energy_mu - (a - 0.5 * n_alpha * b + 0.25 * d)) / scale

    # backward assembly: Ent_nu(f^2) <= 2A + (log C_w - (n+alpha)) B after the
    # log linearization; subtracting int f^2 log h^2 dnu from both sides and
    # substituting f = F h must land exactly on the Gaussian LSI.  The
    # coefficient of D in the pre-linearization assembly is 2*(1/4) - 1/2.
    d_coefficient = 2.0 * 0.25 - 0.5
    euclid_linear_rhs = 2.0 * a + (math.log(c_w) - n_alpha) * b
    gaussian_rhs_via_euclid = euclid_linear_rhs - f2_log_h2
    res_backward = abs(2.0 * energy_mu - gaussian_rhs_via_euclid) / scale

    t_arg = c_lsih * a / b
    s_arg = math.e / c_w ** (2.0 / n_alpha)
    log_slack = s_arg * t_arg - math.log(s_arg) - 1.0 - math.log(t_arg)

    tol = limit("lsi_equivalence")
    return {
        "forward_residual": max(res_entropy, res_energy),
        "backward_residual": res_backward,
        "entropy_residual": res_entropy,
        "energy_residual": res_energy,
        "d_coefficient": d_coefficient,
        "log_inequality_slack": log_slack,
        "gaussian_lsi_holds": bool(
            ent_mu <= 2.0 * energy_mu + tol * scale),
        "euclidean_lsi_holds": bool(
            ent_nu <= 0.5 * n_alpha * b * math.log(t_arg) + tol * scale),
        "pass": bool(max(res_entropy, res_energy) <= tol
                     and res_backward <= tol
                     and d_coefficient == 0.0
                     and log_slack >= -limit("lsi_equivalence_log_slack")),
    }


def euclidean_lsi_rescaling_invariance(measure: Measure, f: ScalarField,
                                       lam: float = 2.0) -> dict:
    """Relative change of the Euclidean-LSI deficit under the mass-preserving
    dilation f_lam = lam^{(n+alpha)/2} f(lam x); zero in exact arithmetic."""
    base = check_euclidean_lsi(measure, f)
    n_alpha = measure.weight.dim + measure.weight.degree
    f_lam = mass_dilated(f, lam, n_alpha)
    scaled = check_euclidean_lsi(measure, f_lam)
    denom = 1.0 + abs(base.rhs) + abs(scaled.rhs)
    return {
        "deficit": base.deficit,
        "deficit_rescaled": scaled.deficit,
        "relative_change": abs(base.deficit - scaled.deficit) / denom,
    }


# ---------------------------------------------------------------------------
# HUP wrapper
# ---------------------------------------------------------------------------

def check_hup(measure: Measure, f: ScalarField) -> InequalityCheck:
    """sqrt(energy) sqrt(moment) >= (n+alpha)/2 * norm; the deficit is
    delta_w(f) and the conjugation-identity residual rides in diagnostics."""
    res = hup_deficit(measure, f)
    n_alpha = measure.weight.dim + measure.weight.degree
    lhs = 0.5 * n_alpha * res.norm_sq
    rhs = math.sqrt(res.energy) * math.sqrt(res.moment)
    identity_ok = res.identity_residual <= limit("hup_identity") * (1.0 + abs(res.delta))
    return _check("hup", None, 2.0, lhs, rhs, 0.5 * n_alpha,
                  diagnostics={"delta": res.delta,
                               "identity_residual": res.identity_residual,
                               "lambda_star": res.lambda_star,
                               "identity_ok": identity_ok})


# ---------------------------------------------------------------------------
# sharpness sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    parameter: float | str
    lhs: float
    rhs: float
    deficit: float
    deficit_over_eps_sq: float | None
    ratio: float | None


@dataclass(frozen=True)
class SweepResult:
    kind: str
    rows: tuple[SweepRow, ...]
    extrapolated_ratio: float | None


def sharpness_sweep(check_fn, kind: str, *, u: ScalarField | None = None,
                    eps_list=None, members=None) -> SweepResult:
    """Run a checker along a perturbation family f = 1 + eps u (reporting
    deficit/eps^2 and the lhs/rhs ratio with a Richardson limit on the two
    smallest eps) or along explicit extremal members (absolute deficits)."""
    if kind == "perturbation":
        if u is None or eps_list is None or len(eps_list) < 2:
            raise ParameterError("perturbation sweeps need u and >= 2 eps values")
        rows = []
        ratios = {}
        for eps in sorted(set(float(e) for e in eps_list), reverse=True):
            chk = check_fn(one_plus(eps, u))
            ratio = chk.lhs / chk.rhs if chk.rhs != 0 else None
            rows.append(SweepRow(eps, chk.lhs, chk.rhs, chk.deficit,
                                 chk.deficit / eps ** 2, ratio))
            ratios[eps] = ratio
        two = sorted(ratios)[:2]  # two smallest eps
        extrapolated = None
        if len(two) == 2 and all(ratios[e] is not None for e in two):
            e2, e1 = two[0], two[1]
            # odd perturbations have even-in-eps expansions
            k = 2 if u.odd_axes else 1
            w1, w2 = e1 ** k, e2 ** k
            extrapolated = (w1 * ratios[e2] - w2 * ratios[e1]) / (w1 - w2)
        return SweepResult("perturbation", tuple(rows), extrapolated)
    if kind == "extremal":
        if not members:
            raise ParameterError("extremal sweeps need family members")
        rows = []
        for g in members:
            chk = check_fn(g)
            rows.append(SweepRow(g.name, chk.lhs, chk.rhs, chk.deficit, None,
                                 chk.lhs / chk.rhs if chk.rhs != 0 else None))
        return SweepResult("extremal", tuple(rows), None)
    raise ParameterError(f"unknown sweep kind {kind!r}")
