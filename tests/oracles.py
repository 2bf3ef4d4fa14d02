"""Reference values computed independently of `gausscone.quad1d`, in mpmath,
and reference assemblies of product rules independent of `gausscone.measures`.

`gamma_moment` is the Gamma closed form of the half-line moments at 30
digits, and `halfline_recurrence` is the Chebyshev algorithm on those
moments in working precision 40 + 4 order digits (the moment map loses
roughly two digits per level), so neither shares arithmetic with the
float64 discretized Lanczos of the library.

`axis_rule`, `tensor_grid` and `polar_rule` assemble tensor and polar rules
from the 1-D rules of `quad1d` with a meshgrid and an r x theta outer
product, in the same floating-point operations as the block product of
`measures`, so the two must agree bit for bit.

`monomial_log_w`, `monomial_grad_log` and `monomial_hess_log` are the
per-axis formulas of a monomial weight prod |x_i|^a_i, axis by axis with
the zero exponents skipped; the Dunkl product of the coordinate roots must
reproduce them bit for bit.

`nu_fold` is the rate-matched fold of `measures.nu_integral` with the
integrand called once on the whole node array, weighted in the same
floating-point operations as its node blocks and summed in the documented
order, block sums of NODE_BLOCK nodes added in order, so the two must agree
bit for bit; with `block=None` it is the one whole-array sum.

`mc_rule` is the Monte Carlo rule of `measures` from one draw of the whole
(samples, n) Philox stream, folded and weighted on the whole array at once;
the rule `measures` draws and folds block by block must equal it bit for bit.

`scale_poincare` is the scale-dependent Poincare check computed the direct
way, on the scale-lambda measure itself: the variance and energy of f on
its whole node array, and the affine gap as the mean square residual of
the least-squares fit of f in the basis (1, x_1, ..., x_n), from the
normal equations of that basis's Gram matrix.
"""

import math
from functools import lru_cache

import mpmath as mp
import numpy as np

from gausscone.measures import NODE_BLOCK, McInfo, QuadratureRule, _fold_to_cone
from gausscone.quad1d import fullline_rule, halfline_rule


def gamma_moment(a: float, k: int) -> float:
    """int_0^inf t^(a+k) e^(-t^2/2) dt = 2^((a+k-1)/2) Gamma((a+k+1)/2)."""
    with mp.workdps(30):
        am = mp.mpf(a)  # promote before any arithmetic touches the exponent
        return float(mp.power(2, (am + k - 1) / 2) * mp.gamma((am + k + 1) / 2))


@lru_cache(maxsize=None)
def halfline_recurrence(a: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Monic recurrence (alpha_k, beta_k), k < order, of t^a e^(-t^2/2) on
    (0, inf); beta_0 is the mass."""
    with mp.workdps(40 + 4 * order):
        # promote the exponent before any arithmetic: computing a + k in
        # double first would poison the moments at ~1e-15 relative, which the
        # moment->recurrence map amplifies beyond repair at this order
        am = mp.mpf(a)
        m = [mp.power(2, (am + k - 1) / 2) * mp.gamma((am + k + 1) / 2)
             for k in range(2 * order)]
        sig_prev = [mp.mpf(0)] * (2 * order)
        sig = list(m)
        alpha = [m[1] / m[0]]
        beta = [m[0]]
        for k in range(1, order):
            sig_new = [mp.mpf(0)] * (2 * order)
            for ell in range(k, 2 * order - k):
                sig_new[ell] = (sig[ell + 1] - alpha[k - 1] * sig[ell]
                                - beta[k - 1] * sig_prev[ell])
            alpha.append(sig_new[k + 1] / sig_new[k] - sig[k] / sig[k - 1])
            beta.append(sig_new[k] / sig[k - 1])
            sig_prev, sig = sig, sig_new
        return (np.array([float(x) for x in alpha]),
                np.array([float(x) for x in beta]))


def axis_rule(a: float, kind: str, tilt: float, lam: float, order: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of |t|^a e^(-tilt t^2/2) e^(-t^2/(2 lam^2)) on the
    full line ("full") or the half line ("half+", or "half-" mirrored)."""
    lam_eff = 1.0 / math.sqrt(1.0 / (lam * lam) + tilt)
    t, q = (fullline_rule if kind == "full" else halfline_rule)(float(a), order)
    if kind == "half-":
        t = -t
    return lam_eff * t, lam_eff ** (a + 1.0) * q


def tensor_grid(axis_nodes, axis_weights) -> tuple[np.ndarray, np.ndarray]:
    """(N, n) nodes and (N,) weights of the tensor product of 1-D rules;
    the last axis varies fastest."""
    grids = np.meshgrid(*axis_nodes, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids]).T
    weights = np.ones(len(nodes))
    for g in np.meshgrid(*axis_weights, indexing="ij"):
        weights = weights * g.ravel()
    return nodes, weights


def polar_rule(alpha: float, lam: float, order: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """|x|^alpha e^(-|x|^2/(2 lam^2)) on the plane: the half-line rule in r
    for r^(alpha+1) times a (2 order + 2)-point trapezoid in theta."""
    r, qr = halfline_rule(float(alpha) + 1.0, order)
    r, qr = lam * r, lam ** (alpha + 2.0) * qr
    m_theta = 2 * order + 2
    theta = (np.arange(m_theta) + 0.5) * (2.0 * np.pi / m_theta)
    nodes = np.stack([np.outer(r, np.cos(theta)).ravel(),
                      np.outer(r, np.sin(theta)).ravel()]).T
    weights = np.outer(qr, np.full(m_theta, 2.0 * np.pi / m_theta)).ravel()
    return nodes, weights


def nu_fold(rule, integrand, rate: float, block: int | None = NODE_BLOCK
            ) -> np.ndarray:
    """sum_i q_i integrand(x_i) e^(rate |x_i|^2) over the rule (x_i, q_i),
    with the integrand called once on all N nodes: the (...) array of the
    integrals of an (N, ...) integrand, summed over `block` nodes at a time
    with the block sums added in order (block=None: one whole-array sum)."""
    vals = np.asarray(integrand(rule.nodes), dtype=float)
    gauss = np.exp(rate * np.sum(rule.nodes ** 2, axis=1))
    folded = np.multiply(np.moveaxis(vals, 0, -1), gauss, order="C")
    folded *= rule.weights
    size = folded.shape[-1]
    block = size if block is None else block
    total = np.sum(folded[..., :block], axis=-1)
    for k in range(block, size, block):
        total = total + np.sum(folded[..., k:k + block], axis=-1)
    return total


def mc_rule(weight, lam: float, samples: int, seed: int) -> QuadratureRule:
    """The Monte Carlo rule of `measures` from one (samples, n) draw."""
    dim = weight.dim
    alpha = weight.degree if weight.degree is not None else 0.0
    sigma = lam * math.sqrt((dim + alpha) / dim) * 1.1
    rng = np.random.Generator(np.random.Philox(key=seed))
    # the (samples, dim) draws of the stream, stored axis-first
    z = np.asfortranarray(sigma * rng.standard_normal((samples, dim)))
    x, mult = _fold_to_cone(weight.cone, z)
    r2 = np.sum(x ** 2, axis=1)
    log_prop = (-0.5 * r2 / sigma ** 2
                - dim * math.log(sigma * math.sqrt(2.0 * math.pi))
                + math.log(mult))
    log_target = weight.spec.log_w(x) - 0.5 * r2 / lam ** 2
    log_ratio = log_target - log_prop
    good = np.isfinite(log_ratio)  # zero-set hits carry zero weight
    w = np.zeros(samples)
    w[good] = np.exp(log_ratio[good]) / samples
    inside = weight.cone.is_interior(x, tol=1e-300)
    w[~inside] = 0.0
    return QuadratureRule(x, w, "monte_carlo", lam, float(np.sum(w)),
                          mc=McInfo(seed=seed, samples=samples, proposal_sigma=sigma))


def monomial_log_w(exps, pts: np.ndarray) -> np.ndarray:
    """sum_i a_i log|x_i| over the positive exponents."""
    out = np.zeros(len(pts))
    with np.errstate(divide="ignore"):
        for i, a in enumerate(exps):
            if a > 0:
                out += a * np.log(np.abs(pts[:, i]))
    return out


def monomial_grad_log(exps, pts: np.ndarray) -> np.ndarray:
    """(N, n): a_i / x_i on the axes with a positive exponent, 0 elsewhere."""
    out = np.zeros(pts.shape[::-1])
    for i, a in enumerate(exps):
        if a > 0:
            out[i] = a / pts[:, i]
    return out.T


def monomial_hess_log(exps, pts: np.ndarray) -> np.ndarray:
    """(N, n, n): diagonal -a_i / x_i^2 on the axes with a positive exponent."""
    n = pts.shape[1]
    out = np.zeros((n, n, len(pts)))
    for i, a in enumerate(exps):
        if a > 0:
            out[i, i] = -a / pts[:, i] ** 2
    return out.transpose(2, 0, 1)


def scale_poincare(measure_at_lam, f, c: float, level: str) -> dict:
    """lhs, rhs, variance and affine gap of the scale-dependent Poincare
    check at lambda = measure_at_lam.scale, with c = 1 + K_w, from sums over
    the whole node array of the scale-lambda measure."""
    lam = measure_at_lam.scale
    x = measure_at_lam.nodes
    q = measure_at_lam.rule.weights * measure_at_lam.normalization
    vals, grad = f.jet(x, 1)
    mean = q @ vals
    var = q @ (vals - mean) ** 2
    energy = q @ np.sum(grad ** 2, axis=1)
    basis = np.vstack([np.ones(len(x)), x.T])
    coef = np.linalg.solve((basis * q) @ basis.T, (basis * q) @ vals)
    gap = q @ (vals - coef @ basis) ** 2
    if level == "basic":
        return {"lhs": c * var / lam ** 2, "rhs": energy, "variance": var,
                "affine_gap": None}
    return {"lhs": c * var + 0.5 * c * gap, "rhs": lam ** 2 * energy,
            "variance": var, "affine_gap": gap}
