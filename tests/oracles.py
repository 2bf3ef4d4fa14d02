"""Reference values computed independently of `gausscone.quad1d`, in mpmath.

`gamma_moment` is the Gamma closed form of the half-line moments at 30
digits, and `halfline_recurrence` is the Chebyshev algorithm on those
moments in working precision 40 + 4 order digits (the moment map loses
roughly two digits per level), so neither shares arithmetic with the
float64 discretized Lanczos of the library.
"""

from functools import lru_cache

import mpmath as mp
import numpy as np


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
