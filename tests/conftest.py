import sys

import numpy as np
import pytest

from gausscone import measures
from gausscone.measures import make_measure
from gausscone.weights import GaussianTilt, Monomial, make_weight


@pytest.fixture(scope="session")
def w_one_1d():
    return make_weight(Monomial((0.0,)), 1)


@pytest.fixture(scope="session")
def w_one_2d():
    return make_weight(Monomial((0.0, 0.0)), 2)


@pytest.fixture(scope="session")
def w_partial():
    """|x_1|^1.5 on the half-plane {x_1 > 0} x R."""
    return make_weight(Monomial((1.5, 0.0)), 2)


@pytest.fixture(scope="session")
def w_mono_12():
    return make_weight(Monomial((1.0, 2.0)), 2)


@pytest.fixture(scope="session")
def w_tilt():
    return make_weight(GaussianTilt(-0.5), 1)


@pytest.fixture(scope="session")
def mu_one_1d(w_one_1d):
    return make_measure(w_one_1d, 1.0)


@pytest.fixture(scope="session")
def mu_one_2d(w_one_2d):
    return make_measure(w_one_2d, 1.0)


@pytest.fixture(scope="session")
def mu_partial(w_partial):
    return make_measure(w_partial, 1.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def nu_calls(monkeypatch):
    """List of the measures.nu_integral calls made while the test runs: every
    gausscone module attribute bound to it points at a counting wrapper."""
    original = measures.nu_integral
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("gausscone")
                and getattr(module, "nu_integral", None) is original):
            monkeypatch.setattr(module, "nu_integral", counting)
    return calls
