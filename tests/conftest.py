import math

import numpy as np
import pytest

import cirjump as cj
from cirjump.config import parse_config


@pytest.fixture(scope="session")
def const_coeffs():
    # beta = 1, sigma^2 = 2: C(0, t) = e^t - 1, closed forms throughout
    return cj.CoefficientSet(a=cj.constant(0.0), a_tilde=cj.constant(0.0),
                             beta=cj.constant(1.0),
                             sigma=cj.constant(math.sqrt(2.0)),
                             x0=0.0, t_max=2.0)


@pytest.fixture(scope="session")
def pc_coeffs():
    return cj.CoefficientSet(
        a=cj.piecewise_constant([0.6], [0.3, 0.8]),
        a_tilde=cj.piecewise_constant([1.0], [0.4, 0.2]),
        beta=cj.piecewise_constant([0.4, 1.1], [0.5, 2.0, 1.0]),
        sigma=cj.piecewise_constant([0.7], [1.0, 1.5]),
        x0=0.5, t_max=2.0)


@pytest.fixture(scope="session")
def two_atoms():
    return cj.atoms([(0.7, 1.2), (1.8, 0.4)])


@pytest.fixture(scope="session")
def exp_density():
    return cj.density_measure(lambda y: np.exp(-y), rho=None, label="exp")


@pytest.fixture(scope="session")
def lambda_grid():
    return np.array([0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0])


def tempered_power(rho, decay=1.0):
    def density(y):
        y = np.asarray(y, dtype=float)
        return y ** (-(1.0 + rho)) * np.exp(-decay * y)
    return cj.density_measure(density, rho=rho, label=f"tempered(rho={rho})")


# model.nu mappings of the named density kinds, as a run configuration
# gives them; tempered0.4 is the measure of demos/configs/infinite_activity
NAMED = {
    "exponential": {"kind": "exponential", "coef": 2.5, "rate": 0.3},
    "gamma2.5": {"kind": "gamma", "coef": 1.0, "shape": 2.5, "rate": 1.0},
    "gamma0.5": {"kind": "gamma", "coef": 0.7, "shape": 0.5, "rate": 2.0},
    "tempered-0.5": {"kind": "tempered_power", "rho": -0.5},
    "tempered0": {"kind": "tempered_power", "rho": 0.0, "decay": 2.0},
    "tempered0.4": {"kind": "tempered_power", "coef": 1.0, "rho": 0.4},
    "tempered0.95": {"kind": "tempered_power", "coef": 3.0, "rho": 0.95,
                     "decay": 0.5},
}


def named_measure(spec):
    """The jump measure a run configuration builds from the ``model.nu``
    mapping ``spec``."""
    return parse_config({"model": {
        "t_max": 2.0, "a": {"kind": "constant", "value": 0.3},
        "a_tilde": {"kind": "constant", "value": 0.3},
        "beta": {"kind": "constant", "value": 1.0},
        "sigma": {"kind": "constant", "value": 1.0}, "nu": spec}}).nu


@pytest.fixture(scope="session")
def rho04():
    return tempered_power(0.4)


@pytest.fixture(scope="session")
def rho07():
    return tempered_power(0.7)
