"""Shared fixtures: the two bundled fishery populations and a random-params
generator used by the algebraic property suites."""

from __future__ import annotations

from importlib.resources import files

import numpy as np
import pytest

from medaux import MedianParams, load_params


def bundled_params_path(name: str) -> str:
    return str(files("medaux.data").joinpath(name))


@pytest.fixture(scope="session")
def pop1() -> MedianParams:
    return load_params(bundled_params_path("popI.json"))


@pytest.fixture(scope="session")
def pop2() -> MedianParams:
    return load_params(bundled_params_path("popII.json"))


def draw_params(rng: np.random.Generator) -> MedianParams:
    """One random valid parameter vector.

    Ranges keep the vector in the regime the closed forms assume: moderate
    sampling fractions, medians well away from zero, coefficients of
    variation in [0.3, 4], concordance bounded away from +-1, and a median
    ratio in [0.1, 1.9] kept at least 0.02 away from the degenerate pivot
    R = 1.
    """
    n = int(rng.integers(30, 200))
    N = n * int(rng.integers(5, 20))
    median_y = float(rng.uniform(10.0, 1e4))
    while True:
        ratio = float(rng.uniform(0.1, 1.9))
        if abs(ratio - 1.0) >= 0.02:
            break
    median_x = ratio * median_y
    cv_y = float(rng.uniform(0.3, 4.0))
    cv_x = float(rng.uniform(0.3, 4.0))
    rho_c = float(rng.uniform(-0.95, 0.95))
    return MedianParams(
        N=N,
        n=n,
        median_y=median_y,
        median_x=median_x,
        fy_at_median=1.0 / (median_y * cv_y),
        fx_at_median=1.0 / (median_x * cv_x),
        rho_c=rho_c,
    )
