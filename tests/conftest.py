import numpy as np
import pytest

from holobc.geometry import build_chart_cover, classify_stratum, locate_strata
from holobc.pairing import form_from_expressions, plateau_cutoff
from holobc.quadrature import QuadratureSpec
from holobc.scenario import build_domain, load_scenario


@pytest.fixture(scope="session")
def square_domain():
    return build_domain(load_scenario("square"))


@pytest.fixture(scope="session")
def square_strata(square_domain):
    return [classify_stratum(square_domain, st)
            for st in locate_strata(square_domain)]


@pytest.fixture(scope="session")
def square_cover(square_domain):
    return build_chart_cover(square_domain)


@pytest.fixture(scope="session")
def bidisc_domain():
    return build_domain(load_scenario("bidisc"))


@pytest.fixture(scope="session")
def x_form():
    cutoff = plateau_cutoff(np.array([1.0 + 1.0j]), 1.6, 2.2)
    return form_from_expressions("x", 1, cutoff=cutoff, label="x dz cutoff")


@pytest.fixture(scope="session")
def fast_spec():
    # loose enough to keep unit tests snappy, tight enough for 1e-8 checks
    return QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11,
                          max_subdivisions=60_000, corner_refine_depth=5)
