import os

import pytest
from hypothesis import settings

from ratpert import MapSpec, iterate_orbit

# One profile for every property test: no per-example deadline, which fails
# on timing alone on a loaded machine, and the reproducing blob printed with
# any failure.  HYPOTHESIS_PROFILE may name another registered profile.
settings.register_profile("ratpert", deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ratpert"))


@pytest.fixture(scope="session")
def chebyshev_map():
    return MapSpec.unicritical(2, -2)


@pytest.fixture(scope="session")
def chebyshev_orbit(chebyshev_map):
    # orbit 0, -2, 2, 2, ...; cocycle 1, -4, -16, ...; the canonical
    # closed-form test case (geometric everything)
    return iterate_orbit(chebyshev_map, 0j, n_max=300, escape_radius=10.0)


@pytest.fixture(scope="session")
def squaring_map():
    return MapSpec.unicritical(2, 0)
