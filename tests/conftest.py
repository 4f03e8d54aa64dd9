import pytest
from hypothesis import settings

from hopfhomology.bialgebroid import galois_map
from hopfhomology.instances import builtin_instances
from hopfhomology.resolutions import bar_resolution

# Property tests replay the same generated cases on every run, and a slow
# shared host never fails them on a deadline.
settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, max_examples=100
)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def catalog():
    return builtin_instances()


@pytest.fixture(scope="session")
def qs3(catalog):
    return catalog["qs3"]


@pytest.fixture(scope="session")
def qs3_bar(qs3):
    return bar_resolution(qs3.data, 4)


@pytest.fixture(scope="session")
def env_qeps(catalog):
    return catalog["env-qeps"]


@pytest.fixture(scope="session")
def env_qeps_hopf(env_qeps):
    return galois_map(env_qeps.data)


@pytest.fixture(scope="session")
def env_qeps_bar(env_qeps):
    return bar_resolution(env_qeps.data, 4)


@pytest.fixture(scope="session")
def env_qeps_products(env_qeps_hopf, env_qeps_bar):
    from hopfhomology.products import BarProducts

    return BarProducts(env_qeps_hopf, env_qeps_bar, 3)


@pytest.fixture(scope="session")
def sweedler(catalog):
    return catalog["sweedler"]


@pytest.fixture(scope="session")
def sweedler_hopf(sweedler):
    return galois_map(sweedler.data)
