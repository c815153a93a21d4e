import pytest

from ghl import geometry as geo
from ghl.fileio import bundled_path, load_ghl

from pathlib import Path

TEST_DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def abelian2():
    return load_ghl(bundled_path("abelian2"))


@pytest.fixture(scope="session")
def sphere():
    return load_ghl(bundled_path("sphere"))


@pytest.fixture(scope="session")
def iwasawa():
    return load_ghl(bundled_path("iwasawa"))


@pytest.fixture(scope="session")
def kodaira():
    return load_ghl(bundled_path("kodaira"))


@pytest.fixture(scope="session")
def kodaira_thurston():
    return load_ghl(bundled_path("kodaira-thurston"))


@pytest.fixture(scope="session")
def kt_exact():
    return load_ghl(TEST_DATA / "kt-exact.ghl")


@pytest.fixture(scope="session")
def all_bundled(abelian2, sphere, iwasawa, kodaira, kodaira_thurston):
    return {
        "abelian2": abelian2,
        "sphere": sphere,
        "iwasawa": iwasawa,
        "kodaira": kodaira,
        "kodaira-thurston": kodaira_thurston,
    }


@pytest.fixture(scope="session")
def s2_tuples(all_bundled):
    """The s = 2 Hermitian tuple of each bundled spec, built once per session.

    verify=True raises on any (X1) failure, so every test using this fixture
    goes red when an identity fails."""
    return {name: geo.hermitian_s_tuple(loaded.spec, s=2, verify=True)
            for name, loaded in all_bundled.items()}
