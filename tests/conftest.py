from types import SimpleNamespace

import pytest

import phaseframe as pf
from phaseframe import groups


@pytest.fixture
def no_enumeration(monkeypatch):
    """Fail on any group element enumeration, so a missing size guard fails, never hangs."""
    def refuse(*ranges):
        raise AssertionError("group enumerated")

    monkeypatch.setattr(groups, "itertools", SimpleNamespace(product=refuse))


@pytest.fixture(scope="session")
def weyl3():
    return pf.weyl_frame(3)


@pytest.fixture(scope="session")
def weyl5():
    return pf.weyl_frame(5)


@pytest.fixture(scope="session")
def qubit_ppp():
    return pf.qubit_frame((1, 1, 1))


@pytest.fixture(scope="session")
def qubit_ppm():
    return pf.qubit_frame((1, 1, -1))


@pytest.fixture(scope="session")
def tensor_qq(qubit_ppp):
    return pf.tensor_frame(qubit_ppp, qubit_ppp)


@pytest.fixture(scope="session")
def leonhardt2():
    return pf.leonhardt_frame(2)


@pytest.fixture(scope="session")
def z2cubed():
    return pf.z2cubed_frame()


@pytest.fixture(scope="session")
def weyl3_rep(weyl3):
    return pf.build_representation(weyl3)


@pytest.fixture(scope="session")
def weyl5_rep(weyl5):
    return pf.build_representation(weyl5)


@pytest.fixture(scope="session")
def qubit_rep(qubit_ppp):
    return pf.build_representation(qubit_ppp)


@pytest.fixture(scope="session")
def z2cubed_rep(z2cubed):
    return pf.build_representation(z2cubed)
