import math
from types import SimpleNamespace

import numpy as np
import pytest

import phaseframe as pf
from phaseframe import groups, serialize


def broadcast_tables(group, rows=slice(None)):
    """Products [a, g] = index of a g, quotients [a, g] = index of g a^-1, for a in
    ``rows`` (every element by default), and inverses, from (rows, |G|, k) broadcasts:
    the tests' reference for the group's index arithmetic."""
    res = group._residues
    ordv = np.array(group.orders, dtype=np.int64)
    weight = np.array([math.prod(group.orders[i + 1:]) for i in range(len(group.orders))],
                      dtype=np.int64)
    mul = ((res[rows, None, :] + res[None, :, :]) % ordv) @ weight
    diff = ((res[None, :, :] - res[rows, None, :]) % ordv) @ weight
    return mul, diff, ((-res) % ordv) @ weight


def all_pairs(group, stack):
    """Best-fit alpha(a, b) = Tr(P_ab^dag P_a P_b) / d for every pair and the worst entry
    of P_a P_b - alpha(a, b) P_ab, from all |G|^2 products: the tests' oracle for the
    float route's bounds and its cocycle table."""
    n, d = stack.shape[:2]
    mul = broadcast_tables(group)[0]
    values, worst = np.empty((n, n), dtype=np.complex128), 0.0
    for a in range(n):
        prod, target = stack[a] @ stack, stack[mul[a]]
        values[a] = alpha = np.einsum("nij,nij->n", target.conj(), prod) / d
        worst = np.maximum(worst, np.max(np.abs(prod - alpha[:, None, None] * target)))
    return values, float(worst)


def triple_defect(group, values):
    """Worst |alpha(a,b) alpha(ab,c) - alpha(b,c) alpha(a,bc)| over all triples, one a at
    a time."""
    mul = broadcast_tables(group)[0]
    defects = (values[a][:, None] * values[mul[a]] - values * values[a, mul]  # [b, c]
               for a in range(group.size))
    return float(np.max([np.max(np.abs(defect)) for defect in defects]))


def haar_unitary(d, seed):
    """A Haar-random d x d unitary from a seeded generator."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class _SecondWriteFails:
    """A text file whose second write raises, as a disk that fills up partway would."""

    def __init__(self, file, writes):
        self.file, self.writes = file, writes

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()

    def write(self, text):
        self.writes.append(len(text))
        if len(self.writes) == 2:
            raise OSError(28, "No space left on device")
        return self.file.write(text)


@pytest.fixture
def second_write_fails(monkeypatch):
    """Make the second write to a file the frame writer opens raise; returns the writes tried."""
    writes = []
    monkeypatch.setattr(serialize, "open", lambda *args, **kwargs: _SecondWriteFails(
        open(*args, **kwargs), writes), raising=False)
    return writes


def qubit_power(k):
    """The qubit frame tensored with itself k times, one factor at a time."""
    power = pf.qubit_frame()
    for _ in range(k - 1):
        power = pf.tensor_frame(power, pf.qubit_frame())
    return power


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
