"""Verdicts that do not depend on how a frame is presented: tensoring with the
trivial frame, rephasing by a character, rephasing by unit scalars that
``phase_fix`` then repairs, and relabeling the group by an automorphism."""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phaseframe as pf
from phaseframe import serialize

from conftest import broadcast_tables

FRAMES = {
    "weyl3": lambda: pf.weyl_frame(3),
    "weyl5": lambda: pf.weyl_frame(5),
    "leonhardt2": lambda: pf.leonhardt_frame(2),
    "qubit_ppm": lambda: pf.qubit_frame((1, 1, -1)),
    "z2cubed": pf.z2cubed_frame,
    "tensor_qq": lambda: pf.tensor_frame(pf.qubit_frame(), pf.qubit_frame()),
}
# Every built-in frame lives on a homocyclic group Z_n^k, whose automorphisms are the
# invertible k x k matrices mod n.
HOMOCYCLIC = {
    **FRAMES,
    "qubit": pf.qubit_frame,
    "leonhardt3": lambda: pf.leonhardt_frame(3),
    "qubit^3": lambda: pf.tensor_frame(frame("tensor_qq"), pf.qubit_frame()),
}
STATES = {
    "mixed": lambda d, seed: pf.maximally_mixed(d),
    "basis": lambda d, seed: pf.basis_state(d, seed % d),
    "random-pure": pf.random_pure,
    "random-density": pf.random_density,
    "random-herm": pf.random_hermitian_trace1,  # usually not a state
}


@functools.cache
def frame(name):
    return HOMOCYCLIC[name]()


def _near(a, b) -> bool:
    """Equal up to rounding: within 1e-12, relative to |b| once it exceeds 1. A trace-one
    Hermitian operator whose trace was near 0 before scaling has entries of order 1e4."""
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _assert_near_arrays(actual, desired):
    np.testing.assert_allclose(actual, desired, rtol=0,
                               atol=1e-12 * max(1.0, np.abs(desired).max()))


def certify(frame, rho):
    return pf.certify_state(pf.build_representation(frame), rho)


@pytest.mark.parametrize("name", FRAMES)
def test_tensoring_with_the_trivial_frame_changes_nothing(name, tmp_path):
    base = frame(name)
    serialize.save_frame(base, tmp_path / "base.json")
    for side, product in (("left", pf.tensor_frame(pf.trivial_frame(), base)),
                          ("right", pf.tensor_frame(base, pf.trivial_frame()))):
        assert product.group.orders == base.group.orders
        # The product records its factors in its metadata; everything else is the same
        # file, number for number. Not byte for byte: (1 + 0j) * z can flip the sign of a
        # zero part of z, and the writer keeps -0.0.
        relabeled = pf.ProjectiveFrame(group=product.group, operators=product.operators,
                                       dim=product.dim, metadata=base.metadata)
        serialize.save_frame(relabeled, tmp_path / f"{side}.json")
        assert (json.loads((tmp_path / f"{side}.json").read_text())
                == json.loads((tmp_path / "base.json").read_text()))
        for state, make in STATES.items():
            rho = make(base.dim, 3)
            certificates = [json.dumps(serialize.certificate_to_json(certify(f, rho), {}, {}))
                            for f in (base, product)]
            assert certificates[0] == certificates[1], (side, state)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(FRAMES)), state=st.sampled_from(sorted(STATES)),
       k=st.integers(0, 63), seed=st.integers(0, 2**16))
def test_rephasing_by_a_character_shifts_mu(name, state, k, seed):
    base = frame(name)
    group = base.group
    k %= group.size
    chi = pf.character_table(group)[k]
    twisted = pf.ProjectiveFrame(group=group, operators=chi[:, None, None] * base.operators,
                                 dim=base.dim)
    rho = STATES[state](base.dim, seed)
    before, after = certify(base, rho), certify(twisted, rho)
    # F'_j = (1/|G|) sum_g chi_j(g) chi_k(g) P_g = F_{jk}, so mu'(j) = mu(jk).
    _assert_near_arrays(after.mu, before.mu[broadcast_tables(group)[0][:, k]])
    for field in ("is_quantum_state", "is_positively_representable", "boundary"):
        assert getattr(after, field) == getattr(before, field), field
    for field in ("min_mu", "mc_min_eig", "mq_min_eig"):
        assert _near(getattr(after, field), getattr(before, field)), field


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(FRAMES)), state=st.sampled_from(sorted(STATES)),
       seed=st.integers(0, 2**16))
def test_rephasing_by_unit_scalars_then_phase_fix_keeps_the_quantum_verdict(name, state, seed):
    base = frame(name)
    rng = np.random.default_rng(seed)
    scalars = np.exp(2j * np.pi * rng.uniform(size=base.group.size))
    scalars[0] = 1.0  # P_e stays the identity
    fixed = pf.phase_fix(base.group, scalars[:, None, None] * base.operators)
    rho = STATES[state](base.dim, seed)
    before, after = certify(base, rho), certify(fixed, rho)
    # The distribution may legitimately change sign; the state's verdict may not.
    assert after.is_quantum_state == before.is_quantum_state
    assert _near(after.mq_min_eig, before.mq_min_eig)
    assert _near(after.state_min_eig, before.state_min_eig)


def _automorphism(k: int, n: int, rng) -> np.ndarray:
    """A random invertible k x k matrix mod n: a permuted identity, scaled by a unit,
    then sheared by row additions, each of which is invertible."""
    a = np.eye(k, dtype=np.int64)[rng.permutation(k)]
    a[rng.integers(k)] *= rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
    for _ in range(2 * k):
        i, j = rng.choice(k, size=2, replace=False)
        a[i] += rng.integers(1, n) * a[j]
    return a % n


def _index(group, residues) -> np.ndarray:
    """Lexicographic indices of the rows of ``residues``, reduced mod the orders."""
    weight = np.cumprod((group.orders[1:] + (1,))[::-1])[::-1]
    return (residues % np.array(group.orders)) @ weight


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(HOMOCYCLIC)), state=st.sampled_from(sorted(STATES)),
       seed=st.integers(0, 2**16))
@example(name="weyl5", state="random-herm", seed=1276)  # max|rho| 2.7e4, max|mu| 1.7e4
def test_relabeling_by_a_group_automorphism_keeps_every_verdict(name, state, seed):
    base = frame(name)
    group = base.group
    n, k = group.orders[0], len(group.orders)
    assert group.orders == (n,) * k
    a = _automorphism(k, n, np.random.default_rng(seed))
    residues = group._residues
    # P'_g = P_(A g) is again a frame over the same group.
    ops = base.operators[_index(group, residues @ a.T)]
    relabeled = pf.ProjectiveFrame(group=group, operators=ops, dim=base.dim)
    pf.validate_frame(relabeled)
    rho = STATES[state](base.dim, seed)
    before, after = certify(base, rho), certify(relabeled, rho)
    # F'_j = (1/|G|) sum_g chi_j(g) P_(A g) = F_(A^-T j), so mu'(A^T j) = mu(j).
    _assert_near_arrays(after.mu[_index(group, residues @ a)], before.mu)
    for field in ("is_quantum_state", "is_positively_representable", "boundary"):
        assert getattr(after, field) == getattr(before, field), field
    for field in ("min_mu", "mc_min_eig", "mq_min_eig", "state_min_eig"):
        assert _near(getattr(after, field), getattr(before, field)), field
