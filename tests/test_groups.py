import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaseframe as pf
from phaseframe import groups
from phaseframe.errors import (
    GroupMismatch,
    InvalidDimension,
    InvalidOrder,
    NonFinite,
    NotConjugateSymmetric,
    ShapeMismatch,
)
from phaseframe.groups import MAX_GROUP_SIZE
from phaseframe.linalg import is_psd
from phaseframe.serialize import phi_csv_bytes

from conftest import broadcast_tables


def test_make_group_sizes():
    assert pf.make_group([3, 3]).size == 9
    assert pf.make_group([2, 2, 2]).size == 8
    assert pf.make_group([4, 4]).size == 16


def test_make_group_rejects_small_orders():
    with pytest.raises(InvalidOrder):
        pf.make_group([1])
    with pytest.raises(InvalidOrder):
        pf.make_group([3, 0])


@pytest.mark.parametrize("build, error", [
    (lambda: pf.make_group([3, 2.5]), InvalidOrder),
    (lambda: pf.make_group(["a"]), InvalidOrder),
    (lambda: pf.make_group([float("nan")]), InvalidOrder),
    (lambda: pf.make_group([None, 3]), InvalidOrder),
    (lambda: pf.weyl_frame(5.5), InvalidDimension),
    (lambda: pf.weyl_frame("5"), InvalidDimension),
    (lambda: pf.leonhardt_frame(2.5), InvalidDimension),
    (lambda: pf.leonhardt_frame(None), InvalidDimension),
    (lambda: pf.gen_pauli(3.5), InvalidDimension),
    (lambda: pf.gen_pauli("3"), InvalidDimension),
    (lambda: pf.maximally_mixed(float("inf")), InvalidDimension),
    (lambda: pf.qubit_frame((1, 1)), InvalidDimension),
    (lambda: pf.qubit_frame((1, 1, 1, 1)), InvalidDimension),
    (lambda: pf.qubit_frame((1, 1, 1.5)), InvalidDimension),
    (lambda: pf.qubit_frame((1, "1", 1)), InvalidDimension),
    (lambda: pf.qubit_frame(1), InvalidDimension),
])
def test_a_size_that_is_not_an_integer_is_a_library_error(build, error):
    with pytest.raises(error):
        build()


def test_integer_valued_sizes_build_what_the_int_builds():
    for orders in ([3.0], [np.int64(3), 2.0]):
        assert pf.make_group(orders).orders == tuple(int(n) for n in orders)
    assert pf.weyl_frame(5.0).operators.tobytes() == pf.weyl_frame(5).operators.tobytes()
    assert pf.leonhardt_frame(np.int64(2)).operators.tobytes() == pf.leonhardt_frame(2).operators.tobytes()
    assert pf.gen_pauli(3.0)[0].tobytes() == pf.gen_pauli(3)[0].tobytes()
    signs = np.array([1.0, -1.0, 1.0])
    assert pf.qubit_frame(signs).metadata == pf.qubit_frame((1, -1, 1)).metadata


@pytest.mark.parametrize("orders", [[1048576, 1048576], [MAX_GROUP_SIZE + 1], [2] * 13])
def test_make_group_rejects_a_group_above_the_size_limit(orders, no_enumeration):
    with pytest.raises(InvalidOrder, match=f"exceeds {MAX_GROUP_SIZE}"):
        pf.make_group(orders)


@pytest.mark.parametrize("orders", [[2] * 12, [MAX_GROUP_SIZE], [64, 64]])
def test_groups_up_to_the_size_limit_are_admitted(orders, no_enumeration):
    with pytest.raises(AssertionError, match="group enumerated"):
        pf.make_group(orders)


@pytest.mark.parametrize("orders", [[], [2], [3, 4], [2] * 5, [11, 11]])
def test_group_tables_match_the_broadcast_formula(orders):
    group = pf.make_group(orders)
    mul, diff, inv = broadcast_tables(group)
    pairs = [(group._products(a), mul[a]) for a in range(group.size)]
    pairs += [(group._products(np.arange(group.size)), mul), (group._products(group._inv), diff),
              (group._inv, inv)]
    for table, reference in pairs:
        assert table.dtype == reference.dtype and table.shape == reference.shape
        np.testing.assert_array_equal(table, reference)


def test_a_group_holds_no_array_beyond_one_entry_per_element_and_factor():
    group = pf.make_group([2] * 12)
    arrays = {name: v for name, v in vars(group).items() if isinstance(v, np.ndarray)}
    assert {"_residues", "_inv"} <= arrays.keys()
    for name, array in arrays.items():
        assert array.size <= group.size * len(group.orders), name


def test_group_tables_are_built_without_cubic_temporaries():
    tracemalloc.start()
    try:
        pf.make_group([2] * 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One (|G|, |G|, 10) int64 temporary would take 80 MiB.
    assert peak <= 40 * 2**20


def test_trivial_group():
    g = pf.make_group([])
    assert g.size == 1
    assert g.identity() == ()
    assert g.elements == ((),)


def test_lexicographic_enumeration():
    g = pf.make_group([2, 3])
    assert g.elements == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
    assert g.index((1, 2)) == 5


def test_compose_and_inverse():
    z33 = pf.make_group([3, 3])
    assert z33.compose((1, 2), (2, 2)) == (0, 1)
    z222 = pf.make_group([2, 2, 2])
    assert z222.inverse((1, 0, 0)) == (1, 0, 0)
    z44 = pf.make_group([4, 4])
    assert z44.inverse((1, 3)) == (3, 1)


def test_group_laws_hold_exactly():
    g = pf.make_group([2, 3])
    for a in g.elements:
        assert g.compose(a, g.inverse(a)) == g.identity()
        for b in g.elements:
            assert g.compose(a, b) == g.compose(b, a)
            for c in g.elements:
                assert g.compose(g.compose(a, b), c) == g.compose(a, g.compose(b, c))


def test_element_shape_mismatch():
    g = pf.make_group([3, 3])
    with pytest.raises(GroupMismatch):
        g.compose((1, 2, 0), (0, 0))
    with pytest.raises(GroupMismatch):
        pf.character_value(g, (1,), (0, 0))


@pytest.mark.parametrize("residue", [1.5, float("nan"), float("inf"), "a", None])
def test_a_residue_that_is_not_an_integer_is_a_group_mismatch(residue, weyl3):
    g = weyl3.group
    table = pf.cocycle_table(weyl3)
    for call in (g.element, g.index, g.inverse, lambda e: g.compose(e, (0, 0)),
                 lambda e: pf.character_value(g, e, (1, 1)), weyl3.operator,
                 lambda e: table.value(e, (0, 0))):
        with pytest.raises(GroupMismatch, match="residue must be an integer"):
            call((residue, 0))


def test_integer_valued_and_negative_residues_are_elements():
    g = pf.make_group([3, 3])
    assert g.element((3.0, np.int64(-1))) == (0, 2)
    assert g.index((np.int64(3), -4)) == 2
    assert g.compose((2.0, 1), (-1, 2)) == (1, 0)


def test_trivial_character_is_one():
    g = pf.make_group([3, 3])
    for elem in g.elements:
        assert pf.character_value(g, (0, 0), elem) == 1.0


def test_character_root_convention():
    z3 = pf.make_group([3])
    assert pf.character_value(z3, (1,), (1,)) == pytest.approx(np.exp(-2j * np.pi / 3))


def test_character_sign_on_binary_group():
    g = pf.make_group([2, 2, 2])
    assert pf.character_value(g, (1, 0, 0), (1, 0, 0)) == pytest.approx(-1.0)
    assert pf.character_value(g, (1, 0, 0), (0, 1, 1)) == pytest.approx(1.0)


def test_character_table_z2():
    np.testing.assert_allclose(
        pf.character_table(pf.make_group([2])), [[1, 1], [1, -1]], atol=1e-15
    )


def test_character_table_z3_unitarity():
    table = pf.character_table(pf.make_group([3]))
    omega = np.exp(-2j * np.pi / 3)
    np.testing.assert_allclose(table[1], [1, omega, omega**2], atol=1e-14)
    residual = np.max(np.abs(table @ table.conj().T / 3 - np.eye(3)))
    assert residual < 1e-12


def test_character_table_z2z2_is_real_hadamard():
    table = pf.character_table(pf.make_group([2, 2]))
    h2 = np.array([[1, 1], [1, -1]])
    np.testing.assert_allclose(table, np.kron(h2, h2), atol=1e-15)


@pytest.mark.parametrize(
    "orders", [[2], [3], [5], [7], [2, 2], [3, 3], [4, 4], [2, 2, 2], [6, 6], [2, 3, 4], [8, 8]]
)
def test_column_orthogonality(orders):
    g = pf.make_group(orders)
    sums = pf.character_table(g).sum(axis=0)
    expected = np.zeros(g.size)
    expected[0] = g.size
    np.testing.assert_allclose(sums, expected, atol=1e-10)


def test_character_conjugation_sends_g_to_inverse():
    g = pf.make_group([3, 5])
    for j in g.elements[:6]:
        for elem in g.elements:
            lhs = pf.character_value(g, j, g.inverse(elem))
            rhs = np.conj(pf.character_value(g, j, elem))
            assert abs(lhs - rhs) < 1e-14


def test_fourier_of_constant_function():
    z3 = pf.make_group([3])
    np.testing.assert_allclose(pf.fourier_forward(z3, np.ones(3)), [1, 0, 0], atol=1e-14)


def test_fourier_of_delta_at_identity():
    z3 = pf.make_group([3])
    delta = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(pf.fourier_forward(z3, delta), [1 / 3] * 3, atol=1e-14)


def test_fourier_roundtrip_random():
    g = pf.make_group([2, 2, 2])
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        back = pf.fourier_inverse(g, pf.fourier_forward(g, f))
        assert np.max(np.abs(back - f)) < 1e-12 * max(1.0, np.max(np.abs(f)))


def test_fourier_shape_mismatch():
    with pytest.raises(GroupMismatch):
        pf.fourier_forward(pf.make_group([3]), np.ones(4))


def test_classical_bochner_accepts_constant():
    z3 = pf.make_group([3])
    result = pf.classical_bochner_check(z3, np.ones(3))
    assert result.accepted
    np.testing.assert_allclose(result.mu, [1, 0, 0], atol=1e-12)


def test_classical_bochner_accepts_single_character():
    z3 = pf.make_group([3])
    phi = np.array([np.conj(pf.character_value(z3, (1,), (g,))) for g in range(3)])
    result = pf.classical_bochner_check(z3, phi)
    assert result.accepted
    np.testing.assert_allclose(result.mu, [0, 1, 0], atol=1e-12)


def test_classical_bochner_rejects_with_witness():
    z3 = pf.make_group([3])
    result = pf.classical_bochner_check(z3, np.array([1.0, -1.0, -1.0]))
    assert not result.accepted
    assert result.mu[0] == pytest.approx(-1 / 3, abs=1e-12)
    assert result.translate_min_eig < -1e-6


def test_classical_bochner_rejects_unnormalized():
    z3 = pf.make_group([3])
    result = pf.classical_bochner_check(z3, np.array([2.0, 0.0, 0.0]))
    assert not result.accepted
    assert result.identity_residual == pytest.approx(1.0)


def test_classical_bochner_rejects_asymmetric_phi():
    z3 = pf.make_group([3])
    # phi(g^-1) != conj(phi(g)): not a characteristic function of anything real.
    result = pf.classical_bochner_check(z3, np.array([1.0, 1j, 1j]))
    assert not result.accepted
    assert result.symmetry_residual > 1e-3


def test_classical_bochner_rejects_just_below_band():
    # One entry pushed to -2e-8, barely past the 10x tolerance band, must
    # already flip the verdict (translate eigenvalues scale by |G|).
    g = pf.make_group([3, 3])
    p = np.full(9, 1 / 9)
    p[2] = -2e-8
    p[3] += 1 / 9 + 2e-8
    result = pf.classical_bochner_check(g, pf.fourier_inverse(g, p))
    assert not result.accepted
    assert result.min_mu < -1e-8


def test_classical_bochner_random_pmf_suite():
    groups = [pf.make_group(o) for o in ([6], [3, 3], [2, 2, 2], [4, 2])]
    rng = np.random.default_rng(12)
    for trial in range(40):
        g = groups[trial % len(groups)]
        p = rng.random(g.size)
        p /= p.sum()
        phi = pf.fourier_inverse(g, p)
        assert pf.classical_bochner_check(g, phi).accepted
        # Push one entry well below zero, keeping the total at 1.
        bad = p.copy()
        k = int(rng.integers(g.size))
        shift = bad[k] + 1e-3
        bad[k] -= shift
        bad[(k + 1) % g.size] += shift
        phi_bad = pf.fourier_inverse(g, bad)
        assert not pf.classical_bochner_check(g, phi_bad).accepted


def test_translate_matrix_structure():
    g = pf.make_group([3])
    phi = np.array([1.0, 0.5 + 0.1j, 0.5 - 0.1j])
    t = pf.translate_matrix(g, phi)
    for a, ga in enumerate(g.elements):
        for b, gb in enumerate(g.elements):
            expected = phi[g.index(g.compose(gb, g.inverse(ga)))]
            assert t[a, b] == expected
    assert np.max(np.abs(t - t.conj().T)) < 1e-15


def _classical_cases():
    """Seeded conjugate-symmetric normalized phi: signed mu, a pmf, and a boundary pmf."""
    rng = np.random.default_rng(29)
    for orders in ([5], [3, 3], [2, 2, 2], [4, 2], [6, 2]):
        g = pf.make_group(orders)
        signed = rng.normal(size=g.size)
        signed += (1.0 - signed.sum()) / g.size
        pmf = rng.random(g.size)
        pmf /= pmf.sum()
        boundary = np.zeros(g.size)  # exact zeros: the minimum eigenvalue is 0
        boundary[rng.choice(g.size, size=2, replace=False)] = [0.25, 0.75]
        for mu in (signed, pmf, boundary):
            yield g, pf.fourier_inverse(g, mu)


@pytest.mark.parametrize("group, phi", list(_classical_cases()))
def test_classical_bochner_spectrum_matches_the_dense_translate_matrix(group, phi):
    result = pf.classical_bochner_check(group, phi)
    psd, min_eig = is_psd(pf.translate_matrix(group, phi))
    normalized = abs(phi[0] - 1.0) <= pf.DEFAULT_TOL.band(1.0)
    assert result.accepted == (psd and normalized)
    assert result.translate_min_eig == pytest.approx(min_eig, abs=1e-12)


# --------------------------------------------------------------------------
# one gate and one owner per test for functions on the group


WEYL3 = pf.weyl_frame(3)
GROUP_FUNCTIONS = {
    "fourier_forward": lambda f: pf.fourier_forward(WEYL3.group, f),
    "fourier_inverse": lambda f: pf.fourier_inverse(WEYL3.group, f),
    "translate_matrix": lambda f: pf.translate_matrix(WEYL3.group, f),
    "classical_bochner_check": lambda f: pf.classical_bochner_check(WEYL3.group, f),
    "mc_spectrum": lambda f: pf.mc_spectrum(WEYL3.group, f),
    "build_mc": lambda f: pf.build_mc(WEYL3.group, f),
    "build_mq": lambda f: pf.build_mq(WEYL3.group, f, pf.cocycle_table(WEYL3)),
    "mq_spectrum": lambda f: pf.mq_spectrum(WEYL3, f),
    "phi_csv_bytes": lambda f: phi_csv_bytes(WEYL3.group, f),
}
BAD_FUNCTIONS = {
    "nan": (np.r_[1.0, np.nan, np.ones(7)], NonFinite),
    "inf": (np.r_[1.0, np.ones(7), np.inf], NonFinite),
    "string": (["x"] * 9, ShapeMismatch),
    "ragged": ([1.0] * 8 + [[1.0, 2.0]], ShapeMismatch),
    "mapping": ({"a": 1.0}, ShapeMismatch),
    "short": (np.ones(4), GroupMismatch),
}


@pytest.mark.parametrize("name", GROUP_FUNCTIONS)
@pytest.mark.parametrize("case", BAD_FUNCTIONS)
def test_a_bad_function_on_the_group_is_a_library_error(name, case):
    values, error = BAD_FUNCTIONS[case]
    with pytest.raises(error):
        GROUP_FUNCTIONS[name](values)


def _bits(x):
    return struct.pack("<d", x)


@settings(max_examples=200, deadline=None)
@given(orders=st.sampled_from([(3,), (2, 2), (3, 3), (4, 2), (2, 2, 2)]),
       seed=st.integers(0, 2**32 - 1),
       trace=st.sampled_from([0.0, 1e-10, 2e-9, 1e-3]),
       asymmetry=st.sampled_from([0.0, 1e-10, 3e-9, 1e-3]),
       nan=st.sampled_from([None, 0, 1]))
def test_classical_check_and_certificate_tests_share_their_decisions(
        orders, seed, trace, asymmetry, nan):
    # The certificate's bulk path applies the owners to a block; the classical
    # check applies them to one phi. Both must decide alike, NaN failing.
    group = pf.make_group(orders)
    rng = np.random.default_rng(seed)
    pmf = rng.random(group.size) - (0.3 if seed % 2 else 0.0)
    phi = pf.fourier_inverse(group, pmf / pmf.sum())
    phi[0] += trace
    phi[-1] += asymmetry * 1j
    if nan is not None:
        phi[nan] = np.nan
    block = np.stack([phi, pf.fourier_inverse(group, np.full(group.size, 1 / group.size))])
    identity, normalized = groups._normalization(block, pf.DEFAULT_TOL)
    symmetry, symmetric = groups._conjugate_symmetry(group, block, pf.DEFAULT_TOL)
    assert normalized[1] and symmetric[1]
    if nan is not None:
        assert not symmetric[0] and (nan != 0 or not normalized[0])
        for check in (pf.classical_bochner_check, pf.mc_spectrum):
            with pytest.raises(NonFinite):
                check(group, phi)
        return
    result = pf.classical_bochner_check(group, phi)
    assert _bits(result.identity_residual) == _bits(identity[0])
    assert _bits(result.symmetry_residual) == _bits(symmetry[0])
    if not symmetric[0]:
        assert np.isnan(result.translate_min_eig) and not result.accepted
        with pytest.raises(NotConjugateSymmetric):
            pf.mc_spectrum(group, phi)
        return
    spectrum = pf.mc_spectrum(group, phi)
    assert _bits(result.translate_min_eig) == _bits(spectrum[0])
    assert result.accepted == bool(normalized[0] and pf.psd_from_spectrum(spectrum)[0])
