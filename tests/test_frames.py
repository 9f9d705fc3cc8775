import itertools

import numpy as np
import pytest

import phaseframe as pf
from phaseframe import frames, linalg, serialize
from phaseframe.errors import (
    DimensionMismatch,
    EvenDimension,
    GroupMismatch,
    InvalidDimension,
    NotProjective,
)

from conftest import broadcast_tables, haar_unitary, qubit_power

Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)


# --------------------------------------------------------------------------
# generalized Pauli pair


def test_gen_pauli_d2():
    x, z = pf.gen_pauli(2)
    np.testing.assert_allclose(x, [[0, 1], [1, 0]], atol=1e-15)
    np.testing.assert_allclose(z, [[1, 0], [0, -1]], atol=1e-15)


def test_gen_pauli_d3_clock():
    _, z = pf.gen_pauli(3)
    omega = np.exp(-2j * np.pi / 3)
    np.testing.assert_allclose(z, np.diag([1, omega, omega**2]), atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_gen_pauli_commutation(d):
    x, z = pf.gen_pauli(d)
    omega = np.exp(-2j * np.pi / d)
    np.testing.assert_allclose(
        z @ x @ np.linalg.inv(z) @ np.linalg.inv(x), omega * np.eye(d), atol=1e-12
    )
    np.testing.assert_allclose(np.linalg.matrix_power(x, d), np.eye(d), atol=1e-12)
    np.testing.assert_allclose(np.linalg.matrix_power(z, d), np.eye(d), atol=1e-12)


def test_gen_pauli_rejects_bad_dimension():
    with pytest.raises(InvalidDimension):
        pf.gen_pauli(1)


# --------------------------------------------------------------------------
# Weyl frames


def test_weyl_identity_element(weyl3):
    np.testing.assert_allclose(weyl3.operator((0, 0)), np.eye(3), atol=1e-15)


def test_weyl_inverse_pair_cocycle(weyl3):
    table = pf.cocycle_table(weyl3)
    for g in weyl3.group.elements:
        assert table.value(g, weyl3.group.inverse(g)) == pytest.approx(1.0, abs=1e-12)


def test_weyl_noncommutativity_witness(weyl3):
    table = pf.cocycle_table(weyl3)
    ratio = table.value((1, 0), (0, 1)) / table.value((0, 1), (1, 0))
    assert abs(abs(ratio) - 1.0) < 1e-12
    assert abs(ratio - 1.0) > 0.1
    # The two extraction orders differ by one commutation phase.
    omega = np.exp(-2j * np.pi / 3)
    assert ratio == pytest.approx(omega ** (-1), abs=1e-12)


@pytest.mark.parametrize("d", [3, 5])
def test_weyl_traceless_and_orthogonal(d):
    frame = pf.weyl_frame(d)
    ops = frame.operators
    for op in ops[1:]:
        assert abs(np.trace(op)) < 1e-10
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            value = pf.trace_inner(pf.dagger(a), b)
            assert abs(value - (d if i == j else 0.0)) < 1e-10


def test_weyl_rejects_even_dimension():
    with pytest.raises(EvenDimension):
        pf.weyl_frame(4)


# --------------------------------------------------------------------------
# qubit frames


def test_qubit_frame_operators(qubit_ppp):
    x, z = pf.gen_pauli(2)
    np.testing.assert_allclose(qubit_ppp.operator((0, 0)), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(qubit_ppp.operator((1, 0)), x, atol=1e-15)
    np.testing.assert_allclose(qubit_ppp.operator((0, 1)), z, atol=1e-15)
    np.testing.assert_allclose(qubit_ppp.operator((1, 1)), Y2, atol=1e-15)
    assert qubit_ppp.metadata["parameters"]["parity"] == 1


def test_qubit_single_flip_has_negative_parity(qubit_ppm):
    np.testing.assert_allclose(qubit_ppm.operator((1, 1)), -Y2, atol=1e-15)
    assert qubit_ppm.metadata["parameters"]["parity"] == -1


def _triple_product_trace(frame):
    return np.trace(
        frame.operator((1, 0)) @ frame.operator((0, 1)) @ frame.operator((1, 1))
    )


def test_qubit_parity_classes():
    values = {}
    for signs in itertools.product((1, -1), repeat=3):
        frame = pf.qubit_frame(signs)
        parity = frame.metadata["parameters"]["parity"]
        values.setdefault(parity, []).append(_triple_product_trace(frame))
    assert set(values) == {1, -1}
    assert len(values[1]) == len(values[-1]) == 4
    for parity, traces in values.items():
        for t in traces:
            assert t == pytest.approx(traces[0], abs=1e-12)
    assert abs(values[1][0] - values[-1][0]) > 1.0


def test_qubit_parity_invariant_under_relabeling():
    # Moving the minus sign to a different Pauli keeps the class invariant.
    for signs in [(-1, 1, 1), (1, -1, 1), (1, 1, -1)]:
        frame = pf.qubit_frame(signs)
        assert frame.metadata["parameters"]["parity"] == -1
        assert _triple_product_trace(frame) == pytest.approx(2j, abs=1e-12)


# --------------------------------------------------------------------------
# tensor products


def test_tensor_qubit_qubit(tensor_qq):
    assert tensor_qq.group.size == 16
    assert tensor_qq.dim == 4
    assert tensor_qq.group.orders == (2, 2, 2, 2)
    assert pf.is_faithful(tensor_qq)


def test_tensor_weyl_qubit(weyl3, qubit_ppp):
    frame = pf.tensor_frame(weyl3, qubit_ppp)
    assert frame.dim == 6
    assert frame.group.orders == (3, 3, 2, 2)
    pf.validate_frame(frame)
    assert pf.is_faithful(frame)


def test_tensor_with_trivial_frame_is_identity(qubit_ppp):
    out = pf.tensor_frame(qubit_ppp, pf.trivial_frame())
    assert out.group.orders == qubit_ppp.group.orders
    for a, b in zip(out.operators, qubit_ppp.operators):
        assert np.array_equal(a, b)


def test_tensor_cocycle_is_product(weyl3, qubit_ppp):
    frame = pf.tensor_frame(weyl3, qubit_ppp)
    t = pf.cocycle_table(frame)
    ta = pf.cocycle_table(weyl3)
    tb = pf.cocycle_table(qubit_ppp)
    rng = np.random.default_rng(21)
    for _ in range(50):
        ga = weyl3.group.elements[rng.integers(9)]
        gb = qubit_ppp.group.elements[rng.integers(4)]
        ha = weyl3.group.elements[rng.integers(9)]
        hb = qubit_ppp.group.elements[rng.integers(4)]
        lhs = t.value(ga + gb, ha + hb)
        rhs = ta.value(ga, ha) * tb.value(gb, hb)
        assert lhs == pytest.approx(rhs, abs=1e-12)


# --------------------------------------------------------------------------
# phase fixing


def test_phase_fix_is_identity_on_compliant_input(weyl3):
    fixed = pf.phase_fix(weyl3.group, weyl3.operators)
    for a, b in zip(fixed.operators, weyl3.operators):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_phase_fix_bare_products_z3(weyl3):
    x, z = pf.gen_pauli(3)
    group = pf.make_group([3, 3])
    raw = [
        np.linalg.matrix_power(x, j) @ np.linalg.matrix_power(z, l)
        for (j, l) in group.elements
    ]
    fixed = pf.phase_fix(group, raw)
    # Projectively equivalent to the half-phase construction: unit scalar ratios.
    for g in group.elements:
        a = fixed.operator(g)
        b = weyl3.operator(g)
        scalar = pf.trace_inner(pf.dagger(b), a) / 3
        assert abs(abs(scalar) - 1.0) < 1e-12
        np.testing.assert_allclose(a, scalar * b, atol=1e-12)


def test_phase_fix_bare_products_z4():
    x, z = pf.gen_pauli(4)
    group = pf.make_group([4, 4])
    raw = [
        np.linalg.matrix_power(x, j) @ np.linalg.matrix_power(z, l)
        for (j, l) in group.elements
    ]
    fixed = pf.phase_fix(group, raw)
    # Self-inverse element (2,2) included.
    g = (2, 2)
    np.testing.assert_allclose(
        np.linalg.inv(fixed.operator(g)), fixed.operator(g), atol=1e-12
    )
    assert pf.is_faithful(fixed)


def test_phase_fix_rejects_non_projective_input():
    group = pf.make_group([2, 2])
    rng = np.random.default_rng(22)
    raw = [np.eye(2)]
    for _ in range(3):
        g, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        raw.append(g)
    with pytest.raises(NotProjective):
        pf.phase_fix(group, raw)


# --------------------------------------------------------------------------
# cocycles


def test_cocycle_neutral_element(weyl3):
    table = pf.cocycle_table(weyl3)
    for g in weyl3.group.elements:
        assert table.value((0, 0), g) == pytest.approx(1.0, abs=1e-12)
        assert table.value(g, (0, 0)) == pytest.approx(1.0, abs=1e-12)


def test_cocycle_anticommutation_sign(qubit_ppp):
    table = pf.cocycle_table(qubit_ppp)
    product = table.value((1, 0), (0, 1)) * np.conj(table.value((0, 1), (1, 0)))
    assert product == pytest.approx(-1.0, abs=1e-12)


def test_cocycle_identity_all_triples(qubit_ppp, z2cubed, leonhardt2):
    for frame in (qubit_ppp, z2cubed, leonhardt2):
        values = pf.cocycle_table(frame).values
        group = frame.group
        n = group.size
        for a in range(n):
            for b in range(n):
                ab = group.index(group.compose(group.elements[a], group.elements[b]))
                for c in range(n):
                    bc = group.index(group.compose(group.elements[b], group.elements[c]))
                    lhs = values[a, b] * values[ab, c]
                    rhs = values[b, c] * values[a, bc]
                    assert abs(lhs - rhs) < 1e-10


def test_cocycle_identity_sampled_weyl5(weyl5):
    values = pf.cocycle_table(weyl5).values
    group = weyl5.group
    mul = broadcast_tables(group)[0]
    rng = np.random.default_rng(23)
    for _ in range(1000):
        a, b, c = rng.integers(group.size, size=3)
        ab = mul[a, b]
        bc = mul[b, c]
        assert abs(values[a, b] * values[ab, c] - values[b, c] * values[a, bc]) < 1e-10


# --------------------------------------------------------------------------
# kernels and faithfulness


def test_weyl_is_faithful(weyl3):
    assert pf.kernel(weyl3) == [(0, 0)]
    assert pf.is_faithful(weyl3)


def test_leonhardt_kernel(leonhardt2):
    assert set(pf.kernel(leonhardt2)) == {(0, 0), (2, 0), (0, 2), (2, 2)}
    assert not pf.is_faithful(leonhardt2)


def test_z2cubed_kernel(z2cubed):
    assert set(pf.kernel(z2cubed)) == {(0, 0, 0), (1, 0, 0)}
    assert not pf.is_faithful(z2cubed)


def _z2cubed_minus_identity():
    # P_(1,0,0) = -I: still a frame, whose second kernel element carries the scalar -1.
    ops = pf.z2cubed_frame().operators * np.where(np.arange(8) == 4, -1.0, 1.0)[:, None, None]
    frame = pf.ProjectiveFrame(group=pf.make_group([2, 2, 2]), operators=ops, dim=2)
    pf.validate_frame(frame)
    return frame


REPORT_FRAMES = {
    **{f"weyl{d}": (lambda d=d: pf.weyl_frame(d)) for d in (3, 5, 7, 9, 11, 13)},
    **{f"leonhardt{d}": (lambda d=d: pf.leonhardt_frame(d)) for d in (2, 3, 4, 5, 6)},
    "z2cubed": pf.z2cubed_frame,
    "z2cubed-minus-identity": _z2cubed_minus_identity,
    "qubit-even": pf.qubit_frame,
    "qubit-odd": lambda: pf.qubit_frame((1, 1, -1)),
    **{f"qubit^{k}": (lambda k=k: qubit_power(k)) for k in (2, 3, 4)},
}


@pytest.mark.parametrize("name", REPORT_FRAMES)
def test_kernel_and_report_rows_equal_a_per_operator_loop(name):
    frame = REPORT_FRAMES[name]()
    band, d, eye = pf.DEFAULT_TOL.band(1.0), frame.dim, np.eye(frame.dim)
    kernel, traces = [], []
    for g, op in zip(frame.group.elements, frame.operators):
        c = np.trace(op) / d
        if abs(abs(c) - 1.0) <= band and np.max(np.abs(op - c * eye)) <= band:
            kernel.append(g)
        traces.append(np.trace(op))
    # The stacked traces the kernel and the report take are these, bit for bit.
    stacked = np.trace(frame.operators, axis1=1, axis2=2)
    assert stacked.tobytes() == np.array(traces).tobytes()
    assert np.trace(frame.operators[1:], axis1=1, axis2=2).tobytes() == stacked[1:].tobytes()
    report = pf.frame_report(frame)
    assert pf.kernel(frame) == report["kernel"] == kernel
    assert report["faithful"] == (kernel == [frame.group.identity()])
    rows = {row[0]: row[1:] for row in report["checks"]}
    assert rows["kernel_subgroup"] == (True, f"{len(kernel)} element(s): {kernel}")
    value, limit = max((abs(t) for t in traces[1:]), default=0.0), pf.DEFAULT_TOL.band(d)
    row = (value <= limit, f"residual {value:.3e} (limit {limit:.3e})")
    assert rows.get("tracelessness_off_identity") == (row if report["faithful"] else None)
    if name.startswith("z2cubed"):
        assert kernel == [(0, 0, 0), (1, 0, 0)]


def test_scalar_operators_not_closed_under_composition_are_not_projective():
    # P_1 = I is scalar but P_1 P_1 = P_2 is not: no projective frame looks like this, and
    # the kernel is read only off one that passes the projective rows.
    frame = pf.ProjectiveFrame(group=pf.make_group([3]), dim=2,
                               operators=(np.eye(2), np.eye(2), np.diag([1.0, -1.0])))
    with pytest.raises(NotProjective, match="products leave the frame"):
        pf.kernel(frame)


def _identity_at_a_generator() -> pf.ProjectiveFrame:
    # weyl_frame(3) with P_(1,0) = I: scalar there, but P_(1,0)^2 = I is not P_(2,0).
    weyl3 = pf.weyl_frame(3)
    ops = weyl3.operators.copy()
    ops[weyl3.group.index((1, 0))] = np.eye(3)
    return pf.ProjectiveFrame(group=weyl3.group, operators=ops, dim=3)


def test_kernel_of_a_non_projective_frame_raises_not_projective():
    with pytest.raises(NotProjective, match="products leave the frame"):
        pf.kernel(_identity_at_a_generator())


def test_is_faithful_on_a_non_projective_frame_raises_not_projective():
    with pytest.raises(NotProjective, match="products leave the frame"):
        pf.is_faithful(_identity_at_a_generator())


def test_frame_report_fails_the_kernel_row_of_a_non_projective_frame():
    report = pf.frame_report(_identity_at_a_generator())
    rows = {name: (ok, detail) for name, ok, detail in report["checks"]}
    ok, detail = rows["kernel_subgroup"]
    assert not ok and detail.startswith("products leave the frame up to scalars")
    assert rows["projectivity"][0] is False
    assert (report["kernel"], report["faithful"], report["passed"]) == ([], False, False)


def test_faithful_frames_have_square_size(weyl3, weyl5, qubit_ppp, tensor_qq):
    for frame in (weyl3, weyl5, qubit_ppp, tensor_qq):
        assert frame.group.size == frame.dim**2


# --------------------------------------------------------------------------
# specific constructions


def test_z2cubed_assignment(z2cubed):
    x, z = pf.gen_pauli(2)
    np.testing.assert_allclose(z2cubed.operator((1, 0, 1)), x, atol=1e-15)
    np.testing.assert_allclose(z2cubed.operator((0, 1, 1)), Y2, atol=1e-15)
    np.testing.assert_allclose(z2cubed.operator((1, 0, 0)), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(z2cubed.operator((1, 1, 0)), z, atol=1e-15)


def test_leonhardt_operators(leonhardt2):
    assert leonhardt2.group.size == 16
    np.testing.assert_allclose(leonhardt2.operator((0, 0)), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(leonhardt2.operator((1, 1)), -Y2, atol=1e-12)
    np.testing.assert_allclose(leonhardt2.operator((1, 3)), Y2, atol=1e-12)


def test_leonhardt_spans(leonhardt2):
    a, b = pf.frame_report(leonhardt2)["fourier_frame_bounds"]
    assert a > 1e-6


def test_leonhardt_d3_valid():
    frame = pf.leonhardt_frame(3)
    assert frame.group.size == 36
    assert not pf.is_faithful(frame)


def test_leonhardt_d4_largest_case():
    # |G| = 64 is the largest index group any constructor produces.
    frame = pf.leonhardt_frame(4)
    assert frame.group.size == 64
    rep = pf.build_representation(frame)
    rho = pf.random_density(4, 44)
    back = pf.reconstruct(rep, pf.represent(rep, rho))
    assert np.max(np.abs(back - rho)) < 1e-10


# --------------------------------------------------------------------------
# validation and reporting


def test_validate_rejects_tampered_frame(weyl3):
    ops = [op.copy() for op in weyl3.operators]
    ops[4] = ops[4] * np.exp(0.3j)  # breaks the inverse convention
    frame = pf.ProjectiveFrame(
        group=weyl3.group, operators=tuple(ops), dim=3, metadata={}
    )
    with pytest.raises(NotProjective):
        pf.validate_frame(frame)


def test_frame_report_passes_for_builtins(weyl3, qubit_ppp, leonhardt2, z2cubed):
    for frame in (weyl3, qubit_ppp, leonhardt2, z2cubed):
        report = pf.frame_report(frame)
        assert report["passed"], report["checks"]
    assert pf.frame_report(weyl3)["faithful"]
    assert not pf.frame_report(z2cubed)["faithful"]


def test_frame_bounds_weyl_fourier_is_tight(weyl3, weyl3_rep):
    a, b = pf.frame_report(weyl3)["fourier_frame_bounds"]
    assert a == pytest.approx(b, abs=1e-12)
    assert a == pytest.approx(1 / 3, abs=1e-12)
    # the same bounds from the Fourier operators themselves: the extreme
    # eigenvalues of their frame operator sum_k |F_k><F_k|
    rows = np.array([op.ravel() for op in weyl3_rep.fourier_ops])
    eig = np.linalg.eigvalsh(rows.conj().T @ rows)
    assert (eig[0], eig[-1]) == pytest.approx((a, b), abs=1e-12)


def _non_spanning_frame(orders=(2, 2)) -> pf.ProjectiveFrame:
    # I, Z, I, Z over Z_2 x Z_2 (|G| = d^2), or I, Z over Z_2 (|G| < d^2): projective
    # frames in every respect but spanning.
    _, z = pf.gen_pauli(2)
    ops = (np.eye(2), z) * (np.prod(orders) // 2)
    return pf.ProjectiveFrame(group=pf.make_group(orders), operators=ops, dim=2)


def test_frame_bounds_non_spanning_set():
    for orders in ((2, 2), (2,)):
        report = pf.frame_report(_non_spanning_frame(orders))
        a, b = report["fourier_frame_bounds"]
        assert abs(a) < 1e-12
        assert b == pytest.approx(1.0, abs=1e-12)
        rows = {name: ok for name, ok, _ in report["checks"]}
        assert rows == {**dict.fromkeys(rows, True), "fourier_frame_bounds": False}
        assert report["passed"] is False


def _broken_frame(weyl3, broken: str) -> pf.ProjectiveFrame:
    if broken == "spanning":
        return _non_spanning_frame()
    ops = [op.copy() for op in weyl3.operators]
    x, y = (weyl3.group.index(g) for g in ((1, 0), (2, 0)))
    if broken == "unitarity":
        ops[x] *= 2.0
    elif broken == "inverse_convention":
        ops[4] *= np.exp(0.3j)
    else:  # projectivity: an unrelated unitary pair U, U^dag in place of X, X^dag
        u = np.linalg.qr(np.random.default_rng(7).normal(size=(3, 3)) + 1j)[0]
        ops[x], ops[y] = u, u.conj().T
    return pf.ProjectiveFrame(group=weyl3.group, operators=tuple(ops), dim=3)


@pytest.mark.parametrize("broken", ["unitarity", "inverse_convention", "projectivity",
                                    "spanning"])
def test_frame_report_marks_a_failed_invariant_without_raising(weyl3, broken):
    report = pf.frame_report(_broken_frame(weyl3, broken))
    rows = {name: ok for name, ok, _ in report["checks"]}
    assert rows["fourier_frame_bounds" if broken == "spanning" else broken] is False
    assert report["passed"] is False


def test_frame_operators_are_immutable(weyl3):
    op = weyl3.operator((1, 0))
    with pytest.raises(ValueError):
        op[0, 0] = 5.0


# --------------------------------------------------------------------------
# one operator array per frame, built through one verified exit


def _built_frames(weyl3):
    return {
        "weyl": weyl3,
        "leonhardt": pf.leonhardt_frame(2),
        "qubit": pf.qubit_frame((1, -1, 1)),
        "z2cubed": pf.z2cubed_frame(),
        "tensor": pf.tensor_frame(weyl3, pf.qubit_frame()),
        "phase_fix": pf.phase_fix(weyl3.group, list(weyl3.operators)),
        "trivial": pf.trivial_frame(),
        "loaded": serialize.frame_from_json(serialize.frame_to_json(weyl3)),
    }


def test_every_constructor_returns_one_owned_read_only_verified_array(weyl3):
    for name, frame in _built_frames(weyl3).items():
        ops = frame.operators
        assert type(ops) is np.ndarray and ops.dtype == np.complex128, name
        assert ops.shape == (frame.group.size, frame.dim, frame.dim), name
        assert ops.base is None and not ops.flags.writeable, name
        assert pf.DEFAULT_TOL in frame._verified, name  # validated before it was returned
        assert not hasattr(frame, "stack") and not hasattr(frame, "_stack"), name


def test_every_constructor_hands_its_stack_over_uncopied(weyl3, monkeypatch):
    # Each built-in constructor, phase_fix and the frame-file reader give linalg._frozen a
    # stack they have just built, frozen, and get that very array back as the frame's; the
    # cocycle tables of both invariant routes are handed over the same way.
    qubit, rephased = pf.qubit_frame(), 1j ** (np.arange(16) % 4)[:, None, None]
    text = serialize.frame_to_json(weyl3)
    u = haar_unitary(3, 5)
    conjugated = pf.ProjectiveFrame(group=weyl3.group, operators=u @ weyl3.operators @ u.conj().T,
                                    dim=3)
    builds = {
        "weyl": lambda: pf.weyl_frame(5).operators,
        "leonhardt": lambda: pf.leonhardt_frame(3).operators,
        "qubit": lambda: pf.qubit_frame((1, -1, 1)).operators,
        "z2cubed": lambda: pf.z2cubed_frame().operators,
        "tensor": lambda: pf.tensor_frame(weyl3, qubit).operators,
        "phase_fix": lambda: pf.phase_fix(
            pf.make_group([2] * 4), rephased * pf.tensor_frame(qubit, qubit).operators).operators,
        "reader": lambda: serialize.frame_from_json(text).operators,
        "exact cocycle": lambda: pf.cocycle_table(pf.weyl_frame(3)).values,
        "float cocycle": lambda: pf.cocycle_table(conjugated).values,
    }
    calls, frozen = [], linalg._frozen

    def spy(source):
        calls.append((source, kept := frozen(source)))
        return kept

    monkeypatch.setattr(frames, "_frozen", spy)
    for name, build in builds.items():
        calls.clear()
        array = build()
        source, kept = calls[-1]
        assert source is kept is array, name
        assert all(kept is source for source, kept in calls if isinstance(source, np.ndarray)), name


def test_the_keep_or_copy_rule():
    owned = np.array([[0, 1], [2, 3]], dtype=np.complex128)
    owned.setflags(write=False)
    assert linalg._frozen(owned) is owned
    fortran = np.asfortranarray(owned)
    fortran.setflags(write=False)
    writable = owned.copy()
    for source in (writable, owned[:], fortran):
        kept = linalg._frozen(source)
        assert kept is not source and not np.shares_memory(kept, source)
        assert kept.base is None and kept.flags.c_contiguous and not kept.flags.writeable
        np.testing.assert_array_equal(kept, owned)
    assert writable.flags.writeable
    converted = linalg._frozen([[0, 1], [2, 3]])  # a fresh conversion, kept as made
    assert converted.dtype == np.complex128 and converted.base is None
    assert not converted.flags.writeable


def test_cocycle_table_copies_a_callers_array_and_leaves_it_writable():
    group = pf.make_group([3])
    values = np.ones((3, 3), dtype=complex)
    table = pf.CocycleTable(group=group, values=values)
    assert values.flags.writeable and not np.shares_memory(table.values, values)
    base = np.ones((3, 3), dtype=complex)
    table = pf.CocycleTable(group=group, values=base[:])
    base[0, 0] = 5
    assert table.values[0, 0] == 1 and not table.values.flags.writeable


def test_cocycle_table_rejects_a_table_of_the_wrong_shape():
    with pytest.raises(GroupMismatch, match=r"^cocycle table shape \(3, 3\), group size 9$"):
        pf.CocycleTable(group=pf.make_group([3, 3]), values=np.ones((3, 3)))


def test_frame_rejects_the_wrong_operator_count(weyl3):
    with pytest.raises(GroupMismatch, match="^8 operators for a group of size 9$"):
        pf.ProjectiveFrame(group=weyl3.group, operators=weyl3.operators[:8], dim=3)


def test_frame_rejects_operators_of_the_wrong_shape(weyl3):
    with pytest.raises(DimensionMismatch, match=r"^operator shape \(3, 3\) does not match dim 2$"):
        pf.ProjectiveFrame(group=weyl3.group, operators=weyl3.operators, dim=2)


def test_frame_names_the_operator_at_fault_in_a_ragged_list(weyl3):
    ops = [*weyl3.operators[:4], np.eye(2), *weyl3.operators[5:]]
    with pytest.raises(DimensionMismatch, match=r"^operator shape \(2, 2\) does not match dim 3$"):
        pf.ProjectiveFrame(group=weyl3.group, operators=ops, dim=3)


def _bits(ops):
    return np.ascontiguousarray(ops).view(np.uint64)


@pytest.mark.parametrize("d", range(3, 32, 2))
def test_weyl_frame_equals_the_symmetric_phase_expression_bit_for_bit(d):
    # The expression weyl_frame evaluated before it shared one clock-and-shift builder.
    group = pf.make_group([d, d])
    s = (d + 1) // 2
    roots = np.exp(-2j * np.pi * np.arange(d) / d)
    j, l = group._residues.T
    shift, clock = frames._shift_clock(d, j, l)
    reference = roots[(s * j * l) % d, None, None] * (shift @ clock)
    assert np.array_equal(_bits(pf.weyl_frame(d).operators), _bits(reference))


@pytest.mark.parametrize("d", range(2, 9))
def test_leonhardt_frame_equals_the_tau_expression_bit_for_bit(d):
    # The expression leonhardt_frame evaluated before it shared one clock-and-shift builder:
    # tau = exp(-i pi k / d), where the builder takes exp(-2 pi i k / 2d).
    group = pf.make_group([2 * d, 2 * d])
    tau = np.exp(-1j * np.pi * np.arange(2 * d) / d)
    j, l = group._residues.T
    shift, clock = frames._shift_clock(d, j % d, l % d)
    reference = tau[(j * l) % (2 * d), None, None] * (shift @ clock)
    assert np.array_equal(_bits(pf.leonhardt_frame(d).operators), _bits(reference))
