"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Expected values are either analytically forced or produced by the
in-repo independent oracles (direct eigensolves, the pure-state Wigner
convolution, brute-force Fourier checks); regression constants were frozen at
the first verified run and are marked as such.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

import phaseframe as pf
from phaseframe.cli import main

from conftest import broadcast_tables

BAND = 1e-8  # indeterminate band around zero for oracle comparisons
TIGHT = pf.Tolerance(atol=1e-12, rtol=1e-12)

# Frozen at the first verified run: of 100 seed-42 Haar-random pure states in
# d = 3, none are positively representable (all certify as negative).
SEED42_POSITIVE_COUNT = 0
SEED42_EXIT4_COUNT = 100


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# shared material


@pytest.fixture(scope="module")
def builtin_frames():
    return {
        "weyl3": pf.weyl_frame(3),
        "weyl5": pf.weyl_frame(5),
        "qubit_ppp": pf.qubit_frame((1, 1, 1)),
        "qubit_ppm": pf.qubit_frame((1, 1, -1)),
        "tensor_qq": pf.tensor_frame(pf.qubit_frame((1, 1, 1)), pf.qubit_frame((1, 1, 1))),
        "leonhardt2": pf.leonhardt_frame(2),
        "z2cubed": pf.z2cubed_frame(),
    }


@dataclass
class Record:
    rho: np.ndarray
    state_min: float
    mu_min: float
    mq_psd: bool
    mc_psd: bool


@pytest.fixture(scope="module")
def equivalence_suite(builtin_frames):
    """200 seeded Hermitian trace-1 operators per frame, with both verdict routes."""
    start = time.perf_counter()
    data = {}
    for fi, (name, frame) in enumerate(sorted(builtin_frames.items())):
        rep = pf.build_representation(frame)
        cocycle = pf.cocycle_table(frame)
        d = frame.dim
        records = []
        for i in range(200):
            seed = 100_000 + fi * 1_000 + i
            rho = (
                pf.random_hermitian_trace1(d, seed)
                if i < 100
                else pf.random_density(d, seed)
            )
            phi = pf.characteristic(rep, rho)
            mq_psd, _ = pf.is_psd(pf.build_mq(frame.group, phi, cocycle))
            mc_psd, _ = pf.is_psd(pf.build_mc(frame.group, phi))
            state_min = float(pf.herm_eigenvalues(rho)[0])
            mu_min = float(np.min(pf.represent(rep, rho)))
            records.append(Record(rho, state_min, mu_min, mq_psd, mc_psd))
        data[name] = (frame, rep, cocycle, records)
    elapsed = time.perf_counter() - start
    return data, elapsed


def _resolve(value: float, recompute) -> float | None:
    """Value if outside the band, else a tight recomputation, else None."""
    if abs(value) > BAND:
        return value
    tight_value = recompute()
    return tight_value if abs(tight_value) > 10 * TIGHT.atol else None


def test_c01_state_validity_equivalence(equivalence_suite):
    data, elapsed = equivalence_suite
    disagreements = 0
    skipped = 0
    total = 0
    for name, (frame, rep, cocycle, records) in data.items():
        for rec in records:
            total += 1
            resolved = _resolve(
                rec.state_min, lambda: float(pf.herm_eigenvalues(rec.rho, TIGHT)[0])
            )
            if resolved is None:
                skipped += 1
                continue
            if (resolved >= 0) != rec.mq_psd:
                disagreements += 1
    _report(
        "C1 twisted-translate PSD <=> state PSD",
        disagreements == 0 and elapsed < 60.0,
        f"{total} operators over {len(data)} frames, {skipped} in-band skipped, "
        f"{disagreements} disagreements, suite built in {elapsed:.1f}s",
    )


def test_c02_distribution_positivity_equivalence(equivalence_suite):
    data, _ = equivalence_suite
    disagreements = 0
    skipped = 0
    total = 0
    for name, (frame, rep, cocycle, records) in data.items():
        for rec in records:
            total += 1
            resolved = _resolve(
                rec.mu_min, lambda: float(np.min(pf.represent(rep, rec.rho, TIGHT)))
            )
            if resolved is None:
                skipped += 1
                continue
            if (resolved >= 0) != rec.mc_psd:
                disagreements += 1
    _report(
        "C2 translate PSD <=> distribution nonnegative",
        disagreements == 0,
        f"{total} operators, {skipped} in-band skipped, {disagreements} disagreements",
    )


@pytest.mark.parametrize("d", [3, 5])
def test_c03_half_phase_specialization(d):
    frame = pf.weyl_frame(d)
    rep = pf.build_representation(frame)
    group = frame.group
    phi = pf.characteristic(rep, pf.random_density(d, 9000 + d))
    m = pf.build_mq(group, phi, pf.cocycle_table(frame))
    omega = np.exp(-2j * np.pi / d)
    s = (d + 1) // 2
    worst = 0.0
    for a, (j, l) in enumerate(group.elements):
        for b, (jp, lp) in enumerate(group.elements):
            expected = phi[group.index(((jp - j) % d, (lp - l) % d))]
            expected = expected * omega ** (((j * lp - jp * l) * s) % d)
            worst = max(worst, abs(m[a, b] - expected))
    _report(
        f"C3 twisted matrix matches half-phase formula (d={d})",
        worst < 1e-10,
        f"max entry deviation {worst:.2e}",
    )


@pytest.mark.parametrize("d", [3, 5])
def test_c04_direct_wigner_oracle(d):
    frame = pf.weyl_frame(d)
    rep = pf.build_representation(frame)
    worst = 0.0
    for seed in range(50):
        v = pf.random_pure_vector(d, 500 + seed)
        mu = pf.represent(rep, np.outer(v, v.conj()))
        worst = max(worst, float(np.max(np.abs(mu - pf.gross_as_dual_distribution(v)))))
    _report(
        f"C4 frame route equals direct Wigner convolution (d={d})",
        worst < 1e-10,
        f"50 states, max deviation {worst:.2e}",
    )


@pytest.fixture(scope="module")
def cli_frames(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_frames")
    paths = {}
    for name, d in (("weyl3", 3), ("weyl5", 5)):
        out = root / f"{name}.json"
        assert main(["frame", "build", "weyl", "--d", str(d), "--out", str(out)]) == 0
        paths[name] = out
    return paths


def test_c05_stabilizer_positivity_and_random_negativity(cli_frames, tmp_path):
    exit_codes = {3: [], 5: []}
    for d, key in ((3, "weyl3"), (5, "weyl5")):
        specs = [f"basis:{k}" for k in range(d)] + [
            f"quadratic:{a}:{b}" for a in range(d) for b in range(d)
        ]
        for spec in specs:
            code = main(["certify", "--frame", str(cli_frames[key]), "--state", spec])
            exit_codes[d].append(code)
    stab_ok = all(c == 0 for codes in exit_codes.values() for c in codes)

    from phaseframe.serialize import save_state

    random_codes = []
    for i, rho in enumerate(pf.random_pure_family(3, 100, 42)):
        path = tmp_path / f"state_{i}.json"
        save_state(rho, path)
        random_codes.append(
            main(["certify", "--frame", str(cli_frames["weyl3"]), "--state-file", str(path)])
        )
    n_exit4 = sum(1 for c in random_codes if c == 4)
    n_positive = sum(1 for c in random_codes if c == 0)

    _report(
        "C5 stabilizers certify positive, Haar-random states certify negative",
        stab_ok
        and n_exit4 >= 95
        and n_exit4 == SEED42_EXIT4_COUNT
        and n_positive == SEED42_POSITIVE_COUNT,
        f"stabilizers: {exit_codes[3].count(0)}/12 (d=3), {exit_codes[5].count(0)}/30 (d=5) "
        f"exit 0; random: {n_exit4}/100 exit 4 (frozen {SEED42_EXIT4_COUNT})",
    )


def test_c06_orthogonality_structure(builtin_frames):
    worst_trace = 0.0
    worst_gram = 0.0
    worst_fourier = 0.0
    faithful = ["weyl3", "weyl5", "qubit_ppp", "qubit_ppm", "tensor_qq"]
    for name in faithful:
        frame = builtin_frames[name]
        d = frame.dim
        n = frame.group.size
        stack = frame.operators
        worst_trace = max(
            worst_trace, max(abs(np.trace(op)) for op in frame.operators[1:])
        )
        gram = np.einsum("aij,bij->ab", stack.conj(), stack)
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - d * np.eye(n)))))
        rep = pf.build_representation(frame)
        fstack = np.stack(rep.fourier_ops)
        fgram = np.einsum("aij,bij->ab", fstack.conj(), fstack)
        c = fgram[0, 0].real
        worst_fourier = max(
            worst_fourier, float(np.max(np.abs(fgram - c * np.eye(n))))
        )
        assert c > 0
    _report(
        "C6 faithful frames are traceless orthogonal bases, as are their Fourier frames",
        worst_trace < 1e-10 and worst_gram < 1e-10 and worst_fourier < 1e-10,
        f"max |trace| {worst_trace:.2e}, Gram dev {worst_gram:.2e}, "
        f"Fourier Gram dev {worst_fourier:.2e}",
    )


def test_c07_redundant_frame_zero_component(builtin_frames):
    frame = builtin_frames["z2cubed"]
    group = frame.group
    n = group.size
    d = frame.dim
    kernel = pf.kernel(frame)
    # When the operators repeat exactly along the kernel K (P_(g+h) = P_g for
    # h in K), F_j = (1/|G|) sum_g chi_j(g) P_g factors into the sum of
    # chi_j(r) P_r over coset representatives r times sum_(h in K) chi_j(h),
    # and that kernel sum vanishes iff chi_j is nontrivial on K. This zeroes
    # |G| - |G|/|K| components; the other |G|/|K| = d^2 form a basis. The
    # kernel alone does not fix the zeros: a valid frame may instead have
    # P_(g+h) = -P_g, and then none need vanish. Every qubit frame over Z_2^3
    # has |K| = 2, so its zero count is 0 or 4, never 1.
    periodicity = max(
        float(np.max(np.abs(frame.operator(group.compose(g, h)) - frame.operator(g))))
        for g in group.elements
        for h in kernel
    )
    table = pf.character_table(group)
    on_kernel = table[:, [group.index(h) for h in kernel]]
    expected = {group.elements[j] for j in range(n) if not np.allclose(on_kernel[j], 1.0)}
    rep = pf.build_representation(frame)
    norms = [float(np.max(np.abs(op))) for op in rep.fourier_ops]
    zero_set = {g for g, norm in zip(group.elements, norms) if norm < 1e-12}
    nonzero = [op for op, norm in zip(rep.fourier_ops, norms) if norm >= 1e-12]
    flat = np.stack(nonzero).reshape(len(nonzero), d * d)
    rank = int(np.linalg.matrix_rank(flat, tol=1e-10))
    _report(
        "C7a redundant frame zeroes exactly the Fourier components nontrivial on its kernel",
        periodicity < 1e-12
        and len(expected) == n - n // len(kernel)
        and zero_set == expected
        and rank == d * d == len(nonzero),
        f"kernel {kernel}, coset periodicity dev {periodicity:.2e}, "
        f"zero components found: {len(zero_set)} of {n} "
        f"(expected {len(expected)}, match {zero_set == expected}), "
        f"nonzero rank {rank} of {d * d}",
    )


def test_c07_redundant_frame_roundtrip(builtin_frames):
    rep = pf.build_representation(builtin_frames["z2cubed"])
    worst = 0.0
    for seed in range(20):
        rho = pf.random_density(2, 700 + seed)
        back = pf.reconstruct(rep, pf.represent(rep, rho))
        worst = max(worst, float(np.max(np.abs(back - rho))))
    _report(
        "C7b redundant frame reconstructs exactly",
        worst < 1e-10,
        f"20 states, max roundtrip error {worst:.2e}",
    )


def test_c08_phase_conventions(builtin_frames):
    worst_modulus = 0.0
    worst_pair = 0.0
    worst_identity = 0.0
    rng = np.random.default_rng(808)
    for name, frame in sorted(builtin_frames.items()):
        table = pf.cocycle_table(frame)
        values = table.values
        group = frame.group
        n = group.size
        mul = broadcast_tables(group)[0]
        worst_modulus = max(worst_modulus, float(np.max(np.abs(np.abs(values) - 1.0))))
        worst_pair = max(
            worst_pair,
            float(np.max(np.abs(values[np.arange(n), group._inv] - 1.0))),
        )
        if n <= 16:
            triples = ((a, b, c) for a in range(n) for b in range(n) for c in range(n))
        else:
            triples = (tuple(rng.integers(n, size=3)) for _ in range(1000))
        for a, b, c in triples:
            ab = mul[a, b]
            bc = mul[b, c]
            worst_identity = max(
                worst_identity,
                abs(values[a, b] * values[ab, c] - values[b, c] * values[a, bc]),
            )
    _report(
        "C8 cocycle phase conventions",
        worst_modulus < 1e-10 and worst_pair < 1e-10 and worst_identity < 1e-10,
        f"|alpha| dev {worst_modulus:.2e}, alpha(g,g^-1) dev {worst_pair:.2e}, "
        f"cocycle identity dev {worst_identity:.2e}",
    )


def _order_multisets(limit):
    out = []

    def rec(prefix, start, prod):
        for n in range(start, limit + 1):
            p = prod * n
            if p > limit:
                break
            out.append(prefix + (n,))
            rec(prefix + (n,), n, p)

    rec((), 2, 1)
    return out


def test_c09_group_fourier_analysis():
    orders_list = _order_multisets(64)
    rng = np.random.default_rng(909)
    worst_hadamard = 0.0
    worst_column = 0.0
    worst_roundtrip = 0.0
    for orders in orders_list:
        group = pf.make_group(orders)
        n = group.size
        table = pf.character_table(group)
        worst_hadamard = max(
            worst_hadamard,
            float(np.max(np.abs(np.abs(table) - 1.0))),
            float(np.max(np.abs(table @ table.conj().T / n - np.eye(n)))),
        )
        column_sums = table.sum(axis=0)
        expected = np.zeros(n)
        expected[0] = n
        worst_column = max(worst_column, float(np.max(np.abs(column_sums - expected))))
        f = rng.standard_normal((n, 100)) + 1j * rng.standard_normal((n, 100))
        scale = max(1.0, float(np.max(np.abs(f))))
        back = table.conj().T @ (table @ f / n)  # inverse after forward
        again = table @ back / n  # forward after inverse
        worst_roundtrip = max(
            worst_roundtrip,
            float(np.max(np.abs(back - f))) / scale,
            float(np.max(np.abs(again - table @ f / n))) / scale,
        )

    disagreements = 0
    for trial in range(500):
        group = pf.make_group(orders_list[trial % len(orders_list)])
        p = rng.random(group.size)
        p /= p.sum()
        if not pf.classical_bochner_check(group, pf.fourier_inverse(group, p)).accepted:
            disagreements += 1
        bad = p.copy()
        k = int(rng.integers(group.size))
        shift = bad[k] + 1e-3
        bad[k] -= shift
        bad[(k + 1) % group.size] += shift
        if pf.classical_bochner_check(group, pf.fourier_inverse(group, bad)).accepted:
            disagreements += 1
    _report(
        "C9 character tables, Fourier inversion, classical positivity test",
        worst_hadamard < 1e-10
        and worst_column < 1e-10
        and worst_roundtrip < 1e-12
        and disagreements == 0,
        f"{len(orders_list)} groups up to size 64; Hadamard dev {worst_hadamard:.2e}, "
        f"column-sum dev {worst_column:.2e}, roundtrip dev {worst_roundtrip:.2e}, "
        f"500+500 pmf checks, {disagreements} disagreements",
    )


def test_c10_qubit_sign_classes():
    import itertools

    by_parity = {1: [], -1: []}
    for signs in itertools.product((1, -1), repeat=3):
        frame = pf.qubit_frame(signs)
        parity = frame.metadata["parameters"]["parity"]
        invariant = complex(
            np.trace(
                frame.operator((1, 0)) @ frame.operator((0, 1)) @ frame.operator((1, 1))
            )
        )
        by_parity[parity].append(invariant)
    sizes_ok = len(by_parity[1]) == 4 and len(by_parity[-1]) == 4
    constant_ok = all(
        abs(v - vals[0]) < 1e-12 for vals in by_parity.values() for v in vals
    )
    separated = abs(by_parity[1][0] - by_parity[-1][0]) > 1.0
    _report(
        "C10 eight sign assignments split into two classes",
        sizes_ok and constant_ok and separated,
        f"class invariants {by_parity[1][0]:.3f} vs {by_parity[-1][0]:.3f}",
    )
