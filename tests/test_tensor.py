import itertools

import numpy as np
import pytest

from privsq import (
    DensityOperator,
    Isometry,
    LayoutError,
    PureStateVector,
    SystemLayout,
    apply_stinespring,
    dephase,
    eigh,
    haar_unitary,
    kron,
    partial_trace,
    permute_systems,
    purify,
    random_density,
    random_pure,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def ptrace_bruteforce(mat, dims, keep):
    """Independent oracle: explicit index sums over the traced subsystems."""
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    keep_dims = [dims[i] for i in keep]
    traced_dims = [dims[i] for i in traced]
    d_keep = int(np.prod(keep_dims))
    out = np.zeros((d_keep, d_keep), dtype=complex)

    def flat(idx):
        f = 0
        for i in range(n):
            f = f * dims[i] + idx[i]
        return f

    for row in itertools.product(*[range(d) for d in keep_dims]):
        for col in itertools.product(*[range(d) for d in keep_dims]):
            rf = 0
            for d, v in zip(keep_dims, row):
                rf = rf * d + v
            cf = 0
            for d, v in zip(keep_dims, col):
                cf = cf * d + v
            acc = 0.0
            for tr in itertools.product(*[range(d) for d in traced_dims]):
                idx_r = [0] * n
                idx_c = [0] * n
                for pos, v in zip(keep, row):
                    idx_r[pos] = v
                for pos, v in zip(keep, col):
                    idx_c[pos] = v
                for pos, v in zip(traced, tr):
                    idx_r[pos] = v
                    idx_c[pos] = v
                acc += mat[flat(idx_r), flat(idx_c)]
            out[rf, cf] = acc
    return out


def test_layout_validation():
    with pytest.raises(LayoutError):
        SystemLayout([("A", 2), ("A", 3)])
    with pytest.raises(LayoutError):
        SystemLayout([("A", 0)])
    lo = SystemLayout([("A", 2), ("B", 3)])
    assert lo.total_dim == 6
    assert lo.positions(("B", "A")) == (0, 1)
    with pytest.raises(LayoutError):
        lo.position("C")


def test_kron_identities_and_basis_order():
    assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    assert np.allclose(kron(p0, p1), np.diag([0.0, 1.0, 0.0, 0.0]))


def test_kron_single_flip_convention():
    ket00 = np.zeros(4)
    ket00[0] = 1.0
    out = kron(X, np.eye(2)) @ ket00
    expect = np.zeros(4)
    expect[2] = 1.0  # |10>: first system most significant
    assert np.allclose(out, expect)


def test_kron_labeled_operators():
    a = random_density(SystemLayout([("A", 2)]), 2, seed=1)
    b = random_density(SystemLayout([("B", 3)]), 3, seed=2)
    ab = kron(a, b)
    assert ab.layout.labels == ("A", "B")
    assert np.allclose(ab.matrix, np.kron(a.matrix, b.matrix))
    with pytest.raises(LayoutError):
        kron(a, a)


def test_partial_trace_maximally_mixed_marginal():
    amp = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    phi = PureStateVector(amp, SystemLayout([("A", 2), ("B", 2)])).density()
    marg = partial_trace(phi, "A")
    assert np.allclose(marg.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_case():
    lo_ab = SystemLayout([("A", 2), ("B", 2)])
    rho = random_density(lo_ab, 4, seed=5)
    sig = random_density(SystemLayout([("E", 3)]), 2, seed=6)
    joint = kron(rho, sig)
    back = partial_trace(joint, ("A", "B"))
    assert np.abs(back.matrix - rho.matrix).max() < 1e-12


def test_partial_trace_matches_bruteforce_oracle():
    for dims, keep in [((2, 3, 2), (0, 2)), ((2, 3, 2), (1,)), ((2, 2, 3, 2), (0, 3))]:
        layout = SystemLayout([(f"S{i}", d) for i, d in enumerate(dims)])
        rho = random_density(layout, layout.total_dim, seed=sum(dims))
        got = partial_trace(rho, tuple(f"S{i}" for i in keep))
        want = ptrace_bruteforce(rho.matrix, dims, keep)
        assert np.abs(got.matrix - want).max() < 1e-12


def test_partial_trace_unknown_label():
    rho = random_density(SystemLayout([("A", 2), ("B", 2)]), 4, seed=2)
    with pytest.raises(LayoutError):
        partial_trace(rho, "C")


def test_partial_trace_permutation_covariant():
    layout = SystemLayout([("A", 2), ("B", 3), ("C", 2)])
    rho = random_density(layout, 7, seed=11)
    direct = partial_trace(rho, ("A", "C"))
    perm = permute_systems(rho, ("C", "B", "A"))
    other = permute_systems(partial_trace(perm, ("A", "C")), ("A", "C"))
    assert np.abs(direct.matrix - other.matrix).max() < 1e-12


def test_permute_systems_swap_symmetry_and_involution():
    amp = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    phi = PureStateVector(amp, SystemLayout([("A", 2), ("B", 2)])).density()
    swapped = permute_systems(phi, ("B", "A"))
    assert np.allclose(swapped.matrix, phi.matrix)

    rho = random_density(SystemLayout([("A", 2), ("B", 3)]), 6, seed=3)
    twice = permute_systems(permute_systems(rho, ("B", "A")), ("A", "B"))
    assert np.array_equal(twice.matrix, rho.matrix)
    assert np.allclose(
        np.sort(np.linalg.eigvalsh(permute_systems(rho, ("B", "A")).matrix)),
        np.sort(np.linalg.eigvalsh(rho.matrix)),
    )


def test_permute_systems_basis_case():
    ket01 = np.zeros(4)
    ket01[1] = 1.0
    rho = PureStateVector(ket01, SystemLayout([("A", 2), ("B", 2)])).density()
    swapped = permute_systems(rho, ("B", "A"))
    expect = np.zeros((4, 4))
    expect[2, 2] = 1.0  # |10><10|
    assert np.allclose(swapped.matrix, expect)
    with pytest.raises(LayoutError):
        permute_systems(rho, ("A", "A"))


def test_eigh_known_spectra_and_reconstruction():
    w, _ = eigh(X)
    assert np.allclose(w, [-1.0, 1.0])
    w, _ = eigh(np.diag([0.3, 0.7]))
    assert np.allclose(w, [0.3, 0.7])

    rng = np.random.Generator(np.random.PCG64(8))
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = g + g.conj().T
    w, u = eigh(h)
    assert np.abs(u @ np.diag(w) @ u.conj().T - h).max() < 1e-10
    with pytest.raises(ValueError):
        eigh(np.ones((2, 3)))


def test_purify_pure_and_mixed():
    lo = SystemLayout([("A", 2)])
    pure = DensityOperator(np.diag([1.0, 0.0]), lo)
    phi = purify(pure, "R")
    assert phi.layout.dim_of("R") == 1
    assert np.abs(partial_trace(phi.density(), "A").matrix - pure.matrix).max() < 1e-10

    mixed = DensityOperator(np.eye(2) / 2, lo)
    phi = purify(mixed, "R")
    assert phi.layout.dim_of("R") == 2
    assert np.abs(partial_trace(phi.density(), "A").matrix - mixed.matrix).max() < 1e-10


def test_purify_roundtrip_rank3():
    lo = SystemLayout([("A", 4)])
    rho = random_density(lo, 3, seed=9)
    phi = purify(rho, "R")
    assert phi.layout.dim_of("R") == 3
    assert np.abs(partial_trace(phi.density(), "A").matrix - rho.matrix).max() < 1e-10


def depolarizing_isometry(p):
    kraus = [
        np.sqrt(1 - 3 * p / 4) * np.eye(2),
        np.sqrt(p / 4) * X,
        np.sqrt(p / 4) * np.array([[0, -1j], [1j, 0]]),
        np.sqrt(p / 4) * np.diag([1.0, -1.0]).astype(complex),
    ]
    v = np.zeros((8, 2), dtype=complex)
    for k, kr in enumerate(kraus):
        for a in range(2):
            for b in range(2):
                v[a * 4 + k, b] += kr[a, b]
    return Isometry(
        v, SystemLayout([("A", 2)]), SystemLayout([("A", 2), ("F", 4)])
    )


def test_apply_stinespring_identity_and_trivial_dilation():
    rho = random_density(SystemLayout([("A", 2), ("B", 2)]), 4, seed=4)
    v_id = Isometry(np.eye(2), SystemLayout([("A", 2)]), SystemLayout([("A", 2)]))
    out = apply_stinespring(rho, v_id, "A")
    back = permute_systems(out, rho.layout.labels)
    assert np.abs(back.matrix - rho.matrix).max() < 1e-12

    v = np.zeros((4, 2), dtype=complex)
    v[0, 0] = v[2, 1] = 1.0  # |a> -> |a>|0>_F
    dil = Isometry(v, SystemLayout([("A", 2)]), SystemLayout([("A", 2), ("F", 2)]))
    out = apply_stinespring(rho, dil, "A", discard="F")
    back = permute_systems(out, rho.layout.labels)
    assert np.abs(back.matrix - rho.matrix).max() < 1e-12


def test_apply_stinespring_depolarizing_matches_formula():
    p = 0.5
    rho = random_density(SystemLayout([("A", 2)]), 2, seed=13)
    out = apply_stinespring(rho, depolarizing_isometry(p), "A", discard="F")
    expect = (1 - p) * rho.matrix + p * np.eye(2) / 2
    assert np.abs(out.matrix - expect).max() < 1e-10


def test_apply_stinespring_preserves_trace_and_positivity():
    rng = np.random.Generator(np.random.PCG64(17))
    rho = random_density(SystemLayout([("A", 2), ("B", 3)]), 6, seed=18)
    g = rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))
    q, _ = np.linalg.qr(g)
    v = Isometry(q[:, :2], SystemLayout([("A", 2)]), SystemLayout([("C", 3), ("F", 3)]))
    out = apply_stinespring(rho, v, "A", discard="F")
    assert abs(out.matrix.trace() - 1.0) < 1e-10
    assert np.linalg.eigvalsh(out.matrix).min() > -1e-9


def test_apply_stinespring_shape_mismatch():
    rho = random_density(SystemLayout([("A", 3)]), 3, seed=1)
    v = Isometry(np.eye(2), SystemLayout([("B", 2)]), SystemLayout([("B", 2)]))
    with pytest.raises(ValueError):
        apply_stinespring(rho, v, "A")


def test_dephase_matches_measurement_dilation():
    # copy-style dilation |i> -> |i>|i>, discard the copy, equals dephasing
    rho = random_density(SystemLayout([("A", 2), ("B", 2)]), 4, seed=21)
    v = np.zeros((4, 2), dtype=complex)
    v[0, 0] = v[3, 1] = 1.0
    meas = Isometry(v, SystemLayout([("A", 2)]), SystemLayout([("A", 2), ("F", 2)]))
    via_channel = apply_stinespring(rho, meas, "A", discard="F")
    via_channel = permute_systems(via_channel, rho.layout.labels)
    direct = dephase(rho, "A")
    assert np.abs(via_channel.matrix - direct.matrix).max() < 1e-12


def test_haar_unitary_properties():
    for d, seed in [(2, 0), (3, 5), (5, 9)]:
        u = haar_unitary(d, seed)
        assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-10
    assert np.array_equal(haar_unitary(4, 3), haar_unitary(4, 3))
    assert not np.allclose(haar_unitary(4, 3), haar_unitary(4, 4))


def test_haar_unitary_first_entry_moment():
    # E |U_00|^2 = 1/d for the Haar measure
    vals = [abs(haar_unitary(2, s)[0, 0]) ** 2 for s in range(2000)]
    assert abs(np.mean(vals) - 0.5) < 0.03


def test_random_density_rank_and_invariants():
    lo = SystemLayout([("A", 4)])
    pure = random_density(lo, 1, seed=2)
    assert abs(np.trace(pure.matrix @ pure.matrix).real - 1.0) < 1e-10

    rho = random_density(lo, 2, seed=3)
    w = np.linalg.eigvalsh(rho.matrix)
    assert (w > 1e-9).sum() == 2
    assert abs(rho.matrix.trace() - 1.0) < 1e-12
    assert w.min() > -1e-12
    with pytest.raises(ValueError):
        random_density(lo, 5, seed=1)


@pytest.mark.parametrize("seed", [None, 1.0, "1", np.random.PCG64(1)])
@pytest.mark.parametrize("sampler", ["haar_unitary", "random_density", "random_pure"])
def test_samplers_refuse_seeds_that_are_not_int_or_generator(sampler, seed):
    # None would draw from OS entropy and break reproducibility
    lo = SystemLayout([("A", 2)])
    draw = {
        "haar_unitary": lambda s: haar_unitary(2, s),
        "random_density": lambda s: random_density(lo, 2, s).matrix,
        "random_pure": lambda s: random_pure(lo, s).amplitudes,
    }[sampler]
    with pytest.raises(TypeError, match="seed must be an int or a numpy Generator"):
        draw(seed)
    # accepted: python and numpy integers, and a generator, all on PCG64(3)
    assert np.array_equal(draw(3), draw(np.int64(3)))
    assert np.array_equal(draw(3), draw(np.random.default_rng(3)))


def test_density_operator_validation():
    lo = SystemLayout([("A", 2)])
    with pytest.raises(ValueError):
        DensityOperator(np.array([[1.0, 1.0], [0.0, 0.0]]), lo)  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(np.diag([0.7, 0.7]), lo)  # trace 1.4
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]), lo)  # negative eigenvalue
    with pytest.raises(ValueError, match=r"V\^dag V deviates from identity"):
        Isometry(np.array([[1.0, 0.0], [0.0, 0.5]]), lo, lo)
    with pytest.raises(ValueError, match="state vector norm 2 is not 1"):
        PureStateVector(np.array([2.0, 0.0]), lo)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_constructors_refuse_non_finite_entries(bad):
    # every tolerance comparison is False on NaN, so only an explicit check refuses it
    lo = SystemLayout([("A", 2)])
    rho = np.diag([bad, 0.5])
    with pytest.raises(ValueError, match="density matrix has non-finite entries"):
        DensityOperator(rho, lo)
    with pytest.raises(ValueError, match="state vector has non-finite entries"):
        PureStateVector(np.array([bad, 1.0]), lo)
    with pytest.raises(ValueError, match="isometry has non-finite entries"):
        Isometry(np.array([[1.0, 0.0], [0.0, bad]]), lo, lo)


def test_kron_pure_state_vectors():
    a = random_pure(SystemLayout([("A", 2)]), seed=1)
    b = random_pure(SystemLayout([("B", 3)]), seed=2)
    ab = kron(a, b)
    assert ab.layout.labels == ("A", "B")
    assert np.allclose(ab.amplitudes, np.kron(a.amplitudes, b.amplitudes))


def test_purify_label_collision():
    rho = random_density(SystemLayout([("R", 2)]), 2, seed=1)
    with pytest.raises(LayoutError):
        purify(rho, "R")


def test_haar_unitary_rejects_bad_dim():
    with pytest.raises(ValueError):
        haar_unitary(0, 1)


def test_values_are_immutable():
    rho = random_density(SystemLayout([("A", 2)]), 2, seed=1)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0
    psi = random_pure(SystemLayout([("A", 2)]), seed=1)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0
