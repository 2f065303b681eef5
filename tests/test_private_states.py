import itertools

import numpy as np
import pytest

from privsq import (
    DensityOperator,
    PrivateStateSpec,
    PureStateVector,
    SystemLayout,
    approx_private_state,
    dephase,
    fidelity,
    ghz_state,
    haar_unitary,
    kron,
    max_entangled,
    partial_trace,
    privacy_deviation,
    private_state,
    private_state_extension,
    random_density,
    random_private_spec,
    twisting_unitary,
    uniform_classical,
    vn_entropy,
)
from privsq.layout import fresh_label
from privsq.private_states import _deviation_of_purification
from privsq.tensor import purify


def identity_spec(key_dim=2, shield_dims=(2, 2), sigma_seed=1):
    parties = len(shield_dims)
    d_sh = int(np.prod(shield_dims))
    labels = [f"A{i+1}p" for i in range(parties)]
    sigma = random_density(SystemLayout(zip(labels, shield_dims)), d_sh, seed=sigma_seed)
    controls = {
        idx: np.eye(d_sh) for idx in itertools.product(range(key_dim), repeat=parties)
    }
    return PrivateStateSpec(key_dim, shield_dims, sigma, controls)


def test_ghz_state_validation():
    with pytest.raises(ValueError):
        ghz_state(1, 3)
    with pytest.raises(ValueError):
        ghz_state(2, 1)
    with pytest.raises(ValueError):
        ghz_state(2, 3, labels=("A", "B"))


def test_max_entangled_entries_and_marginal():
    phi = max_entangled(2)
    for i in range(2):
        for j in range(2):
            assert abs(phi.matrix[3 * i, 3 * j] - 0.5) < 1e-12
    assert abs(np.abs(phi.matrix).sum() - 2.0) < 1e-12  # nothing outside the block
    marg = partial_trace(phi, "B")
    assert np.allclose(marg.matrix, np.eye(2) / 2)
    assert abs(vn_entropy(marg) - 1.0) < 1e-12
    k3 = max_entangled(3)
    assert abs(vn_entropy(partial_trace(k3, "B")) - np.log2(3)) < 1e-12


def test_ghz_reduces_to_max_entangled_and_entries():
    assert np.allclose(ghz_state(2, 2, ("A", "B")).matrix, max_entangled(2).matrix)

    ghz = ghz_state(2, 3)
    nonzero = {(0, 0), (0, 7), (7, 0), (7, 7)}
    for r in range(8):
        for c in range(8):
            expect = 0.5 if (r, c) in nonzero else 0.0
            assert abs(ghz.matrix[r, c] - expect) < 1e-12
    for lbl in ("A1", "A2", "A3"):
        assert np.allclose(partial_trace(ghz, lbl).matrix, np.eye(2) / 2)


def test_twisting_unitary_identity_and_unitarity():
    spec = identity_spec()
    assert np.allclose(twisting_unitary(spec), np.eye(16))

    spec = random_private_spec(2, (2, 2), seed=7)
    u = twisting_unitary(spec)
    assert np.abs(u.conj().T @ u - np.eye(16)).max() < 1e-10


def test_twisting_unitary_block_action():
    spec = random_private_spec(2, (2, 2), seed=9)
    u = twisting_unitary(spec)
    d_sh = 4
    for i in range(2):
        for j in range(2):
            for s in range(d_sh):
                vec = np.zeros(16, dtype=complex)
                vec[(2 * i + j) * d_sh + s] = 1.0
                out = u @ vec
                expect = np.zeros(16, dtype=complex)
                expect[(2 * i + j) * d_sh : (2 * i + j + 1) * d_sh] = spec.controls[(i, j)][:, s]
                assert np.abs(out - expect).max() < 1e-12


def test_twisting_controls_validated():
    spec = identity_spec()
    controls = dict(spec.controls)
    del controls[(1, 1)]
    with pytest.raises(ValueError, match="missing"):
        PrivateStateSpec(2, (2, 2), spec.shield_state, controls)
    controls[(1, 1)] = np.ones((4, 4))
    with pytest.raises(ValueError, match="unitary"):
        PrivateStateSpec(2, (2, 2), spec.shield_state, controls)


def test_private_state_trivial_twist_is_product():
    spec = identity_spec(sigma_seed=3)
    gamma = private_state(spec)
    expect = kron(ghz_state(2, 2, spec.key_labels), spec.shield_state)
    assert np.abs(gamma.matrix - expect.matrix).max() < 1e-12
    assert gamma.layout.labels == ("A1", "A2", "A1p", "A2p")


def test_private_state_spectrum_matches_untwisted():
    spec = random_private_spec(2, (2, 2), seed=11, sigma_rank=3)
    gamma = private_state(spec)
    base = kron(ghz_state(2, 2, spec.key_labels), spec.shield_state)
    assert np.abs(
        np.linalg.eigvalsh(gamma.matrix) - np.linalg.eigvalsh(base.matrix)
    ).max() < 1e-10


def test_private_state_key_measurement_statistics():
    spec = random_private_spec(3, (2, 2), seed=13)
    gamma = private_state(spec)
    measured = dephase(gamma, spec.key_labels)
    keys = partial_trace(measured, spec.key_labels)
    expect = uniform_classical(3, keys.layout)
    assert np.abs(keys.matrix - expect.matrix).max() < 1e-10
    # off-diagonal key blocks vanish after measurement
    t = measured.matrix.reshape((3, 3, 4, 3, 3, 4))
    for i in range(3):
        for j in range(3):
            if i != j:
                assert np.abs(t[i, i, :, j, j, :]).max() < 1e-12


def test_privacy_deviation_anchors():
    for seed, k in [(21, 2), (22, 3)]:
        spec = random_private_spec(k, (2, 2), seed=seed)
        gamma = private_state(spec)
        assert privacy_deviation(gamma, k, spec.key_labels, spec.shield_labels) < 1e-10

    # maximally entangled state with trivial (dim-1) shields is private
    spec = random_private_spec(2, (1, 1), seed=23)
    gamma = private_state(spec)
    assert privacy_deviation(gamma, 2, spec.key_labels, spec.shield_labels) < 1e-10


def test_privacy_deviation_fifty_random_specs():
    for i in range(50):
        k = 2 if i % 2 == 0 else 3
        spec = random_private_spec(k, (2, 2), seed=700 + i, sigma_rank=(i % 4) + 1)
        gamma = private_state(spec)
        assert privacy_deviation(gamma, k, spec.key_labels, spec.shield_labels) < 1e-9


def test_private_state_depends_only_on_diagonal_controls():
    spec = random_private_spec(2, (2, 2), seed=63)
    gamma = private_state(spec)
    controls = dict(spec.controls)
    rng_seeds = iter(range(900, 910))
    for idx in list(controls):
        if idx[0] != idx[1]:
            controls[idx] = haar_unitary(4, next(rng_seeds))
    other = PrivateStateSpec(
        2, (2, 2), spec.shield_state, controls, spec.key_labels, spec.shield_labels
    )
    assert np.abs(private_state(other).matrix - gamma.matrix).max() < 1e-12


def test_privacy_deviation_depolarized_value():
    spec = random_private_spec(2, (2, 2), seed=100)
    omega, _ = approx_private_state(spec, 0.2, seed=101)
    dev = privacy_deviation(omega, 2, spec.key_labels, spec.shield_labels)
    assert dev > 0.01
    assert abs(dev - 0.2482292246909534) < 1e-9  # frozen oracle run


def test_privacy_deviation_purification_independent():
    spec = random_private_spec(2, (2, 2), seed=100)
    omega, _ = approx_private_state(spec, 0.2, seed=101)
    ref = fresh_label(omega.layout.labels, "Epur")
    phi = purify(omega, ref)
    base = _deviation_of_purification(phi.density(), ref, spec.key_labels, 2)
    r = phi.layout.dim_of(ref)
    m = phi.amplitudes.reshape(r, -1)
    for s in range(5):
        u = haar_unitary(r, 500 + s)
        rotated = PureStateVector((u @ m).reshape(-1), phi.layout)
        dev = _deviation_of_purification(rotated.density(), ref, spec.key_labels, 2)
        assert abs(dev - base) < 1e-10


def test_private_state_extension_marginal_and_form():
    spec = random_private_spec(2, (2, 2), seed=31, ext_dim=2)
    gamma_ext = private_state_extension(spec)
    assert gamma_ext.layout.labels == ("A1", "A2", "A1p", "A2p", "E")
    reduced = partial_trace(gamma_ext, ("A1", "A2", "A1p", "A2p"))

    shieldspec = PrivateStateSpec(
        2, (2, 2), spec.shield_marginal(), spec.controls, spec.key_labels, spec.shield_labels
    )
    gamma = private_state(shieldspec)
    assert np.abs(reduced.matrix - gamma.matrix).max() < 1e-10


def test_private_state_extension_dim1_env():
    spec = random_private_spec(2, (2, 2), seed=33, ext_dim=1)
    gamma_ext = private_state_extension(spec)
    gamma = private_state(
        PrivateStateSpec(2, (2, 2), spec.shield_marginal(), spec.controls)
    )
    assert np.abs(
        partial_trace(gamma_ext, gamma.layout.labels).matrix - gamma.matrix
    ).max() < 1e-12


def test_private_state_extension_env_marginal_key_independent():
    spec = random_private_spec(2, (2, 2), seed=35, ext_dim=3)
    sigma_ext = spec.shield_state
    mats = []
    for i in range(2):
        u = spec.controls[(i, i)]
        big = np.kron(u, np.eye(3))
        rotated = DensityOperator(big @ sigma_ext.matrix @ big.conj().T, sigma_ext.layout)
        mats.append(partial_trace(rotated, "E").matrix)
    assert np.abs(mats[0] - mats[1]).max() < 1e-10


def test_private_state_extension_explicit_argument_and_mismatch():
    spec = random_private_spec(2, (2, 2), seed=37)
    lo_ext = spec.shield_state.layout.concat(SystemLayout([("E", 2)]))
    good = kron(spec.shield_state, random_density(SystemLayout([("E", 2)]), 2, seed=38))
    gamma_ext = private_state_extension(spec, good)
    assert gamma_ext.layout.labels[-1] == "E"

    bad = random_density(lo_ext, 8, seed=39)
    with pytest.raises(ValueError, match="marginal mismatch"):
        private_state_extension(spec, bad)


def test_private_state_rejects_extension_spec():
    spec = random_private_spec(2, (2, 2), seed=41, ext_dim=2)
    with pytest.raises(ValueError):
        private_state(spec)
    spec = random_private_spec(2, (2, 2), seed=41)
    with pytest.raises(ValueError):
        private_state_extension(spec)


def test_approx_private_state():
    spec = random_private_spec(2, (2, 2), seed=51)
    gamma = private_state(spec)
    omega, eps = approx_private_state(spec, 0.0, seed=52)
    assert eps == 0.0
    assert np.abs(omega.matrix - gamma.matrix).max() < 1e-12

    # eps nondecreasing along the segment toward the same tau
    last = -1.0
    for p in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        omega, eps = approx_private_state(spec, p, seed=53)
        assert eps >= last - 1e-12
        last = eps
        assert abs(omega.matrix.trace() - 1.0) < 1e-10
        assert np.linalg.eigvalsh(omega.matrix).min() > -1e-12
        assert abs(1.0 - fidelity(gamma, omega) - eps) < 1e-12


def _reference_spec_draws(key_dim, shield_dims, seed, rank, ext_dim=None):
    """Controls and shield matrix drawn as the seed contract fixes them: one
    PCG64 stream, Haar controls in key-index order, then the Ginibre shield
    state (the samplers written out independently of privsq)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    d_sh = int(np.prod(shield_dims))
    controls = {}
    for idx in itertools.product(range(key_dim), repeat=len(shield_dims)):
        g = (rng.standard_normal((d_sh, d_sh)) + 1j * rng.standard_normal((d_sh, d_sh))) / np.sqrt(2)
        q, r = np.linalg.qr(g)
        diag = np.diag(r).copy()
        diag[np.abs(diag) < 1e-300] = 1.0
        controls[idx] = q * (diag / np.abs(diag))
    d = d_sh * (ext_dim or 1)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    return controls, mat / mat.trace().real


def test_random_private_spec_seed_contract():
    for key_dim, shield_dims, seed, rank, ext_dim in (
        (2, (2, 2), 0, 4, None),
        (3, (2, 3), 5, 2, None),
        (2, (2, 2, 2), 9, 3, 2),
    ):
        spec = random_private_spec(key_dim, shield_dims, seed, sigma_rank=rank, ext_dim=ext_dim)
        controls, mat = _reference_spec_draws(key_dim, shield_dims, seed, rank, ext_dim)
        assert spec.controls.keys() == controls.keys()
        for idx, u in controls.items():
            assert np.array_equal(spec.controls[idx], u)
        assert np.array_equal(spec.shield_state.matrix, mat)
    # an integer seed and a fresh generator of that seed draw the same sample
    assert np.array_equal(haar_unitary(4, 3), haar_unitary(4, np.random.Generator(np.random.PCG64(3))))


def test_random_private_spec_rank_out_of_range():
    for rank in (0, 5):
        with pytest.raises(ValueError, match=f"rank {rank} out of range 1..4"):
            random_private_spec(2, (2, 2), seed=1, sigma_rank=rank)


def test_random_private_spec_refuses_a_missing_seed():
    # seed=None would draw twisting controls and shield state from OS entropy
    for seed in (None, 2.0):
        with pytest.raises(TypeError, match="seed must be an int or a numpy Generator"):
            random_private_spec(2, (2, 2), seed)


def test_random_private_spec_checks_counts_before_drawing(monkeypatch):
    import privsq.private_states

    draws = []

    def counting(d, rng):
        draws.append(d)
        return haar_unitary(d, rng)

    monkeypatch.setattr(privsq.private_states, "haar_unitary", counting)
    with pytest.raises(ValueError, match="key dimension 1 < 2"):
        random_private_spec(1, (2, 2), seed=0)
    with pytest.raises(ValueError, match="party count 1 < 2"):
        random_private_spec(2, (2,), seed=0)
    assert draws == []
