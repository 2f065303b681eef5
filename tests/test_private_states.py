import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from privsq import (
    DensityOperator,
    LayoutError,
    PrivateStateSpec,
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
    purify_private_state,
    random_density,
    random_private_spec,
    trace_distance,
    uniform_classical,
    vn_entropy,
)
from privsq.layout import fresh_label
from privsq.private_states import _deviation, _random_private_specs
from privsq.tensor import purification_matrix, purify


def identity_spec(key_dim=2, shield_dims=(2, 2), sigma_seed=1):
    parties = len(shield_dims)
    d_sh = int(np.prod(shield_dims))
    labels = [f"A{i+1}p" for i in range(parties)]
    sigma = random_density(SystemLayout(zip(labels, shield_dims)), d_sh, seed=sigma_seed)
    return PrivateStateSpec(key_dim, shield_dims, sigma, [np.eye(d_sh)] * key_dim)


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


def test_twisting_controls_validated():
    spec = identity_spec()
    for count in (1, 3):
        with pytest.raises(ValueError, match=f"{count} twisting controls for key dimension 2"):
            PrivateStateSpec(2, (2, 2), spec.shield_state, [np.eye(4)] * count)
    with pytest.raises(ValueError, match=r"control 1 has shape \(2, 2\)"):
        PrivateStateSpec(2, (2, 2), spec.shield_state, [np.eye(4), np.eye(2)])
    with pytest.raises(ValueError, match="control 1 is not unitary"):
        PrivateStateSpec(2, (2, 2), spec.shield_state, [np.eye(4), np.ones((4, 4))])


def test_twisting_controls_refuse_non_finite_entries():
    # NaN makes every comparison of the unitarity test False, so it used to pass
    spec = identity_spec()
    for bad in (np.nan, np.inf):
        controls = [np.eye(4), np.full((4, 4), bad)]
        with pytest.raises(ValueError, match="control 1 has non-finite entries"):
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


def test_uniform_classical_at_key_dimension_one():
    # K = 1: every system is one-dimensional and the state is [[1]]
    for systems in (1, 2, 3):
        layout = SystemLayout((f"A{i}", 1) for i in range(systems))
        assert np.array_equal(uniform_classical(1, layout).matrix, [[1.0]])
    with pytest.raises(LayoutError, match="at least one system"):
        uniform_classical(2, SystemLayout([]))


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


def _density_chain_deviation(rho, key_labels):
    """Reference: the privacy condition spelled out on the density matrix of
    the canonical purification, which has size (rank * D)^2."""
    key_labels = tuple(key_labels)
    ref = fresh_label(rho.layout.labels, "Epur")
    measured = dephase(purify(rho, ref).density(), key_labels)
    reduced = partial_trace(measured, (ref,) + key_labels)
    key_dim = rho.layout.dim_of(key_labels[0])
    target = kron(partial_trace(reduced, ref),
                  uniform_classical(key_dim, reduced.layout.sublayout(key_labels)))
    return trace_distance(reduced, target)


def test_privacy_deviation_anchors():
    for seed, k in [(21, 2), (22, 3)]:
        spec = random_private_spec(k, (2, 2), seed=seed)
        gamma = private_state(spec)
        assert privacy_deviation(gamma, spec.key_labels) < 1e-10

    # maximally entangled state with trivial (dim-1) shields is private
    spec = random_private_spec(2, (1, 1), seed=23)
    gamma = private_state(spec)
    assert privacy_deviation(gamma, spec.key_labels) < 1e-10


def test_privacy_deviation_fifty_random_specs():
    for i in range(50):
        k = 2 if i % 2 == 0 else 3
        spec = random_private_spec(k, (2, 2), seed=700 + i, sigma_rank=(i % 4) + 1)
        gamma = private_state(spec)
        assert privacy_deviation(gamma, spec.key_labels) < 1e-9


def test_privacy_deviation_depolarized_value():
    spec = random_private_spec(2, (2, 2), seed=100)
    omega, _ = approx_private_state(private_state(spec), 0.2, seed=101)
    dev = privacy_deviation(omega, spec.key_labels)
    assert dev > 0.01
    assert abs(dev - 0.2482292246909534) < 1e-9  # frozen oracle run


def test_privacy_deviation_purification_independent():
    spec = random_private_spec(2, (2, 2), seed=100)
    omega, _ = approx_private_state(private_state(spec), 0.2, seed=101)
    psi = purification_matrix(omega.matrix)
    base = _deviation(psi, omega.layout, spec.key_labels)
    for s in range(5):
        u = haar_unitary(psi.shape[0], 500 + s)
        dev = _deviation(u @ psi, omega.layout, spec.key_labels)
        assert abs(dev - base) < 1e-10


@pytest.mark.parametrize("key_dim, shield_dims", [
    (2, (1, 1)), (2, (2, 2)), (2, (1, 2)), (2, (1, 1, 1)), (2, (2, 1, 1)),
    (3, (1, 1)), (3, (1, 2)), (3, (2, 2)), (3, (1, 1, 1)),
])
def test_privacy_deviation_matches_density_chain(key_dim, shield_dims):
    """Private states (full-rank and rank-one shield states) and their
    noisy mixtures, up to noise 0.12, agree with the density-chain reference."""
    for seed, rank in itertools.product(range(2), (None, 1)):
        spec = random_private_spec(key_dim, shield_dims, seed=900 + seed, sigma_rank=rank)
        gamma = private_state(spec)
        for noise in (0.0, 0.03, 0.12):
            rho = approx_private_state(gamma, noise, seed=950 + seed)[0] if noise else gamma
            expect = _density_chain_deviation(rho, spec.key_labels)
            assert abs(privacy_deviation(rho, spec.key_labels) - expect) < 1e-12


def test_privacy_deviation_keys_in_any_position_and_order():
    rho = random_density(SystemLayout((("S", 2), ("B", 3), ("T", 1), ("A", 3))), 4, seed=5)
    expect = _density_chain_deviation(rho, ("A", "B"))
    assert expect > 0.01
    for keys in (("A", "B"), ("B", "A")):
        assert abs(privacy_deviation(rho, keys) - expect) < 1e-12


def test_privacy_deviation_refuses_bad_keys():
    rho = random_density(SystemLayout((("A1", 2), ("A2", 3), ("A1p", 2))), 3, seed=8)
    with pytest.raises(ValueError, match="unequal dimension"):
        privacy_deviation(rho, ("A1", "A2"))
    with pytest.raises(LayoutError, match="at least one key system"):
        privacy_deviation(rho, ())
    with pytest.raises(LayoutError, match="unknown system label"):
        privacy_deviation(rho, ("A1", "B"))
    with pytest.raises(LayoutError, match="repeat a system"):
        privacy_deviation(rho, ("A1", "A1"))


def test_privacy_deviation_memory_guard():
    """No matrix of size (rank * D)^2: at shields (4, 8) the density chain
    traced 768 MB, the key blocks stay well under 16 MB."""
    spec = random_private_spec(2, (4, 8), seed=7)
    gamma = private_state(spec)
    tracemalloc.start()
    try:
        dev = privacy_deviation(gamma, spec.key_labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dev < 1e-9
    assert peak < 16 * 2**20


def test_private_state_extension_marginal_and_form():
    spec = random_private_spec(2, (2, 2), seed=31, ext_dim=2)
    gamma_ext = private_state(spec)
    assert gamma_ext.layout.labels == ("A1", "A2", "A1p", "A2p", "E")
    reduced = partial_trace(gamma_ext, ("A1", "A2", "A1p", "A2p"))

    gamma = private_state(PrivateStateSpec(2, (2, 2), spec.shield_marginal(), spec.controls))
    assert np.abs(reduced.matrix - gamma.matrix).max() < 1e-10


def test_private_state_extension_dim1_env():
    spec = random_private_spec(2, (2, 2), seed=33, ext_dim=1)
    gamma_ext = private_state(spec)
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
        u = spec.controls[i]
        big = np.kron(u, np.eye(3))
        rotated = DensityOperator(big @ sigma_ext.matrix @ big.conj().T, sigma_ext.layout)
        mats.append(partial_trace(rotated, "E").matrix)
    assert np.abs(mats[0] - mats[1]).max() < 1e-10


def reference_twisted_state(spec, seed):
    """``U (Phi (x) sigma) U^dag`` from ``np.kron`` and the full block-diagonal
    twist over all ``K^m`` key indices, whose blocks off the all-equal indices
    are fresh Haar unitaries, acting as identity on extension systems."""
    k, m = spec.key_dim, spec.parties
    d_sh = int(np.prod(spec.shield_dims))
    d_ext = spec.shield_state.dim // d_sh
    rng = np.random.default_rng(seed)
    twist = np.zeros((k**m * d_sh,) * 2, dtype=complex)
    amp = np.zeros(k**m)
    for flat, idx in enumerate(itertools.product(range(k), repeat=m)):
        equal = len(set(idx)) == 1
        block = spec.controls[idx[0]] if equal else haar_unitary(d_sh, rng)
        twist[flat * d_sh:(flat + 1) * d_sh, flat * d_sh:(flat + 1) * d_sh] = block
        amp[flat] = 1.0 / np.sqrt(k) if equal else 0.0
    u = np.kron(twist, np.eye(d_ext))
    return u @ np.kron(np.outer(amp, amp), spec.shield_state.matrix) @ u.conj().T


@pytest.mark.parametrize("key_dim, shield_dims", [
    (2, (2, 2)), (3, (2, 3)), (2, (2, 1, 2)), (3, (1, 2, 1)),
])
@pytest.mark.parametrize("ext_dim", [None, 2])
def test_private_state_matches_the_full_twist(key_dim, shield_dims, ext_dim):
    spec = random_private_spec(key_dim, shield_dims, seed=key_dim + len(shield_dims),
                               ext_dim=ext_dim)
    gamma = private_state(spec)
    keys = tuple(f"A{i + 1}" for i in range(len(shield_dims)))
    assert gamma.layout.labels == keys + spec.shield_state.layout.labels
    for seed in (0, 1):
        assert np.abs(gamma.matrix - reference_twisted_state(spec, seed)).max() < 1e-14


def test_spec_holds_one_read_only_control_per_key_value():
    assert [f.name for f in dataclasses.fields(PrivateStateSpec)] == [
        "key_dim", "shield_dims", "shield_state", "controls"]
    drawn = random_private_spec(3, (2, 2), seed=3)
    given = PrivateStateSpec(3, (2, 2), drawn.shield_state, list(drawn.controls))
    for spec in (drawn, given):
        assert isinstance(spec.controls, tuple) and len(spec.controls) == 3
        assert spec.key_labels == ("A1", "A2") and spec.shield_labels == ("A1p", "A2p")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.controls = (np.eye(4),) * 3
        with pytest.raises(TypeError):
            spec.controls[1] = np.full((4, 4), np.nan)
        with pytest.raises(ValueError, match="read-only"):
            spec.controls[1][0, 0] = np.nan


def test_approx_private_state():
    spec = random_private_spec(2, (2, 2), seed=51)
    gamma = private_state(spec)
    omega, eps = approx_private_state(gamma, 0.0, seed=52)
    assert eps == 0.0
    assert np.abs(omega.matrix - gamma.matrix).max() < 1e-12

    # eps nondecreasing along the segment toward the same tau
    last = -1.0
    for p in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        omega, eps = approx_private_state(gamma, p, seed=53)
        assert eps >= last - 1e-12
        last = eps
        assert abs(omega.matrix.trace() - 1.0) < 1e-10
        assert np.linalg.eigvalsh(omega.matrix).min() > -1e-12
        assert abs(1.0 - fidelity(gamma, omega) - eps) < 1e-12


def _reference_spec_draws(key_dim, shield_dims, seed, rank, ext_dim=None):
    """Unitaries and shield matrix drawn as the seed contract fixes them: one
    PCG64 stream, one Haar unitary per key-index tuple in key-index order,
    then the Ginibre shield state (the samplers written out independently of
    privsq)."""
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
        draws, mat = _reference_spec_draws(key_dim, shield_dims, seed, rank, ext_dim)
        # the spec keeps the draws of the all-equal key indices, in key order
        assert len(spec.controls) == key_dim
        for i, u in enumerate(spec.controls):
            assert np.array_equal(u, draws[(i,) * len(shield_dims)])
        assert np.array_equal(spec.shield_state.matrix, mat)
    # an integer seed and a fresh generator of that seed draw the same sample
    assert np.array_equal(haar_unitary(4, 3), haar_unitary(4, np.random.Generator(np.random.PCG64(3))))


@pytest.mark.parametrize("key_dim, parties", ((2, 2), (2, 3), (3, 2)))
def test_random_private_spec_matches_per_unitary_draws(key_dim, parties):
    """The controls come from one stacked QR of the kept draws; they and the
    shield state equal, bit for bit, a loop of haar_unitary over all K^m
    key-index tuples followed by the shield state."""
    for seed, rank, ext_dim in ((0, None, None), (7, 2, 2), (21, 1, 3)):
        spec = random_private_spec(key_dim, (2,) * parties, seed, sigma_rank=rank, ext_dim=ext_dim)
        rng = np.random.Generator(np.random.PCG64(seed))
        draws = [haar_unitary(2**parties, rng) for _ in range(key_dim**parties)]
        sigma = random_density(spec.shield_state.layout, rank or spec.shield_state.dim, rng)
        step = sum(key_dim**j for j in range(parties))
        for u, v in zip(spec.controls, draws[::step], strict=True):
            assert np.array_equal(u, v)
        assert np.array_equal(spec.shield_state.matrix, sigma.matrix)


@pytest.mark.parametrize("key_dim", (2, 3))
@pytest.mark.parametrize("parties", (2, 3))
@pytest.mark.parametrize("sigma_rank", (None, 1))
@pytest.mark.parametrize("ext_dim", (None, 2))
def test_purify_private_state_reduces_to_the_state(key_dim, parties, sigma_rank, ext_dim):
    spec = random_private_spec(key_dim, (2,) * parties, seed=60 + parties, ext_dim=ext_dim,
                               sigma_rank=sigma_rank)
    pure = purify_private_state(spec)
    rank = sigma_rank or spec.shield_state.dim
    assert pure.layout.systems[0] == ("R", rank)
    reduced = partial_trace(pure.density(), pure.layout.labels[1:])
    state = private_state(spec)
    assert reduced.layout == state.layout
    assert np.abs(reduced.matrix - state.matrix).max() < 1e-14


def test_purify_private_state_refuses_colliding_reference():
    spec = random_private_spec(2, (2, 2), seed=64, ext_dim=2)
    assert purify_private_state(spec, "Q").layout.labels[0] == "Q"
    for label in ("A1", "A2p", "E"):
        with pytest.raises(LayoutError):
            purify_private_state(spec, label)


def test_random_private_spec_rank_out_of_range():
    # the rank is checked against the shield layout (with E when ext_dim is
    # set) before the generator is made, so a generator passed in is left as
    # it was
    for rank, ext_dim, top in ((0, None, 4), (5, None, 4), (9, 2, 8)):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"rank {rank} out of range 1..{top}"):
            random_private_spec(2, (2, 2), rng, sigma_rank=rank, ext_dim=ext_dim)
        assert rng.bit_generator.state == before


def test_random_private_spec_refuses_a_missing_seed():
    # seed=None would draw twisting controls and shield state from OS entropy
    for seed in (None, 2.0):
        with pytest.raises(TypeError, match="seed must be an int or a numpy Generator"):
            random_private_spec(2, (2, 2), seed)


def test_samplers_refuse_a_bool_seed():
    # bool is an int subclass, so True and False used to draw as seeds 1 and 0
    with pytest.raises(TypeError, match="seed must be an int or a numpy Generator, got True"):
        random_density(SystemLayout([("A", 2)]), 1, seed=True)
    with pytest.raises(TypeError, match="seed must be an int or a numpy Generator, got False"):
        random_private_spec(2, (2, 2), seed=False)


def test_random_private_spec_refuses_a_dimension_below_one_before_drawing():
    # the layout is built before the generator, so a dimension below 1 is
    # refused naming its system even where the product of the dims is
    # positive, and a generator passed in is left as it was
    for dims, ext_dim, system in (((-2, 2), None, "A1p"), ((-2, -2), None, "A1p"),
                                  ((2, 0), None, "A2p"), ((2, 2), -1, "E")):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        with pytest.raises(LayoutError, match=f"system '{system}' has dimension"):
            random_private_spec(2, dims, rng, ext_dim=ext_dim)
        assert rng.bit_generator.state == before


@pytest.mark.parametrize("key_dim, shield_dims", ((2, (2, 2)), (3, (2, 3)), (2, (2, 2, 2))))
@pytest.mark.parametrize("ext_dim", (None, 2))
def test_batched_specs_equal_the_single_draws(key_dim, shield_dims, ext_dim):
    """Each instance of a batch is drawn from its own stream in the order of
    random_private_spec, so it equals that spec bit for bit, at mixed ranks
    (None: full rank) and for integer and Generator seeds; a Generator is
    left where the single draw leaves it, and every array is read-only."""
    d = int(np.prod(shield_dims)) * (ext_dim or 1)
    seeds, ranks = (5, 6, 7, 8, 9, 10), (None, 1, d, 2, 1, None)
    for make in (int, np.random.default_rng):
        given = [make(seed) for seed in seeds]
        batch = _random_private_specs(key_dim, shield_dims, given, ranks, ext_dim)
        for spec, seed, rank, rng in zip(batch, seeds, ranks, given, strict=True):
            alone = make(seed)
            single = random_private_spec(key_dim, shield_dims, alone, rank, ext_dim)
            if make is not int:
                assert rng.bit_generator.state == alone.bit_generator.state
            assert spec.shield_state.layout == single.shield_state.layout
            assert np.array_equal(spec.shield_state.matrix, single.shield_state.matrix)
            assert len(spec.controls) == key_dim
            for u, v in zip(spec.controls, single.controls, strict=True):
                assert np.array_equal(u, v)
            for arr in spec.controls + (spec.shield_state.matrix,):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0, 0] = np.nan


def test_batched_specs_refuse_before_any_draw():
    # a rank out of range or a missing seed anywhere in the batch is refused
    # before the generators of the instances before it are drawn from
    rngs = [np.random.default_rng(seed) for seed in (1, 2)]
    before = [rng.bit_generator.state for rng in rngs]
    with pytest.raises(ValueError, match="rank 5 out of range 1..4"):
        _random_private_specs(2, (2, 2), rngs, (1, 5))
    with pytest.raises(TypeError, match="seed must be an int or a numpy Generator"):
        _random_private_specs(2, (2, 2), rngs + [None], (1, 2, 3))
    assert [rng.bit_generator.state for rng in rngs] == before


def test_random_private_spec_checks_counts_before_drawing(monkeypatch):
    import privsq.private_states

    calls = []

    def recording(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    # the generator is made, and the Haar controls factored, only after the checks
    for name in ("_seeded_rng", "_haar_from_normals"):
        monkeypatch.setattr(privsq.private_states, name,
                            recording(name, getattr(privsq.private_states, name)))
    with pytest.raises(ValueError, match="key dimension 1 < 2"):
        random_private_spec(1, (2, 2), seed=0)
    with pytest.raises(ValueError, match="party count 1 < 2"):
        random_private_spec(2, (2,), seed=0)
    assert calls == []
    random_private_spec(2, (2, 2), seed=0)
    assert calls == ["_seeded_rng", "_haar_from_normals"]


def test_shield_marginal_without_extension_is_the_shield_state_itself():
    spec = random_private_spec(2, (2, 2), seed=3)
    assert spec.extension_labels == ()
    assert spec.shield_marginal() is spec.shield_state
