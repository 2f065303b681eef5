import numpy as np
import pytest

from privsq import (
    DensityOperator,
    Isometry,
    LayoutError,
    OptimizerConfig,
    PureStateVector,
    SquashingAnsatz,
    SystemLayout,
    binary_entropy,
    channel_squashed_upper,
    cond_entropy,
    cond_mutual_info,
    dephase,
    dual_total_correlation,
    extend_by_squashing,
    ghz_state,
    haar_unitary,
    key_length_bound,
    key_rate_bound,
    kron,
    max_entangled,
    partial_trace,
    private_identity_residual,
    purify_private_state,
    random_density,
    random_private_spec,
    random_pure,
    squashed_multi_upper,
    squashing_value,
    total_correlation,
    vn_entropy,
)
from privsq.private_states import (
    PrivateStateSpec,
    _identity_residuals,
    _identity_terms,
    _purified_groups,
    approx_private_state,
    private_state,
)
from privsq.squashed import (
    _ascent,
    _channel_purification,
    _chart_coordinates,
    _descend,
    _descent,
    _isometry,
    _lbfgsb,
    _rechart,
    _kernel_plan,
    _sunk_coupling,
    ansatz_param_count,
)
from privsq.cli import run_cli
from privsq.entropy import _gram_plan, _merged, _pure_entropies, info_terms
from privsq.stateio import read_state
from privsq.tensor import entropy_bits, purification_matrix

from dataclasses import asdict
from math import log2, prod, sqrt
from types import SimpleNamespace


def random_ansatz(d_purify, d_env, d_sink, seed, scale=0.5):
    rng = np.random.Generator(np.random.PCG64(seed))
    return SquashingAnsatz(
        d_purify, d_env, d_sink, scale * rng.standard_normal(ansatz_param_count(d_env, d_sink, d_purify))
    )


def f_key_bipartite(eps, key_dim):
    root = sqrt(eps)
    return 2 * root * log2(key_dim) + 2 * (1 + root) * binary_entropy(root / (1 + root))


# ---------------------------------------------------------------------------
# ansatz and extension
# ---------------------------------------------------------------------------

def test_ansatz_realizes_isometry():
    for seed in range(5):
        ans = random_ansatz(3, 2, 2, seed)
        v = ans.isometry_matrix()
        assert v.shape == (4, 3)
        assert np.abs(v.conj().T @ v - np.eye(3)).max() < 1e-9
    iso = random_ansatz(2, 2, 1, 1).to_isometry()
    assert isinstance(iso, Isometry)


def test_ansatz_validation():
    with pytest.raises(ValueError):
        SquashingAnsatz(5, 2, 2, np.zeros(32))  # 4 < 5
    with pytest.raises(ValueError):
        SquashingAnsatz(2, 2, 2, np.zeros(3))  # wrong parameter count


def test_extend_by_squashing_marginal_recovery():
    lo = SystemLayout([("A", 2), ("B", 2)])
    rho = random_density(lo, 4, seed=3)
    for seed in range(4):
        ans = random_ansatz(4, 2, 2, seed=seed)
        ext = extend_by_squashing(rho, ans)
        assert ext.layout.labels == ("E", "A", "B")
        back = partial_trace(ext, ("A", "B"))
        assert np.abs(back.matrix - rho.matrix).max() < 1e-9


def test_extend_by_squashing_pure_input_gives_product():
    phi = max_entangled(2)
    ans = random_ansatz(1, 1, 1, seed=0)
    ext = extend_by_squashing(phi, ans)
    v = cond_mutual_info(ext, "A", "B", "E")
    assert abs(v - cond_mutual_info(phi, "A", "B")) < 1e-10


def test_extend_by_squashing_unitary_ansatz_is_purification():
    # d_sink = 1: the environment keeps a full (rotated) purification
    lo = SystemLayout([("A", 2), ("B", 2)])
    rho = random_density(lo, 3, seed=5)
    ans = random_ansatz(3, 3, 1, seed=6)
    ext = extend_by_squashing(rho, ans)
    w = np.linalg.eigvalsh(ext.matrix)
    assert (w > 1e-9).sum() == 1  # extension is pure
    assert np.abs(partial_trace(ext, ("A", "B")).matrix - rho.matrix).max() < 1e-9


def test_extend_by_squashing_rank_guard():
    rho = random_density(SystemLayout([("A", 2), ("B", 2)]), 4, seed=7)
    with pytest.raises(ValueError):
        extend_by_squashing(rho, random_ansatz(2, 2, 1, seed=1))
    rho_e = random_density(SystemLayout([("E", 2), ("B", 2)]), 4, seed=8)
    with pytest.raises(Exception, match="collides"):
        extend_by_squashing(rho_e, random_ansatz(4, 2, 2, seed=1))


def test_squashing_value_matches_public_path():
    lo = SystemLayout([("A", 2), ("B", 2)])
    rho = random_density(lo, 4, seed=9)
    groups = [("A",), ("B",)]
    for seed in range(3):
        ans = random_ansatz(4, 2, 2, seed=20 + seed)
        ext = extend_by_squashing(rho, ans)
        direct = 0.5 * cond_mutual_info(ext, "A", "B", "E")
        assert abs(squashing_value(rho, groups, ans) - direct) < 1e-11
        assert abs(
            squashing_value(rho, groups, ans, flavor="dual")
            - 0.5 * dual_total_correlation(ext, groups, "E")
        ) < 1e-11


def test_optimizer_objective_agrees_with_squashing_value():
    # the fast pure-state evaluation inside the optimizer must match the
    # public density-matrix route at the returned ansatz
    lo = SystemLayout([("A", 2), ("B", 2)])
    rho = random_density(lo, 4, seed=11)
    rep = squashed_multi_upper(rho, ["A", "B"], d_env=2, d_sink=2,
                               cfg=OptimizerConfig(restarts=2, max_iters=30, seed=4))
    recomputed = squashing_value(rho, [("A",), ("B",)], rep.ansatz)
    assert abs(recomputed - rep.value) < 1e-9


# ---------------------------------------------------------------------------
# exact gradient of the squashing objective
# ---------------------------------------------------------------------------

def value_and_grad(plan, objective):
    """``objective`` (``_descent``, ``_ascent``) as the driver sees it: the
    value and gradient at ``x``, its extension evaluated alone by ``plan``."""
    def evaluated(x):
        t, finish = objective(x)
        values, g_t = plan.half_information(t[None])
        return finish(values[0], g_t[0])

    return evaluated


def squashing_objective(rho, groups, flavor, d_env, d_sink, d_purify):
    """The optimizer's value-and-gradient kernel for ``rho`` and ``groups``."""
    psi = purification_matrix(rho.matrix, d_ref=d_purify)
    axes = [tuple(p + 2 for p in rho.layout.positions(g)) for g in groups]
    shape = (d_env, d_sink) + rho.layout.dims
    return value_and_grad(_kernel_plan(shape, tuple(info_terms(axes, (0,), flavor))), _descent(psi))


def central_differences(f, x, h=1e-6):
    steps = np.eye(x.size) * h
    return np.array([(f(x + e)[0] - f(x - e)[0]) / (2 * h) for e in steps])


def hermitian_params(h):
    n = h.shape[0]
    iu = np.triu_indices(n, 1)
    return np.concatenate((h.diagonal().real, h[iu].real, h[iu].imag))


GRADIENT_CASES = [
    # (state, groups, d_env, d_sink, d_purify)
    (random_density(SystemLayout([("A", 2), ("B", 2)]), 4, seed=3), ["A", "B"], 2, 2, 4),
    (random_density(SystemLayout([("A", 2), ("B", 2)]), 3, seed=4), ["A", "B"], 3, 2, 3),
    (random_density(SystemLayout([("A", 2), ("B", 2), ("C", 2)]), 3, seed=5),
     ["A", "B", "C"], 2, 2, 3),
    (random_density(SystemLayout([("A", 2), ("B", 2), ("C", 2)]), 2, seed=6),
     [("A", "B"), "C"], 2, 3, 4),
    # rank 2 padded to d_purify = 3 < n = 10: the env marginal has rank at
    # most d_sink * 2 = 4 < d_env = 5, so its Gram matrix carries a clipped
    # eigenvalue
    (random_density(SystemLayout([("A", 2), ("B", 2)]), 2, seed=7), ["A", "B"], 5, 2, 3),
]


@pytest.mark.parametrize("flavor", ["total", "dual"])
@pytest.mark.parametrize("case", range(len(GRADIENT_CASES)))
def test_exact_gradient_matches_central_differences(case, flavor):
    rho, groups, d_env, d_sink, d_purify = GRADIENT_CASES[case]
    f = squashing_objective(rho, groups, flavor, d_env, d_sink, d_purify)
    rng = np.random.Generator(np.random.PCG64(100 + case))
    for _ in range(2):
        x = 0.5 * rng.standard_normal(ansatz_param_count(d_env, d_sink, d_purify))
        value, grad = f(x)
        ans = SquashingAnsatz(d_purify, d_env, d_sink, x)
        assert abs(value - squashing_value(rho, groups, ans, flavor)) < 1e-12
        fd = central_differences(f, x)
        assert np.abs(grad - fd).max() <= 1e-6 * np.abs(fd).max()
        # no dead coordinates: every parameter moves the objective
        assert np.abs(grad).min() > 0


def complex_central_differences(f, z, h=1e-6):
    """``G`` with ``df = Re <G, dz>``, entry by entry, from central
    differences of ``f`` along the real and the imaginary unit steps."""
    grad = np.zeros(z.shape, dtype=complex)
    for idx in np.ndindex(z.shape):
        for unit in (1.0, 1j):
            dz = np.zeros(z.shape, dtype=complex)
            dz[idx] = unit * h
            grad[idx] += unit * (f(z + dz) - f(z - dz)) / (2 * h)
    return grad


def density_path_value(v, psi, d_env, layout, groups, flavor):
    """Half the information of the extension ``t = v @ psi`` (env, sink,
    systems), from its explicit density matrix with the sink traced out."""
    t = (v @ psi).reshape(d_env, v.shape[0] // d_env, -1)
    dim = layout.total_dim
    ext = DensityOperator(np.einsum("efs,gft->esgt", t, t.conj()).reshape(d_env * dim, -1),
                          SystemLayout([("E", d_env)]).concat(layout))
    info = total_correlation if flavor == "total" else dual_total_correlation
    return 0.5 * info(ext, groups, "E")


def half_information(t, shape, terms):
    """Half the information ``terms`` of the pure extension ``t`` (rows: env
    (x) sink) and its gradient ``G_t``: the kernel's evaluator on a stack of
    one tensor."""
    values, g_t = _kernel_plan(shape, tuple(terms)).half_information(t[None])
    return values[0], g_t[0]


def random_kernel_inputs(rng, d_env, d_sink, d_purify, dim):
    """A random normalized purification ``psi`` and a random ansatz isometry."""
    psi = rng.standard_normal((d_purify, dim)) + 1j * rng.standard_normal((d_purify, dim))
    v = _isometry(0.5 * rng.standard_normal(ansatz_param_count(d_env, d_sink, d_purify)),
                  d_purify)[0]
    return v, psi / np.linalg.norm(psi)


@pytest.mark.parametrize("flavor", ["total", "dual"])
@pytest.mark.parametrize("case", range(len(GRADIENT_CASES)))
def test_extension_kernel_gradients_match_central_differences(case, flavor):
    # a random purification, not the canonical one the state search builds,
    # and a random isometry: G_v and G_psi against differences in each entry
    rho, groups, d_env, d_sink, d_purify = GRADIENT_CASES[case]
    axes = [tuple(p + 2 for p in rho.layout.positions(g)) for g in groups]
    shape = (d_env, d_sink) + rho.layout.dims
    terms = info_terms(axes, (0,), flavor)
    v, psi = random_kernel_inputs(np.random.Generator(np.random.PCG64(200 + case)),
                                  d_env, d_sink, d_purify, rho.dim)
    value, g_t = half_information(v @ psi, shape, terms)
    g_v, g_psi = g_t @ psi.conj().T, v.conj().T @ g_t  # the chain rule through t = v psi
    # the value against the density-matrix path on the same extension
    assert abs(value - density_path_value(v, psi, d_env, rho.layout, groups, flavor)) < 1e-12
    for grad, f, z in ((g_v, lambda z: half_information(z @ psi, shape, terms)[0], v),
                       (g_psi, lambda z: half_information(v @ z, shape, terms)[0], psi)):
        fd = complex_central_differences(f, z)
        assert np.abs(grad - fd).max() <= 1e-6 * np.abs(fd).max()


def test_one_evaluation_diagonalizes_each_marginal_once(monkeypatch):
    # one value and gradient inverts S = I - iA/2 + B^dagger B/4, of size
    # d_purify whatever n = d_env d_sink is, diagonalizes nothing of the chart,
    # and, per information term, diagonalizes the smaller Gram matrix of that
    # marginal, in one stacked call per Gram size.  Bipartite total
    # information I(A;B|E) = S(AE) + S(BE) - S(E) - S(ABE), axes (env, sink,
    # systems...):
    # * shape (4, 4, 2, 2, 2, 2): n = 16; S(AE) and S(BE) split 16 | 16; S(E)
    #   is 4 | 64 and S(ABE) is 64 | 4, that is S(F): eigh matrices
    #   {16: 2, 4: 2} in calls {16: 1, 4: 1} (the stack of two 16s, the stack
    #   of two 4s), and one inv at d_purify, 16 or 6
    # * the channel shape (2, 2, 2, 2): n = 4; S(RE) and S(BE) split 4 | 4;
    #   S(E) is 2 | 8 and S(RBE) is 8 | 2: eigh matrices {4: 2, 2: 2} in calls
    #   {4: 1, 2: 1}, and one inv at d_purify, 4 or 3
    # so a search at (4, 4) on a 16 x 16 state of rank 16 makes 2 nfev + 1
    # diagonalizations at 16 (one more purifies the state) in nfev + 1 calls,
    # 2 nfev at 4 in nfev calls, and nfev inverses at 16
    eigh, inv, calls, matrices, inverses = np.linalg.eigh, np.linalg.inv, [], [], []

    def counted_eigh(a, *args, **kwargs):
        calls.append(a.shape[-1])
        matrices.extend([a.shape[-1]] * prod(a.shape[:-2]))
        return eigh(a, *args, **kwargs)

    def counted_inv(a, *args, **kwargs):
        inverses.append(a.shape)
        return inv(a, *args, **kwargs)

    def tally(sizes):
        return {n: sizes.count(n) for n in set(sizes)}

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    rng = np.random.Generator(np.random.PCG64(40))
    for d_env, d_sink, system_dims, d_purify, want, want_calls in (
            (4, 4, (2, 2, 2, 2), 16, {16: 2, 4: 2}, {16: 1, 4: 1}),
            (4, 4, (2, 2, 2, 2), 6, {16: 2, 4: 2}, {16: 1, 4: 1}),
            (2, 2, (2, 2), 4, {4: 2, 2: 2}, {4: 1, 2: 1}),
            (2, 2, (2, 2), 3, {4: 2, 2: 2}, {4: 1, 2: 1})):
        k = len(system_dims) // 2
        axes = [tuple(range(2, 2 + k)), tuple(range(2 + k, 2 + 2 * k))]
        plan = _kernel_plan((d_env, d_sink) + system_dims, tuple(info_terms(axes, (0,), "total")))
        psi = random_kernel_inputs(rng, d_env, d_sink, d_purify, prod(system_dims))[1]
        x = 0.5 * rng.standard_normal(ansatz_param_count(d_env, d_sink, d_purify))
        objective = value_and_grad(plan, _descent(psi))
        calls.clear()
        matrices.clear()
        inverses.clear()
        objective(x)
        assert tally(matrices) == want
        assert tally(calls) == want_calls
        assert inverses == [(d_purify, d_purify)]


def test_marginal_plan_groups_terms_by_gram_size():
    # groups (marginal count, Gram side, other side), smallest Gram side
    # first; bipartite total information at the state and channel shapes
    # (see above)
    def group_sizes(shape, terms):
        marginals = tuple(_merged(terms))
        return tuple((len(perms), r, prod(shape) // r) for r, perms in _gram_plan(shape, marginals)[0])

    total = info_terms([(2, 3), (4, 5)], (0,), "total")
    assert group_sizes((4, 4, 2, 2, 2, 2), total) == ((2, 4, 64), (2, 16, 16))
    channel = info_terms([(2,), (3,)], (0,), "total")
    assert group_sizes((2, 2, 2, 2), channel) == ((2, 2, 8), (2, 4, 4))
    # dual over three qubits at (2, 3): S(EABC) = S(F) is 3 | 16, S(E) is
    # 2 | 24, and each S(E + two qubits) is 8 | 6, that is S(F + one qubit) 6 | 8
    dual = info_terms([(2,), (3,), (4,)], (0,), "dual")
    assert group_sizes((2, 3, 2, 2, 2), dual) == ((1, 2, 24), (1, 3, 16), (3, 6, 8))
    # the kernel plan's gather lays out every matricization; each row of
    # the inverse map brings its marginal's block back to the axis order of t
    rng = np.random.Generator(np.random.PCG64(42))
    for shape, terms in (((4, 4, 2, 2, 2, 2), total), ((2, 2, 2, 2), channel),
                         ((2, 3, 2, 2, 2), dual)):
        groups, order, positions = _gram_plan(shape, tuple(_merged(terms)))
        plan = _kernel_plan(shape, tuple(terms))
        gathers, inverse = [g for g, _, _, _ in plan.groups], plan.inverse
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        flat = t.ravel()[np.concatenate(gathers)]
        assert [g.size for g in gathers] == [len(perms) * t.size for _, perms in groups]
        assert inverse.shape == (len(terms), t.size)
        assert flat.size == len(terms) * t.size
        assert sorted(order) == list(range(len(terms)))
        assert [order[i] for i in positions] == list(range(len(terms)))
        for row in inverse:
            assert np.array_equal(flat[row], t.ravel())


def random_pure_batch(rng, batch, shape):
    t = rng.standard_normal((batch,) + shape) + 1j * rng.standard_normal((batch,) + shape)
    return t / np.linalg.norm(t.reshape(batch, -1), axis=1).reshape((batch,) + (1,) * len(shape))


def pure_entropy_cases():
    """(shape, marginals): the kernel's marginals at the state and channel
    search shapes, and the identities' marginals at a two-party and a
    three-party layout (R of rank 2, then keys, shields and E)."""
    cases = [((4, 4, 2, 2, 2, 2), info_terms([(2, 3), (4, 5)], (0,), "total")),
             ((2, 2, 2, 2), info_terms([(2,), (3,)], (0,), "total"))]
    cases = [(shape, tuple(_merged(terms))) for shape, terms in cases]
    for parties in (2, 3):
        keys = tuple(f"A{i + 1}" for i in range(parties))
        shields = tuple(f"{k}p" for k in keys)
        layout = SystemLayout(zip(("R",) + keys + shields + ("E",), (2,) * (2 * parties + 2)))
        cases.append((layout.dims, _identity_terms(layout, keys, shields, ("E",))[1]))
    return cases


@pytest.mark.parametrize("case", range(4))
def test_pure_entropy_modes_agree_with_the_density_path(case):
    # on a batch of random pure tensors, the batched entropies weighted by
    # random weights agree with the kernel's evaluator on each tensor (a plan
    # of the marginals with coefficients twice the weights, which it halves),
    # and each entropy is the partial-trace entropy of its marginal
    shape, marginals = pure_entropy_cases()[case]
    rng = np.random.Generator(np.random.PCG64(50 + case))
    t = random_pure_batch(rng, 3, shape)
    weights = rng.standard_normal(len(marginals))
    plan = _kernel_plan(shape, tuple(zip(2 * weights, marginals)))
    assert np.array_equal(plan.weights, weights)
    values = _pure_entropies(t, shape, marginals)
    assert values.shape == (3, len(marginals))
    for row, amplitudes in zip(values, t):
        (weighted,), g_t = plan.half_information(amplitudes[None])
        assert g_t.shape == (1,) + amplitudes.shape
        assert abs(row @ weights - weighted) < 1e-13
    layout = SystemLayout((f"x{a}", d) for a, d in enumerate(shape))
    for row, amplitudes in zip(values, t):
        rho = PureStateVector(amplitudes.ravel(), layout).density()
        for value, axes in zip(row, marginals):
            assert abs(value - vn_entropy(partial_trace(rho, tuple(f"x{a}" for a in axes)))) < 1e-12
    # a batch is its rows, each evaluated alone
    for i in range(3):
        alone = _pure_entropies(t[i:i + 1], shape, marginals)
        assert np.abs(alone[0] - values[i]).max() < 1e-13


def test_kernel_plans_follow_their_terms():
    # evaluations at one shape with different terms, interleaved, each
    # against the density-matrix path: a plan reused for other terms fails
    lo = SystemLayout([("A", 2), ("B", 2), ("C", 2)])
    d_env, d_sink, d_purify = 2, 3, 4
    shape = (d_env, d_sink) + lo.dims
    rng = np.random.Generator(np.random.PCG64(41))
    inputs = [random_kernel_inputs(rng, d_env, d_sink, d_purify, lo.total_dim) for _ in range(2)]
    splits = (["A", "B", "C"], [("A", "B"), "C"])
    for v, psi in inputs:
        for flavor in ("total", "dual", "total", "dual"):
            for groups in splits:
                axes = [tuple(p + 2 for p in lo.positions(g)) for g in groups]
                value = half_information(v @ psi, shape, info_terms(axes, (0,), flavor))[0]
                want = density_path_value(v, psi, d_env, lo, groups, flavor)
                assert abs(value - want) < 1e-12


def test_each_search_builds_one_kernel_plan(monkeypatch):
    # the plan is looked up once per search call: never per restart, per
    # descent or ascent, or per evaluation
    import privsq.squashed as sq

    built = []

    def counted_plan(*args):
        built.append(args)
        return plan(*args)

    plan = sq._kernel_plan
    monkeypatch.setattr(sq, "_kernel_plan", counted_plan)
    cfg = OptimizerConfig(restarts=2, max_iters=20, seed=4)
    lo = SystemLayout([("A", 2), ("B", 2)])
    rep = squashed_multi_upper(random_density(lo, 3, seed=2), ["A", "B"], d_env=2, d_sink=2, cfg=cfg)
    assert len(built) == 1
    assert sum(r.nfev for r in rep.restarts) > cfg.restarts
    rep = channel_squashed_upper(identity_channel(), d_env=2, d_sink=2, cfg=cfg, rounds=2)
    assert len(built) == 2
    assert sum(r.nfev for r in rep.restarts) > cfg.restarts * (2 * 2 + 3)


def test_exact_gradient_at_degenerate_generator():
    # params = 0: H = 0, the centre of the chart, where V = I[:, :d]
    rho, groups, d_env, d_sink, d_purify = GRADIENT_CASES[0]
    for flavor in ("total", "dual"):
        f = squashing_objective(rho, groups, flavor, d_env, d_sink, d_purify)
        x = np.zeros(ansatz_param_count(d_env, d_sink, d_purify))
        _, grad = f(x)
        fd = central_differences(f, x)
        assert np.abs(grad - fd).max() <= 1e-6 * np.abs(fd).max()


def test_exact_gradient_vanishes_on_pure_input():
    # a rank-one state padded to d_purify = 3 < n = 6: extensions are product
    # with the environment, the objective is constant, marginals of the
    # environment (3 x 3, rank 2) are clipped, and the gradient is zero
    f = squashing_objective(max_entangled(2), ["A", "B"], "total", 3, 2, 3)
    rng = np.random.Generator(np.random.PCG64(9))
    x = 0.5 * rng.standard_normal(ansatz_param_count(3, 2, 3))
    value, grad = f(x)
    assert abs(value - 1.0) < 1e-12
    assert np.abs(grad).max() < 1e-12
    assert np.abs(central_differences(f, x)).max() < 1e-7


def cayley(x):
    """``(I - iX/2)^{-1} (I + iX/2)``, for any square ``X`` without eigenvalue ``-2i``."""
    eye = np.eye(x.shape[0])
    return np.linalg.solve(eye - 0.5j * x, eye + 0.5j * x)


def chart_params(a, b):
    """The chart's coordinates of ``H = [[A, B^dagger], [B, 0]]``: those of the
    Hermitian ``A``, then the float view of ``B``."""
    return np.concatenate((hermitian_params(a), np.ascontiguousarray(b, complex).view(float).ravel()))


def generator(params, d, n):
    """The ``n x n`` generator ``[[A, B^dagger], [B, 0]]`` with the chart's ``params``."""
    iu, k = np.triu_indices(d, 1), d * (d - 1) // 2
    a = np.diag(params[:d]).astype(complex)
    a[iu] = params[d:d + k] + 1j * params[d + k:d * d]
    a = a + np.triu(a, 1).conj().T
    b = params[d * d:].view(complex).reshape(n - d, d)
    return np.block([[a, b.conj().T], [b, np.zeros((n - d, n - d))]])


def random_chart_point(rng, d, n, scale=1.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    b = rng.standard_normal((n - d, d)) + 1j * rng.standard_normal((n - d, d))
    return scale * chart_params(g + g.conj().T, b)


CHART_DIMS = [(1, 1), (1, 3), (2, 3), (2, 6), (4, 4), (4, 6), (3, 8)]  # (d_purify, n)


def test_cayley_pullback_is_the_exact_derivative():
    # for a rational f, f([[H, E], [0, H]]) has the derivative df(H)[E] as its
    # upper-right block, so the pullback of G_V must give, in each coordinate
    # direction E_k, exactly Re <G_V, dV[E_k]> with no finite differences
    rng = np.random.Generator(np.random.PCG64(11))
    for d, n in CHART_DIMS:
        g_v = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        count = ansatz_param_count(n, 1, d)
        # generic, zero, and exactly and nearly degenerate A with B = 0
        pairs = chart_params(np.diag(np.tile([0.3, -1.2, 0.3 + 1e-9], d)[:d]), np.zeros((n - d, d)))
        for x in (random_chart_point(rng, d, n), np.zeros(count), pairs):
            h = generator(x, d, n)
            grad = _isometry(x, d)[1](g_v)
            want = np.empty(count)
            for k in range(count):
                e = generator(np.eye(count)[k], d, n)
                block = cayley(np.block([[h, e], [np.zeros((n, n)), h]]))
                want[k] = np.vdot(g_v, block[:n, n:n + d]).real
            assert np.abs(grad - want).max() < 1e-12 * max(1.0, np.abs(want).max())


def test_chart_folds_its_factor_exactly(monkeypatch):
    # the chart gathers S = I - iA/2 + B^dagger B/4 with the -i/2 folded into
    # A's coordinates (re and im swapped, signs +-1/2): the matrix the
    # isometry inverts is bit-equal to I - 0.5j A (+ B^dagger B/4 when n >
    # d_purify) for seeded Hermitian A, so a dropped sign or an unswapped re
    # and im fails
    inverted, inv = [], np.linalg.inv

    def recorded_inv(a):
        inverted.append(a.copy())
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", recorded_inv)
    rng = np.random.Generator(np.random.PCG64(14))
    for d, n in CHART_DIMS:
        x = random_chart_point(rng, d, n)
        h = generator(x, d, n)
        a, b = h[:d, :d], h[d:, :d]
        want = np.eye(d) - 0.5j * a
        if n > d:
            want = want + 0.25 * (b.conj().T @ b)
        _isometry(x, d)
        assert np.array_equal(inverted[-1], want)


def test_isometry_is_the_first_columns_of_the_cayley_transform():
    rng = np.random.Generator(np.random.PCG64(12))
    for d, n in CHART_DIMS:
        x = random_chart_point(rng, d, n)
        assert np.abs(_isometry(x, d)[0] - cayley(generator(x, d, n))[:, :d]).max() < 1e-14
    assert ansatz_param_count(3, 2, 4) == 2 * 6 * 4 - 4 * 4 == 32
    assert ansatz_param_count(4, 4, 16) == 16 * 16  # n = d_purify: as many as H has


def test_chart_inverse_recovers_the_coordinates():
    # V determines its coordinates: S = 2 (V_top + I)^{-1}, B = -i V_bot S and
    # A = 2i (S - I - B^dagger B/4), so no two coordinate vectors give one V
    rng = np.random.Generator(np.random.PCG64(15))
    for d, n in CHART_DIMS:
        for _ in range(5):
            x = random_chart_point(rng, d, n)
            assert np.abs(_chart_coordinates(_isometry(x, d)[0]) - x).max() < 1e-13


@pytest.mark.parametrize("d, n", [(1, 1), (4, 4), (1, 3), (4, 6), (3, 8)])
def test_chart_inverse_turns_an_eigenvalue_at_minus_one_away(d, n):
    # V_top + I is singular when V_top has the eigenvalue -1; the map back
    # first applies a global phase, so the coordinates are finite and give
    # the input isometry times that phase, whose extensions are the input's
    rng = np.random.Generator(np.random.PCG64(17))
    q = np.linalg.qr(rng.standard_normal((n - 1, n - 1)) + 1j * rng.standard_normal((n - 1, n - 1)))[0]
    v = np.zeros((n, d), dtype=complex)
    v[0, 0] = -1.0
    v[1:, 1:] = np.eye(d - 1) if n == d else q[:, :d - 1]  # at n = d: diag(-1, 1, ...)
    assert np.abs(v.conj().T @ v - np.eye(d)).max() < 1e-14
    assert np.abs(np.linalg.eigvals(v[:d]) + 1.0).min() < 1e-14
    x = _chart_coordinates(v)
    assert x.shape == (ansatz_param_count(n, 1, d),) and np.isfinite(x).all()
    w = _isometry(x, d)[0]
    phase = np.vdot(v.ravel(), w.ravel()) / d
    assert abs(abs(phase) - 1.0) < 1e-13
    assert np.abs(w - phase * v).max() < 1e-13
    assert np.abs(np.linalg.eigvals(w[:d]) + 1.0).min() >= 0.1


@pytest.mark.parametrize("d, n", CHART_DIMS)
def test_rechart_keeps_the_extension_and_centres_the_chart(d, n):
    # re-centred at x, the chart's point has A = 0 and a Hermitian positive
    # semidefinite top block, and it maps the turned purification W0 psi to
    # the extension V psi of the old chart
    rng = np.random.Generator(np.random.PCG64(18))
    psi = rng.standard_normal((d, 6)) + 1j * rng.standard_normal((d, 6))
    for scale in (0.3, 3.0):
        x = random_chart_point(rng, d, n, scale)
        t = _isometry(x, d)[0] @ psi
        x_new, psi_new, w0 = _rechart(x, psi)
        assert np.abs(w0.conj().T @ w0 - np.eye(d)).max() < 1e-13
        assert np.abs(psi_new - w0 @ psi).max() == 0.0
        v_new = _isometry(x_new, d)[0]
        assert np.abs(v_new @ psi_new - t).max() < 1e-13
        assert np.abs(x_new[:d * d]).max() < 1e-12
        top = v_new[:d]
        assert np.abs(top - top.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(0.5 * (top + top.conj().T)).min() > -1e-12


def test_chart_jacobian_has_full_rank():
    # one coordinate per degree of freedom: the Jacobian of params -> V, row by
    # row the pullback of each real unit direction of V, has rank 2 n d_purify
    # - d_purify^2, the real dimension of the n x d_purify isometries; an
    # n^2-coordinate generator has rank 20 of 36 at (n, d_purify) = (6, 2)
    rng = np.random.Generator(np.random.PCG64(16))
    for d, n in CHART_DIMS + [(5, 7)]:
        x = random_chart_point(rng, d, n)
        pullback = _isometry(x, d)[1]
        units = np.eye(n * d).reshape(-1, n, d)
        jac = np.array([pullback(unit * step) for unit in units for step in (1.0, 1j)])
        assert jac.shape == (2 * n * d, ansatz_param_count(n, 1, d))
        assert np.linalg.matrix_rank(jac) == 2 * n * d - d * d


def test_isometry_stays_isometric_at_a_large_generator():
    # S has Hermitian part I + B^dagger B/4 >= I, so every singular value is at
    # least 1 and the inverse is never singular; the columns stay orthonormal
    # for |H| up to 1e6
    rng = np.random.Generator(np.random.PCG64(13))
    for d, n in ((4, 6), (4, 4), (2, 7)):
        x = random_chart_point(rng, d, n)
        for scale in 10.0 ** np.arange(7) / np.linalg.norm(generator(x, d, n), 2):
            v = _isometry(scale * x, d)[0]
            assert np.abs(v.conj().T @ v - np.eye(d)).max() < 1e-12


def test_isometry_at_the_zero_generator_is_the_identity_columns():
    for d, n in CHART_DIMS:
        assert np.array_equal(_isometry(np.zeros(ansatz_param_count(n, 1, d)), d)[0],
                              np.eye(n)[:, :d])


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-7])
def test_optimizer_config_refuses_a_non_finite_or_non_positive_tol(tol):
    # the L-BFGS-B ftol is the constant LBFGSB_FTOL: OptimizerConfig has no tol field
    with pytest.raises(TypeError, match="tol"):
        OptimizerConfig(tol=tol)


def test_full_iteration_budget_is_not_cut_by_evaluation_cap():
    # with finite differences every max_iters=500 restart at (4, 4) stopped
    # on scipy's evaluation cap at iteration 29
    spec = random_private_spec(2, (2, 2), seed=61)
    omega, _ = approx_private_state(private_state(spec), 0.05, seed=62)
    rep = squashed_multi_upper(omega, list(zip(spec.key_labels, spec.shield_labels)),
                               d_env=4, d_sink=4,
                               cfg=OptimizerConfig(restarts=2, max_iters=500, seed=1))
    for r in rep.restarts:
        assert "EVALUATIONS EXCEEDS LIMIT" not in r.message
        assert r.converged or r.iterations == 500
        assert r.njev == r.nfev < 15000
    row = rep.to_dict()["restarts"][0]
    assert (row["nfev"], row["njev"], row["message"]) == (
        rep.restarts[0].nfev, rep.restarts[0].njev, rep.restarts[0].message)


def record_runs(monkeypatch):
    """Record every L-BFGS-B run the searches make, at their seam
    ``privsq.squashed.iterate``: one entry per run, in the order the runs
    start, with the index of the restart that made it, its start, its
    options, the gradients it starts with (a known start's) or is sent and
    (once it ends) its result.  A
    restart is known by its stream ``PCG64(seed + j)``, and it is the one
    resumed whenever one of its runs starts."""
    import privsq.squashed as sq

    runs, current, iterate, search = [], [None], sq.iterate, sq._search

    def recorded_iterate(x0, **kwargs):
        start = kwargs.get("start")
        run = SimpleNamespace(restart=current[0], x0=np.array(x0), kwargs=kwargs,
                              grads=[] if start is None else [start[1]], result=None)
        runs.append(run)
        driver = iterate(x0, **kwargs)
        try:
            x = next(driver)
            while True:
                f, g = yield x
                run.grads.append(g)
                x = driver.send((f, g))
        except StopIteration as stop:
            run.result = stop.value
            return stop.value

    def recorded_search(restart, plan, cfg, *args, **kwargs):
        def tagged(rng):
            j, inner = rng.bit_generator.seed_seq.entropy - cfg.seed, restart(rng)
            try:
                current[0] = j
                t = next(inner)
                while True:
                    sent = yield t
                    current[0] = j
                    t = inner.send(sent)
            except StopIteration as stop:
                return stop.value

        return search(tagged, plan, cfg, *args, **kwargs)

    monkeypatch.setattr(sq, "iterate", recorded_iterate)
    monkeypatch.setattr(sq, "_search", recorded_search)
    return runs


def test_channel_search_never_purifies(monkeypatch):
    # the channel's sunk outputs purify its output state, so neither the
    # descents over ansaetze nor the ascents over inputs diagonalize it, and
    # both run on exact gradients
    import privsq.squashed as sq

    purified = []

    def counted_purification(*args, **kwargs):
        purified.append(1)
        return purification_matrix(*args, **kwargs)

    monkeypatch.setattr(sq, "purification_matrix", counted_purification)
    runs = record_runs(monkeypatch)
    restarts, rounds = 2, 2
    channel_squashed_upper(identity_channel(), d_env=2, d_sink=2,
                           cfg=OptimizerConfig(restarts=restarts, max_iters=30, seed=3),
                           rounds=rounds)
    assert purified == []
    # per restart: a descent and an ascent per round, then three final descents
    assert len(runs) == restarts * (2 * rounds + 3)
    # the objective returns its gradient at every point of every run
    assert all(run.grads and all(np.shape(g) == np.shape(run.x0) for g in run.grads)
               for run in runs)


def test_both_searches_share_one_lbfgsb_option_set(monkeypatch):
    # every run of the state search and of the channel search (descents,
    # ascents and final descents) goes through one driver with one option set
    import privsq.squashed as sq

    calls = record_runs(monkeypatch)
    cfg = OptimizerConfig(restarts=2, max_iters=20, seed=4)
    lo = SystemLayout([("A", 2), ("B", 2)])
    squashed_multi_upper(random_density(lo, 3, seed=2), ["A", "B"], d_env=2, d_sink=2, cfg=cfg)
    assert len(calls) == cfg.restarts
    # restart j starts from N(0, INIT_SCALE^2) coordinates drawn from PCG64(seed + j),
    # those of B (n - d_purify = 1 row of 3) scaled by sqrt(d_purify / (n - d_purify))
    for j, run in enumerate(calls):
        rng = np.random.Generator(np.random.PCG64(cfg.seed + j))
        want = sq.INIT_SCALE * rng.standard_normal(ansatz_param_count(2, 2, 3))
        want[9:] *= sqrt(3.0)
        assert run.restart == j
        assert np.array_equal(run.x0, want)
    channel_squashed_upper(identity_channel(), d_env=2, d_sink=2, cfg=cfg, rounds=1)
    assert len(calls) == cfg.restarts + cfg.restarts * (2 * 1 + 3)
    for run in calls:
        # besides the one option set, each run is passed only its warm start
        options = {k: v for k, v in run.kwargs.items() if k not in ("start", "scale")}
        assert options == {"max_iters": 20, "ftol": 1e-7, "gtol": 1e-8}
        assert set(run.kwargs) - set(options) == {"start", "scale"}
    assert not hasattr(cfg, "init_scale") and not hasattr(cfg, "tol")


def test_fresh_start_at_n_equal_to_d_purify_is_the_plain_draw():
    # with no B block the start is INIT_SCALE * standard_normal(d_purify^2), bit
    # for bit, so seeded searches at n = d_purify keep their values
    import privsq.squashed as sq

    for d_purify, d_env, d_sink in ((1, 1, 1), (4, 2, 2), (4, 4, 1), (16, 4, 4)):
        x = sq._fresh_start(np.random.Generator(np.random.PCG64(5)), d_purify, d_env, d_sink)
        rng = np.random.Generator(np.random.PCG64(5))
        assert x.tobytes() == (sq.INIT_SCALE * rng.standard_normal(d_purify ** 2)).tobytes()


def test_restart_records_the_final_gradient(monkeypatch):
    # grad_norm is the largest absolute entry of the final L-BFGS-B gradient
    runs = record_runs(monkeypatch)
    lo = SystemLayout([("A", 2), ("B", 2)])
    rep = squashed_multi_upper(random_density(lo, 3, seed=2), ["A", "B"], d_env=2, d_sink=2,
                               cfg=OptimizerConfig(restarts=2, max_iters=20, seed=4))
    assert [run.restart for run in runs] == [0, 1]
    want = [float(np.abs(run.result.jac).max()) for run in runs]
    assert [r.grad_norm for r in rep.restarts] == want
    assert [r["grad_norm"] for r in rep.to_dict()["restarts"]] == want
    assert all(g > 0.0 for g in want)


BENCH_GROUPS = [("A1", "A1p"), ("A2", "A2p")]


def bench_state(tmp_path):
    """The benchmark's state, ``privsq gen --approx --shield-dims 2,2 --seed 1``."""
    path = str(tmp_path / "approx.state")
    assert run_cli(["gen", "--approx", "--shield-dims", "2,2", "--seed", "1", "--out", path]) == 0
    return read_state(path)


def driven(run, plan):
    """The result of the descent ``run``, each extension it yields evaluated alone by ``plan``
    (without the latest evaluation it also returns)."""
    try:
        t = next(run)
        while True:
            (value,), (g_t,) = plan.half_information(t[None])
            t = run.send((value, g_t))
    except StopIteration as stop:
        return stop.value[0]


def test_a_descent_within_one_chart_is_one_lbfgsb_run(monkeypatch, tmp_path):
    # with max_iters <= RECHART_ITERS a descent never re-charts: its result is
    # that of one _lbfgsb run to the byte, and a search's report and ansatz are
    # those of a search that never re-charts
    import privsq.squashed as sq

    rho = bench_state(tmp_path)
    psi = purification_matrix(rho.matrix)
    axes = [tuple(p + 2 for p in rho.layout.positions(g)) for g in BENCH_GROUPS]
    plan = _kernel_plan((4, 4) + rho.layout.dims, tuple(info_terms(axes, (0,), "total")))
    x0 = sq._fresh_start(np.random.Generator(np.random.PCG64(3)), psi.shape[0], 4, 4)
    for max_iters in (7, sq.RECHART_ITERS):
        one, two = (driven(_descend(psi, x0, max_iters), plan),
                    driven(_lbfgsb(_descent(psi), x0, max_iters), plan))
        assert (one.x.tobytes(), one.jac.tobytes()) == (two.x.tobytes(), two.jac.tobytes())
        assert (one.fun, one.nit, one.nfev, one.njev, one.message) == (
            two.fun, two.nit, two.nfev, two.njev, two.message)
    cfg = OptimizerConfig(restarts=2, max_iters=sq.RECHART_ITERS, seed=3)
    rep = squashed_multi_upper(rho, BENCH_GROUPS, d_env=4, d_sink=4, cfg=cfg)
    monkeypatch.setattr(sq, "RECHART_ITERS", 10 ** 9)
    once = squashed_multi_upper(rho, BENCH_GROUPS, d_env=4, d_sink=4, cfg=cfg)
    assert rep.to_dict() == once.to_dict()
    assert rep.ansatz.params.tobytes() == once.ansatz.params.tobytes()


def test_a_recharted_restart_spends_at_most_its_budget(monkeypatch, tmp_path):
    # a descent is runs of at most RECHART_ITERS iterations, each after the
    # first started once the run before stopped on its limit; the restart sums
    # their iterations and evaluations, never beyond max_iters, and reports
    # the last run's message and gradient, the iteration limit only when it
    # spent the whole budget
    from privsq.squashed import ITERATION_LIMIT, RECHART_ITERS

    rho = bench_state(tmp_path)
    runs = record_runs(monkeypatch)
    cfg = OptimizerConfig(restarts=4, max_iters=250, seed=5)
    rep = squashed_multi_upper(rho, BENCH_GROUPS, d_env=4, d_sink=4, cfg=cfg)
    segments = []
    for rec in rep.restarts:
        mine = [run.result for run in runs if run.restart == rec.index]
        segments.append(len(mine))
        assert [run.kwargs["max_iters"] for run in runs if run.restart == rec.index] == [
            min(RECHART_ITERS, cfg.max_iters - RECHART_ITERS * k) for k in range(len(mine))]
        assert all(ITERATION_LIMIT in r.message for r in mine[:-1])
        assert rec.iterations == sum(r.nit for r in mine) <= cfg.max_iters
        assert (rec.nfev, rec.njev) == (sum(r.nfev for r in mine), sum(r.njev for r in mine))
        assert (rec.value, rec.message) == (mine[-1].fun, mine[-1].message)
        assert rec.grad_norm == float(np.abs(mine[-1].jac).max())
        assert (ITERATION_LIMIT in rec.message) == (rec.iterations == cfg.max_iters)
        assert rec.converged == mine[-1].success
    assert max(segments) == 3  # some restart re-charted twice


def test_channel_descents_rechart_and_its_ascents_do_not(monkeypatch):
    # the channel search's descents over ansaetze go through the one re-charting
    # descent, runs of at most RECHART_ITERS iterations; its ascents over
    # inputs, which have no chart, take the whole budget in one run
    from privsq.squashed import RECHART_ITERS

    runs = record_runs(monkeypatch)
    cfg = OptimizerConfig(restarts=1, max_iters=RECHART_ITERS + 50, seed=2)
    channel_squashed_upper(depolarizing_channel_full(), d_env=2, d_sink=2, cfg=cfg, rounds=1)
    # an ascent starts from a qubit input's 8 coordinates, a descent from an ansatz's 16
    # (d_purify = 4 = n)
    assert [run.x0.size for run in runs] == [16, 8, 16, 16, 16]
    assert [run.kwargs["max_iters"] for run in runs] == [RECHART_ITERS, cfg.max_iters] + [
        RECHART_ITERS] * 3


def test_recharted_descents_converge_on_the_benchmark_state(tmp_path):
    # one restart at (4, 4) per op seed 10_000_000 + 20_000 i of the
    # benchmark: in a single chart 1 of the 8 converged within 500
    # iterations, re-charted every RECHART_ITERS all 8 do; the reported
    # ansatz, mapped back to the chart at the state's own purification,
    # reproduces each value
    rho = bench_state(tmp_path)
    converged = 0
    for i in range(8):
        cfg = OptimizerConfig(restarts=1, max_iters=500, seed=10_000_000 + 20_000 * i)
        rep = squashed_multi_upper(rho, BENCH_GROUPS, "total", 4, 4, cfg)
        converged += rep.optimizer_ok
        assert abs(squashing_value(rho, BENCH_GROUPS, rep.ansatz) - rep.value) <= 1e-9
    assert converged >= 6


def test_a_recharted_restart_reuses_its_last_evaluation(monkeypatch, tmp_path):
    # at n = d_purify the re-charted extension is I (V psi), the one the run
    # before ended on, bit for bit, so the next run starts from that answer:
    # one restart at (4, 4) on the benchmark's state reports the value,
    # iterations, message and ansatz of the search with the reuse switched
    # off, and one evaluation fewer per re-chart
    import privsq.squashed as sq

    rho = bench_state(tmp_path)
    cfg = OptimizerConfig(restarts=1, max_iters=500, seed=10_000_000)
    recharts, rechart, lbfgsb = [], sq._rechart, sq._lbfgsb

    def counted_rechart(*args):
        recharts.append(1)
        return rechart(*args)

    monkeypatch.setattr(sq, "_rechart", counted_rechart)
    reused = squashed_multi_upper(rho, BENCH_GROUPS, "total", 4, 4, cfg)
    count = len(recharts)
    monkeypatch.setattr(sq, "_lbfgsb", lambda objective, x0, max_iters, last=None, scale=None:
                        lbfgsb(objective, x0, max_iters, None, scale))
    off = squashed_multi_upper(rho, BENCH_GROUPS, "total", 4, 4, cfg)
    assert count >= 1 and len(recharts) == 2 * count
    (one,), (two,) = reused.restarts, off.restarts
    counts = {"nfev": 0, "njev": 0}
    assert asdict(one) | counts == asdict(two) | counts
    assert one.nfev == one.njev == two.nfev - count
    assert reused.ansatz.params.tobytes() == off.ansatz.params.tobytes()


def test_a_run_from_a_stationary_known_start_makes_no_kernel_call():
    # the restart's latest evaluation is at the run's start, with a zero
    # gradient: the run ends there, its value that answer's, having yielded
    # no extension, and hands the same evaluation on
    from privsq.lbfgs import GRADIENT_CONVERGED

    rng = np.random.Generator(np.random.PCG64(8))
    psi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    objective = _descent(psi / np.linalg.norm(psi))
    x0 = 0.3 * rng.standard_normal(ansatz_param_count(2, 2, 4))
    t, _ = objective(x0)
    last = (t.copy(), 0.25, np.zeros_like(t))
    run = _lbfgsb(objective, x0, 50, last)
    with pytest.raises(StopIteration) as stop:
        next(run)
    res, latest = stop.value.value
    assert latest is last
    assert (res.fun, res.nit, res.nfev, res.njev, res.message) == (0.25, 0, 0, 0,
                                                                   GRADIENT_CONVERGED)
    assert res.x.tobytes() == x0.tobytes() and not res.jac.any()


@pytest.mark.parametrize("channel, value, warms",
                         [(lambda: depolarizing_channel_full(), 0.0, True),
                          (lambda: identity_channel(), 1.0, False)],
                         ids=["depolarizing", "identity"])
def test_channel_runs_reuse_answers_and_warm_the_next_descent(monkeypatch, channel, value,
                                                               warms):
    # within one chart (max_iters <= RECHART_ITERS) a channel restart's runs
    # are descent, ascent per round, then three final descents.  Each of the
    # four runs that starts where the one before ended reuses its answer;
    # the later rounds' descent and the first final descent start with the
    # curvature scale of the descent before them, and the first round, the
    # ascents and the two fresh final descents start cold.  The identity
    # channel's output is pure, so its descents start stationary, store no
    # pair and warm nothing
    runs = record_runs(monkeypatch)
    cfg = OptimizerConfig(restarts=2, max_iters=60, seed=10_000_000)
    rep = channel_squashed_upper(channel(), d_env=2, d_sink=2, cfg=cfg, rounds=2)
    warm = 0
    for j in range(cfg.restarts):
        mine = [run for run in runs if run.restart == j]
        assert len(mine) == 7
        assert [run.kwargs["start"] is not None for run in mine] == [False] + [True] * 4 + [
            False] * 2
        scales = [run.kwargs["scale"] for run in mine]
        assert scales == [None, None, mine[0].result.scale, None, mine[2].result.scale,
                          None, None]
        warm += sum(scale is not None for scale in scales)
        assert rep.restarts[j].nfev == sum(run.result.nfev for run in mine)
    assert (warm > 0) == warms and rep.value == pytest.approx(value, abs=0.01)


def test_a_recharted_channel_descent_warms_no_later_descent(monkeypatch):
    # a descent that re-charted ends in a chart whose metric is not the one
    # the next descent starts in, so it hands on no curvature scale: with
    # re-charts every 4 iterations, each descent that re-charted reports
    # the scale None, and the descent after it starts cold
    import privsq.squashed as sq

    calls, descend = [], sq._descend

    def recorded_descend(psi, x0, max_iters, last=None, scale=None):
        recharts = len(rechart_calls)
        res, latest = yield from descend(psi, x0, max_iters, last, scale)
        calls.append(SimpleNamespace(scale=scale, result=res,
                                     recharted=len(rechart_calls) > recharts))
        return res, latest

    rechart_calls, rechart = [], sq._rechart

    def counted_rechart(*args):
        rechart_calls.append(1)
        return rechart(*args)

    monkeypatch.setattr(sq, "RECHART_ITERS", 4)
    monkeypatch.setattr(sq, "_descend", recorded_descend)
    monkeypatch.setattr(sq, "_rechart", counted_rechart)
    cfg = OptimizerConfig(restarts=1, max_iters=60, seed=10_000_000)
    channel_squashed_upper(depolarizing_channel_full(), d_env=2, d_sink=2, cfg=cfg, rounds=2)
    # round 1's and round 2's descents, then the three final descents
    assert len(calls) == 5 and calls[0].recharted
    assert all(call.result.scale is None for call in calls if call.recharted)
    assert [call.scale for call in calls] == [None, calls[0].result.scale,
                                              calls[1].result.scale, None, None]


REPORT_KEYS = ["description", "value", "flavor", "dims", "seed", "best_restart",
               "optimizer_ok", "heuristic", "restarts"]
RESTART_KEYS = ["index", "value", "iterations", "converged", "nfev", "njev", "grad_norm",
                "message"]


def test_report_rows_have_fixed_keys():
    cfg = OptimizerConfig(restarts=2, max_iters=10, seed=1)
    lo = SystemLayout([("A", 2), ("B", 2)])
    rho = random_density(lo, 3, seed=5)
    multi = squashed_multi_upper(rho, ["A", "B"], "dual", d_env=2, d_sink=2, cfg=cfg)
    channel = channel_squashed_upper(identity_channel(), d_env=2, d_sink=2, cfg=cfg, rounds=1)
    assert [rep.description for rep in (multi, channel)] == [
        "squashed upper bound (dual) over 2 groups",
        "channel squashed-entanglement search (heuristic)",
    ]
    for rep in (multi, channel):
        row = rep.to_dict()
        assert list(row) == REPORT_KEYS
        assert row["dims"] == dict(zip(("d_purify", "d_env", "d_sink"), rep.dims))
        assert row["heuristic"] is (rep is channel)
        assert [list(r) for r in row["restarts"]] == [RESTART_KEYS] * cfg.restarts
        assert [r["value"] for r in row["restarts"]] == [r.value for r in rep.restarts]


def test_non_positive_extension_dims_are_refused():
    lo = SystemLayout([("A", 2), ("B", 2)])
    rho = random_density(lo, 1, seed=3)  # product -2 * -2 = 4 >= rank 1
    with pytest.raises(ValueError, match="d_env=-2, d_sink=-2 must both be at least 1"):
        squashed_multi_upper(rho, ["A", "B"], d_env=-2, d_sink=-2)
    with pytest.raises(ValueError, match="d_env=2, d_sink=0 must both be at least 1"):
        channel_squashed_upper(identity_channel(), d_env=2, d_sink=0)


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------

def test_upper_bound_max_entangled():
    phi = max_entangled(2)
    rep = squashed_multi_upper(phi, ["A", "B"], cfg=OptimizerConfig(restarts=2, seed=1))
    assert abs(rep.value - 1.0) < 1e-6
    assert rep.dims == (1, 1, 1)


def test_upper_bound_classical_correlated():
    cl = dephase(max_entangled(2), ("A", "B"))
    rep = squashed_multi_upper(cl, ["A", "B"], d_env=2, cfg=OptimizerConfig(restarts=8, seed=2))
    assert rep.value <= 0.01
    assert rep.value > -1e-9


def test_upper_bound_pure_product():
    prod = kron(random_pure(SystemLayout([("A", 2)]), 1).density(),
                random_pure(SystemLayout([("B", 2)]), 2).density())
    rep = squashed_multi_upper(prod, ["A", "B"], cfg=OptimizerConfig(restarts=2, seed=3))
    assert abs(rep.value) < 1e-8


def test_multi_upper_pure_ghz_forced_values():
    # Extensions of a rank-one state are product with the environment, so the
    # objective is constant: half the unconditional information of the state
    # itself.  For the three-party rank-one correlated state both informations
    # equal 3 bits (three marginal bits, zero joint entropy), so both flavors
    # must return 1.5 exactly, independent of the ansatz.
    ghz = ghz_state(2, 3)
    groups = ["A1", "A2", "A3"]
    oracle_total = 0.5 * total_correlation(ghz, groups)
    oracle_dual = 0.5 * dual_total_correlation(ghz, groups)
    assert abs(oracle_total - 1.5) < 1e-10
    assert abs(oracle_dual - 1.5) < 1e-10
    for flavor, oracle in (("total", oracle_total), ("dual", oracle_dual)):
        rep = squashed_multi_upper(ghz, groups, flavor=flavor,
                                   cfg=OptimizerConfig(restarts=2, seed=1))
        assert abs(rep.value - oracle) < 1e-6


def test_multi_upper_product_state_vanishes():
    prod = kron(
        kron(random_pure(SystemLayout([("A1", 2)]), 1).density(),
             random_pure(SystemLayout([("A2", 2)]), 2).density()),
        random_pure(SystemLayout([("A3", 2)]), 3).density(),
    )
    for flavor in ("total", "dual"):
        rep = squashed_multi_upper(prod, ["A1", "A2", "A3"], flavor=flavor,
                                   cfg=OptimizerConfig(restarts=2, seed=2))
        assert abs(rep.value) < 1e-8


def test_two_group_multi_matches_bipartite():
    lo = SystemLayout([("A", 2), ("B", 2)])
    rho = random_density(lo, 4, seed=13)
    cfg = OptimizerConfig(restarts=2, max_iters=40, seed=5)
    a = squashed_multi_upper(rho, ["A", "B"], "dual", d_env=2, d_sink=2, cfg=cfg)
    b = squashed_multi_upper(rho, ["A", "B"], d_env=2, d_sink=2, cfg=cfg)
    assert abs(a.value - b.value) < 1e-12


# ---------------------------------------------------------------------------
# soundness properties
# ---------------------------------------------------------------------------

def test_every_ansatz_gives_sound_bound():
    lo = SystemLayout([("A", 2), ("B", 2)])
    rho = random_density(lo, 4, seed=15)
    for seed in range(6):
        ans = random_ansatz(4, 2, 2, seed=40 + seed)
        v = squashing_value(rho, [("A",), ("B",)], ans)
        assert v > -1e-9
        ext = extend_by_squashing(rho, ans)
        assert np.abs(partial_trace(ext, ("A", "B")).matrix - rho.matrix).max() < 1e-9


def test_exact_private_states_bound_at_least_log_key():
    # the source paper: Esq of a private state with key dimension K is at
    # least log2 K, so no variational value may fall below 1 bit at K = 2
    for seed in (0, 1, 2, 3):
        spec = random_private_spec(2, (2, 2), seed=seed)
        gamma = private_state(spec)
        rep = squashed_multi_upper(gamma, list(zip(spec.key_labels, spec.shield_labels)),
                                   cfg=OptimizerConfig(restarts=2, seed=seed))
        assert all(r.value >= 1.0 - 1e-9 for r in rep.restarts)


def test_subadditivity_direction_with_product_ansatz():
    lo1 = SystemLayout([("A1", 2), ("B1", 2)])
    lo2 = SystemLayout([("A2", 2), ("B2", 2)])
    rho1 = random_density(lo1, 2, seed=17)
    rho2 = random_density(lo2, 3, seed=18)
    cfg = OptimizerConfig(restarts=2, max_iters=60, seed=6)
    rep1 = squashed_multi_upper(rho1, ["A1", "B1"], d_env=2, d_sink=2, cfg=cfg)
    rep2 = squashed_multi_upper(rho2, ["A2", "B2"], d_env=3, d_sink=1, cfg=cfg)
    ext1 = extend_by_squashing(rho1, rep1.ansatz, env_label="E1")
    ext2 = extend_by_squashing(rho2, rep2.ansatz, env_label="E2")
    joint = kron(ext1, ext2)
    v_joint = 0.5 * cond_mutual_info(joint, ("A1", "A2"), ("B1", "B2"), ("E1", "E2"))
    assert v_joint <= rep1.value + rep2.value + 1e-6


def test_monotone_under_discarding_part_of_a_group():
    lo = SystemLayout([("A", 2), ("B1", 2), ("B2", 2)])
    rho = random_density(lo, 4, seed=19)
    cfg = OptimizerConfig(restarts=2, max_iters=40, seed=7)
    rep = squashed_multi_upper(rho, ["A", ("B1", "B2")], d_env=2, d_sink=2, cfg=cfg)
    ext = extend_by_squashing(rho, rep.ansatz)
    v_dropped = 0.5 * cond_mutual_info(ext, "A", "B1", "E")
    assert v_dropped <= rep.value + 1e-6


def test_key_bound_chain_for_every_ansatz():
    spec = random_private_spec(2, (2, 2), seed=61)
    for p in (0.02, 0.1):
        omega, eps = approx_private_state(private_state(spec), p, seed=62)
        f1 = f_key_bipartite(eps, 2)
        for seed in range(3):
            ans = random_ansatz(16, 4, 4, seed=70 + seed)
            ext = extend_by_squashing(omega, ans)
            cmi = cond_mutual_info(
                ext, (spec.key_labels[0], spec.shield_labels[0]),
                (spec.key_labels[1], spec.shield_labels[1]), "E",
            )
            assert 2 * log2(2) <= cmi + 2 * f1 + 1e-6


def test_multipartite_key_bound_chain_for_every_ansatz():
    # displayed three-party inequality: m log2 K <= info + 2 * 2m f(sqrt(eps), K)
    # holds for every extension; checked on random squashed extensions for
    # both information flavors
    spec = random_private_spec(2, (2, 2, 2), seed=301)
    omega, eps = approx_private_state(private_state(spec), 0.05, seed=302)
    groups = [(k, s) for k, s in zip(spec.key_labels, spec.shield_labels)]
    for seed, flavor in enumerate(("total", "dual")):
        ans = random_ansatz(64, 8, 8, seed=310 + seed, scale=0.4)
        info = 2.0 * squashing_value(omega, groups, ans, flavor=flavor)
        f = 2 * 3 * f_key_bipartite(eps, 2)
        assert 3 * log2(2) <= info + 2 * f + 1e-6


def test_report_determinism():
    # two calls give equal reports and bit-equal best ansaetze, for the state
    # search and for the channel search
    lo = SystemLayout([("A", 2), ("B", 2)])
    rho = random_density(lo, 4, seed=21)
    cfg = OptimizerConfig(restarts=3, max_iters=25, seed=8)
    rep1 = squashed_multi_upper(rho, ["A", "B"], d_env=2, d_sink=2, cfg=cfg)
    rep2 = squashed_multi_upper(rho, ["A", "B"], d_env=2, d_sink=2, cfg=cfg)
    assert rep1.to_dict() == rep2.to_dict()
    assert rep1.ansatz.params.tobytes() == rep2.ansatz.params.tobytes()
    assert rep1.best_restart == min(
        range(len(rep1.restarts)),
        key=lambda j: (rep1.restarts[j].value, j),
    )
    chan1, chan2 = (channel_squashed_upper(random_three_output_channel(), d_env=2, d_sink=2,
                                           cfg=cfg, rounds=2) for _ in range(2))
    assert chan1.to_dict() == chan2.to_dict()
    assert chan1.ansatz.params.tobytes() == chan2.ansatz.params.tobytes()
    assert chan1.best_restart == max(
        range(len(chan1.restarts)),
        key=lambda j: (chan1.restarts[j].value, -j),
    )


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------

def trivial_extended_spec(key_dim, shield_dims, ext_dim, seed):
    parties = len(shield_dims)
    d_sh = int(np.prod(shield_dims))
    labels = [f"A{i+1}p" for i in range(parties)]
    layout = SystemLayout(list(zip(labels, shield_dims)) + [("E", ext_dim)])
    sigma = random_density(layout, layout.total_dim, seed=seed)
    return PrivateStateSpec(key_dim, shield_dims, sigma, [np.eye(d_sh)] * key_dim)


def residuals_of(spec):
    gamma = private_state(spec)
    return private_identity_residual(gamma, spec.key_labels, spec.shield_labels, "E")


BIPARTITE_KINDS = ("bipartite", "bipartite_joint")
MULTI_KINDS = ("multi_total", "multi_dual")


def test_identity_residuals_trivial_twist():
    residuals = residuals_of(trivial_extended_spec(2, (2, 2), 2, seed=81))
    for kind in BIPARTITE_KINDS:
        assert residuals[kind] < 1e-10
    residuals = residuals_of(trivial_extended_spec(2, (2, 2, 2), 2, seed=82))
    for kind in MULTI_KINDS:
        assert residuals[kind] < 1e-10


def test_identity_residuals_random_specs():
    for i in range(5):
        residuals = residuals_of(random_private_spec(2, (2, 2), seed=90 + i, ext_dim=2))
        for kind in BIPARTITE_KINDS:
            assert residuals[kind] < 1e-8
    for i in range(3):
        residuals = residuals_of(random_private_spec(2, (2, 2, 2), seed=95 + i, ext_dim=2))
        for kind in MULTI_KINDS:
            assert residuals[kind] < 1e-6


def test_identity_residuals_wider_families():
    # higher key dimension, asymmetric shields, and four parties
    residuals = residuals_of(random_private_spec(3, (2, 3), seed=111, ext_dim=2))
    for kind in BIPARTITE_KINDS:
        assert residuals[kind] < 1e-8
    residuals = residuals_of(
        random_private_spec(2, (2, 2, 2, 2), seed=112, ext_dim=2, sigma_rank=5)
    )
    for kind in MULTI_KINDS:
        assert residuals[kind] < 1e-6


def test_identity_residual_multi_dual_reduces_to_bipartite():
    residuals = residuals_of(random_private_spec(2, (2, 2), seed=99, ext_dim=2))
    assert abs(residuals["bipartite"] - residuals["multi_dual"]) < 1e-9


def test_identity_kinds_coincide_at_two_parties():
    """At m = 2 the four identities merge to one coefficient row: by the
    chain rule I(AA';BB'|E) - I(A';B'|AE) = I(A;BB'|E) + I(A';B|AB'E), and
    both multipartite forms reduce to the same sum.  Three parties keep two
    distinct rows."""
    def identity_terms(keys):
        shields = tuple(f"{k}p" for k in keys)
        layout = SystemLayout((lbl, 2) for lbl in ("R",) + keys + shields + ("E",))
        return _identity_terms(layout, keys, shields, ("E",))

    kinds, marginals, coef = identity_terms(("A1", "A2"))
    assert kinds == ("multi_total", "multi_dual", "bipartite", "bipartite_joint")
    assert len(marginals) == 6
    assert (coef == coef[0]).all()
    kinds, _, coef = identity_terms(("A1", "A2", "A3"))
    assert kinds == ("multi_total", "multi_dual")
    assert len(np.unique(coef, axis=0)) == 2


def test_identity_residual_entropy_count(monkeypatch):
    """One call evaluates every identity of an extension and diagonalizes
    each distinct marginal once, as a Gram matrix of the purification no
    larger than its smaller side: the four two-party identities share 6
    marginals, the two three-party ones 14.  Member sets whose coefficients
    cancel (e.g. H(ABB'E) in the bipartite identity) are never evaluated.
    A pure input costs no eigh; a density operator one, the eigh that
    purifies it."""
    eigvalsh, eigh = np.linalg.eigvalsh, np.linalg.eigh
    matrices, purified = [], []

    def counted_eigvalsh(a, *args, **kwargs):
        matrices.extend([a.shape[-1]] * int(np.prod(a.shape[:-2])))
        return eigvalsh(a, *args, **kwargs)

    def counted_eigh(a, *args, **kwargs):
        purified.append(a.shape[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    for parties, count in ((2, 6), (3, 14)):
        spec = random_private_spec(2, (2,) * parties, seed=131, ext_dim=2)
        pure, gamma = purify_private_state(spec), private_state(spec)
        for state, eighs in ((pure, []), (gamma, [gamma.dim])):
            matrices.clear()
            purified.clear()
            residuals = private_identity_residual(state, spec.key_labels, spec.shield_labels, "E")
            assert max(residuals.values()) < 1e-6
            assert len(matrices) == count, parties
            assert max(matrices) ** 2 <= pure.layout.total_dim
            assert purified == eighs


def test_identity_residual_refuses_unequal_key_dimensions():
    # the left side m log2 K needs one K; keys of dimensions 2 and 3 have none
    layout = SystemLayout([("R", 2), ("A1", 2), ("A2", 3), ("A1p", 2), ("A2p", 2), ("E", 2)])
    pure = random_pure(layout, seed=3)
    mixed = partial_trace(pure.density(), layout.labels[1:])
    for state in (pure, mixed):
        with pytest.raises(ValueError, match="unequal dimension"):
            private_identity_residual(state, ("A1", "A2"), ("A1p", "A2p"), "E")


@pytest.mark.parametrize("key_dim", (2, 3))
@pytest.mark.parametrize("parties", (2, 3))
@pytest.mark.parametrize("sigma_rank", (None, 1))
def test_identity_residual_pure_and_density_inputs_agree(key_dim, parties, sigma_rank):
    spec = random_private_spec(key_dim, (2,) * parties, seed=140 + key_dim + parties,
                               ext_dim=2, sigma_rank=sigma_rank)
    pure = private_identity_residual(purify_private_state(spec), spec.key_labels,
                                     spec.shield_labels, "E")
    mixed = residuals_of(spec)
    assert set(pure) == set(mixed)
    for kind in pure:
        assert abs(pure[kind] - mixed[kind]) < 1e-12, kind
        assert pure[kind] < 1e-12, kind


def _partial_trace_identities(ext, keys, shields, env=("E",)):
    """The right side of every identity, written out with the partial-trace
    entropies of the extension ``ext`` (``H(x|c)`` and ``I(x;y|c)``)."""
    m, a, env = len(keys), keys[0], tuple(env)

    def h(x, c):
        return cond_entropy(ext, x, c)

    def i(x, y, c):
        return cond_mutual_info(ext, x, y, c) if x and y else 0.0

    total = -h(keys[1:], (a,) + shields + env)
    dual = h(keys[1:], (a,) + shields[1:] + env) + i((a,), keys[1:] + shields[1:], env)
    for j in range(1, m):
        other_keys = tuple(keys[k] for k in range(1, m) if k != j)
        other_shields = tuple(shields[k] for k in range(m) if k != j)
        total += h((keys[j],), (shields[j], a) + env) + i((a,), (keys[j], shields[j]), env)
        dual += (-h((keys[j],), (a,) + shields + env)
                 + i((keys[j], shields[j]), other_keys, (a,) + other_shields + env))
    rhs = {"multi_total": total, "multi_dual": dual}
    if m == 2:
        (b,), (ap, bp) = keys[1:], shields
        rhs["bipartite"] = i((a,), (b, bp), env) + i((ap,), (b,), (a, bp) + env)
        rhs["bipartite_joint"] = i((a, ap), (b, bp), env) - i((ap,), (bp,), (a,) + env)
    return rhs


def test_identity_residual_matches_partial_trace_entropies():
    """Off private states the residuals are of order one; on random pure
    states with a purifying system they must equal the same identities
    written out with the partial-trace entropies of the extension, state
    by state and as one stacked batch."""
    for keys, dims, seeds in ((("A1", "A2"), (2, 2, 2, 3), range(150, 154)),
                              (("A1", "A2", "A3"), (2,) * 6, range(180, 184))):
        shields = tuple(f"{k}p" for k in keys)
        layout = SystemLayout(zip(("R",) + keys + shields + ("E",), (3,) + dims + (2,)))
        pures = [random_pure(layout, seed=seed) for seed in seeds]
        kinds, batched = _identity_residuals(np.stack([p.amplitudes for p in pures]), layout,
                                              keys, shields, ("E",))
        for pure, row in zip(pures, batched):
            ext = partial_trace(pure.density(), layout.labels[1:])
            rhs = _partial_trace_identities(ext, keys, shields)
            got = private_identity_residual(pure, keys, shields, "E")
            assert set(got) == set(kinds) == set(rhs)
            for kind, value in zip(kinds, row):
                expect = abs(len(keys) - rhs[kind])
                assert abs(got[kind] - expect) < 1e-12, kind
                assert abs(value - expect) < 1e-12, kind
            assert min(got.values()) > 1e-3


@pytest.mark.parametrize("key_dim, parties, ranks", [
    (2, 2, (3, 8, 3, 1, 5, 3, None)),  # rank groups of 1, 1, 2 and 3 instances
    (3, 2, (2, 2, 7)),
    (2, 3, (16, 4, 1, 4)),
    (3, 3, (1, 3, 3)),
])
def test_batched_identity_residuals_match_partial_trace_forms(key_dim, parties, ranks):
    """One batch of specs with mixed shield ranks: every rank group holds
    the purifications of exactly its specs (tracing out R gives each
    extension), and each instance's residuals equal |m log2 K - RHS| with
    the right side from partial traces of its extension."""
    specs = [random_private_spec(key_dim, (2,) * parties, seed=170 + 10 * parties + key_dim + j,
                                 ext_dim=2, sigma_rank=rank) for j, rank in enumerate(ranks)]
    groups = _purified_groups(specs)
    assert sorted(j for idx, _, _ in groups for j in idx) == list(range(len(specs)))
    # the reference dimension is the rank; a full-rank shield state has 2^(m+1)
    full = 2 ** (parties + 1)
    assert [layout.dims[0] for _, _, layout in groups] == sorted({r or full for r in ranks})
    for idx, _, layout in groups:
        assert {ranks[j] or full for j in idx} == {layout.dims[0]}
    lhs = parties * log2(key_dim)
    for idx, amplitudes, layout in groups:
        kinds, residuals = _identity_residuals(amplitudes, layout, specs[0].key_labels,
                                               specs[0].shield_labels, ("E",))
        assert residuals.shape == (len(idx), len(kinds))
        for j, amp, row in zip(idx, amplitudes, residuals):
            ext = private_state(specs[j])
            reduced = partial_trace(PureStateVector(amp, layout).density(), layout.labels[1:])
            assert np.abs(reduced.matrix - ext.matrix).max() < 1e-14
            rhs = _partial_trace_identities(ext, specs[j].key_labels, specs[j].shield_labels)
            assert set(kinds) == set(rhs)
            for kind, got in zip(kinds, row):
                assert abs(got - abs(lhs - rhs[kind])) < 1e-12, (j, kind)


def test_identity_residual_refuses_unknown_labels():
    spec = random_private_spec(2, (2, 2), seed=160, ext_dim=2)
    pure = purify_private_state(spec)
    with pytest.raises(LayoutError):
        private_identity_residual(pure, spec.key_labels, spec.shield_labels, "F")
    with pytest.raises(LayoutError):
        private_identity_residual(pure, spec.key_labels, spec.shield_labels, ("E", "A1"))


def test_identity_residual_validation():
    spec = random_private_spec(2, (2, 2, 2), seed=101, ext_dim=2)
    gamma = private_state(spec)
    assert set(residuals_of(spec)) == set(MULTI_KINDS)
    assert set(residuals_of(random_private_spec(2, (2, 2), seed=101, ext_dim=2))) == set(
        BIPARTITE_KINDS + MULTI_KINDS
    )
    with pytest.raises(ValueError):
        private_identity_residual(gamma, spec.key_labels, spec.shield_labels[:2], "E")
    with pytest.raises(ValueError):
        private_identity_residual(gamma, spec.key_labels[:1], spec.shield_labels[:1], "E")


# ---------------------------------------------------------------------------
# key-bound arithmetic
# ---------------------------------------------------------------------------

def test_key_length_bound_values():
    assert key_length_bound(0.7, 0.0, 2) == 0.7
    expect = 0.7 + 0.2 + 2 * 1.1 * binary_entropy(0.1 / 1.1)
    assert abs(key_length_bound(0.7, 0.01, 2) - expect) < 1e-12

    # eps = 1, K = 2: f(1, 2) = 2*1*1 + 2*g(1) = 6, where g(1) = 2 h2(1/2) = 2
    for e in (0.0, 0.7):
        assert key_length_bound(e, 1.0, 2) == e + 6
        # multipartite, one bound for both flavors: (2/m) (esq + 2m f) = (2/3) (esq + 36)
        assert key_length_bound(e, 1.0, 2, parties=3) == (2 / 3) * (e + 36)

    # the multipartite term is 2m times the bipartite one at any eps
    m, root = 3, sqrt(0.01)
    f2 = 2 * m * (2 * root * 1.0 + 2 * (1 + root) * binary_entropy(root / (1 + root)))
    got = key_length_bound(0.9, 0.01, 2, parties=m)
    assert abs(got - (2.0 / m) * (0.9 + f2)) < 1e-12

    with pytest.raises(ValueError):
        key_length_bound(1.0, 2.0, 2)


@pytest.mark.parametrize("esq", [float("nan"), float("inf"), -float("inf"), -5.0])
def test_key_bounds_refuse_non_finite_or_negative_esq(esq):
    with pytest.raises(ValueError, match="esq"):
        key_length_bound(esq, 0.01, 2)
    with pytest.raises(ValueError, match="esq"):
        key_rate_bound(esq, 0.01, 100)


def test_key_length_bound_refuses_small_key_or_party_count():
    for k in (1, 0, -2):
        with pytest.raises(ValueError, match="key dimension"):
            key_length_bound(0.9, 0.01, k)
    for m in (1, 0):
        with pytest.raises(ValueError, match="party count") as exc:
            key_length_bound(0.9, 0.01, 2, parties=m)
        assert "kind" not in str(exc.value)


def test_key_rate_bound_values():
    assert key_rate_bound(0.83, 0.0, 7) == 0.83
    expect = 1.0 / 0.8 + 2 * 1.1 * binary_entropy(0.1 / 1.1) / (100 * 0.8)
    assert abs(key_rate_bound(1.0, 0.01, 100) - expect) < 1e-12
    with pytest.raises(ValueError, match="1 - 2"):
        key_rate_bound(1.0, 0.25, 100)
    with pytest.raises(ValueError):
        key_rate_bound(1.0, 0.4, 100)
    with pytest.raises(ValueError):
        key_rate_bound(1.0, 0.01, 0)


# ---------------------------------------------------------------------------
# channel quantity
# ---------------------------------------------------------------------------

def identity_channel():
    lo = SystemLayout([("Ain", 2)])
    return Isometry(np.eye(2), lo, SystemLayout([("B", 2)]))

def depolarizing_channel_full():
    # output maximally mixed for every input: |psi> -> |Phi>_(B,G1) |psi>_G2
    v = np.zeros((8, 2), dtype=complex)
    for b in range(2):
        for a in range(2):
            v[b * 4 + b * 2 + a, a] = 1.0 / np.sqrt(2)
    return Isometry(
        v, SystemLayout([("Ain", 2)]), SystemLayout([("B", 2), ("G1", 2), ("G2", 2)])
    )

def replacement_channel():
    v = np.zeros((4, 2), dtype=complex)
    v[0, 0] = v[1, 1] = 1.0  # |psi> -> |0>_B |psi>_G
    return Isometry(v, SystemLayout([("Ain", 2)]), SystemLayout([("B", 2), ("G", 2)]))


def test_channel_identity_qubit():
    rep = channel_squashed_upper(
        identity_channel(), d_env=2, d_sink=2,
        cfg=OptimizerConfig(restarts=3, max_iters=200, seed=3),
    )
    assert rep.heuristic
    assert abs(rep.value - 1.0) < 1e-3


def test_channel_completely_depolarizing():
    rep = channel_squashed_upper(
        depolarizing_channel_full(), d_env=2, d_sink=2,
        cfg=OptimizerConfig(restarts=4, max_iters=120, seed=5), rounds=2,
    )
    assert rep.value <= 0.01


def test_channel_replacement():
    rep = channel_squashed_upper(
        replacement_channel(), d_env=2, d_sink=2,
        cfg=OptimizerConfig(restarts=2, max_iters=80, seed=7), rounds=2,
    )
    assert rep.value <= 0.01


def test_channel_restart_converges_only_if_all_its_runs_did(monkeypatch):
    # a channel restart is several L-BFGS-B runs (a descent and an ascent per
    # round, then three final descents); a run stopped on max_iters shows in
    # its restart's record even where the final descent it reports converged
    recorded = record_runs(monkeypatch)
    cfg = OptimizerConfig(restarts=2, max_iters=5, seed=1)
    rep = channel_squashed_upper(depolarizing_channel_full(), d_env=2, d_sink=2, cfg=cfg, rounds=2)
    per_restart = 2 * 2 + 3
    assert len(recorded) == cfg.restarts * per_restart
    reported_final_converged = []
    for rec in rep.restarts:
        runs = [run.result for run in recorded if run.restart == rec.index]
        assert len(runs) == per_restart
        stopped = [r for r in runs if not r.success]
        assert stopped and rec.converged is False
        assert rec.message == str(stopped[0].message)
        assert (rec.nfev, rec.njev) == (sum(r.nfev for r in runs), sum(r.njev for r in runs))
        reported = [r for r in runs[-3:] if float(r.fun) == rec.value]
        reported_final_converged.append(bool(reported[0].success))
        assert rec.grad_norm == float(np.abs(reported[0].jac).max())
    assert rep.optimizer_ok is False
    assert any(reported_final_converged)  # the case a final-run-only record hides


def test_channel_dimension_guard():
    lo = SystemLayout([("Ain", 5)])
    chan = Isometry(np.eye(5), lo, SystemLayout([("B", 5)]))
    with pytest.raises(ValueError, match="guard"):
        channel_squashed_upper(chan)


def test_channel_refuses_an_empty_keep():
    # an empty keep used to search a one-dimensional output and report ~0
    with pytest.raises(LayoutError, match="keep must name at least one channel output"):
        channel_squashed_upper(identity_channel(), keep=())


def random_three_output_channel():
    # the first two columns of a Haar unitary on B (x) G1 (x) G2
    v = haar_unitary(8, 21)[:, :2]
    return Isometry(
        v, SystemLayout([("Ain", 2)]), SystemLayout([("B", 2), ("G1", 2), ("G2", 2)])
    )


def idle_sink_channel():
    # |a> -> |a>_B |0>_G: the sunk G is two-dimensional but only |0> is reached
    v = np.zeros((4, 2), dtype=complex)
    v[0, 0] = v[2, 1] = 1.0
    return Isometry(v, SystemLayout([("Ain", 2)]), SystemLayout([("B", 2), ("G", 2)]))


# (channel, kept outputs)
CHANNEL_CASES = {
    "random_keep_one": (random_three_output_channel, ("B",)),
    "random_keep_two": (random_three_output_channel, ("B", "G2")),
    "identity": (identity_channel, ("B",)),
    "depolarizing": (depolarizing_channel_full, ("B",)),
    "replacement": (replacement_channel, ("B",)),
    "idle_sink": (idle_sink_channel, ("B",)),
}


def channel_coupling(case):
    make, keep = CHANNEL_CASES[case]
    chan = make()
    keep_pos = [chan.output_layout.position(lbl) for lbl in keep]
    return chan, keep_pos, _sunk_coupling(chan.matrix, chan.output_layout.dims, keep_pos)


def channel_input_objective(case, d_env, d_sink, seed):
    """The ascent's (negated) objective at a random fixed ansatz: the
    kernel's ``G_psi = v^dagger G_t`` pulled back through the channel
    purification."""
    _, _, coupling = channel_coupling(case)
    _, d_keep, d_in = coupling.shape
    rng = np.random.Generator(np.random.PCG64(seed))
    plan = _kernel_plan((d_env, d_sink, d_in, d_keep),
                        tuple(info_terms([(2,), (3,)], (0,), "total")))
    return value_and_grad(
        plan, _ascent(coupling, 0.5 * rng.standard_normal(
            ansatz_param_count(d_env, d_sink, coupling.shape[0]))))


@pytest.mark.parametrize(
    "case", ["random_keep_one", "random_keep_two", "identity", "depolarizing"]
)
def test_channel_input_gradient_matches_central_differences(case):
    f = channel_input_objective(case, 2, 2, seed=31)
    rng = np.random.Generator(np.random.PCG64(32))
    for _ in range(2):
        x = rng.standard_normal(8)
        _, grad = f(x)
        fd = central_differences(f, x)
        assert np.abs(grad - fd).max() <= 1e-6 * np.abs(fd).max()
        # the objective is blind to the input's scale: no radial component
        assert abs(grad @ x) < 1e-12 * np.linalg.norm(grad) * np.linalg.norm(x)


def test_channel_input_gradient_vanishes_on_replacement_channel():
    # the kept output is |0> for every input, so I(R;B|E) = 0 at every input
    # and every ansatz: value, exact gradient and differences all vanish
    f = channel_input_objective("replacement", 2, 2, seed=33)
    x = np.random.Generator(np.random.PCG64(34)).standard_normal(8)
    value, grad = f(x)
    assert abs(value) < 1e-12
    assert np.abs(grad).max() < 1e-12
    assert np.abs(central_differences(f, x)).max() < 1e-7


@pytest.mark.parametrize("case", sorted(CHANNEL_CASES))
def test_sunk_output_purification_reproduces_output_state(case):
    chan, keep_pos, coupling = channel_coupling(case)
    out_dims = chan.output_layout.dims
    d_in = chan.input_layout.total_dim
    d_keep = prod(out_dims[i] for i in keep_pos)
    sunk_pos = [i for i in range(len(out_dims)) if i not in keep_pos]
    assert coupling.shape[0] <= d_in * d_keep
    rng = np.random.Generator(np.random.PCG64(35))
    for _ in range(3):
        x = rng.standard_normal(2 * d_in * d_in)
        psi = _channel_purification(x, coupling)[0]
        u = (x[:d_in * d_in] + 1j * x[d_in * d_in:]).reshape(d_in, d_in)
        u /= np.linalg.norm(u)
        # the state on reference (x) kept outputs, straight from the dilation
        amp = (u @ chan.matrix.T).reshape((d_in,) + out_dims)
        amp = amp.transpose([0] + [1 + i for i in keep_pos] + [1 + i for i in sunk_pos])
        amp = amp.reshape(d_in * d_keep, -1)
        assert np.abs(psi.T @ psi.conj() - amp @ amp.conj().T).max() < 1e-12


def test_channel_report_dims_are_the_reachable_sunk_span():
    # identity: no sunk output; depolarizing: all four sunk states reachable;
    # replacement: the sunk G only carries the input, 2 < d_ref * d_keep = 4;
    # idle sink: the unreached sunk state |1> is dropped
    cfg = OptimizerConfig(restarts=1, max_iters=5, seed=1)
    for make, dims in ((identity_channel, (1, 2, 2)), (depolarizing_channel_full, (4, 2, 2)),
                       (replacement_channel, (2, 2, 2)), (idle_sink_channel, (1, 2, 2))):
        rep = channel_squashed_upper(make(), d_env=2, d_sink=2, cfg=cfg, rounds=1)
        assert rep.dims == dims
        assert rep.ansatz.d_purify == dims[0]


# ---------------------------------------------------------------------------
# restarts in lockstep
# ---------------------------------------------------------------------------

# (search at a config, amplitudes of its extension t): the state search at two
# and three parties in both flavors, and the channel search
LOCKSTEP_CASES = {
    f"{parties}-party-{flavor}": (
        lambda cfg, parties=parties, flavor=flavor: squashed_multi_upper(
            random_density(SystemLayout([(g, 2) for g in "ABC"[:parties]]), 3, seed=parties),
            list("ABC"[:parties]), flavor, d_env=2, d_sink=2, cfg=cfg),
        4 * 2 ** parties)
    for parties in (2, 3) for flavor in ("total", "dual")
}
LOCKSTEP_CASES["channel"] = (
    lambda cfg: channel_squashed_upper(depolarizing_channel_full(), d_env=2, d_sink=2, cfg=cfg,
                                       rounds=2), 16)


@pytest.mark.parametrize("live", [4, 2])
@pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
def test_lockstep_restarts_equal_restarts_one_at_a_time(case, live, monkeypatch):
    # restart j of a k-restart report is the report of restarts=1 at seed +
    # j: its value, iterations, convergence, evaluations, gradient norm and
    # message, and the best restart's ansatz to the byte.  With 4 live, all
    # four restarts share every kernel call; with 2 live, a finished
    # restart's place goes to the next one.
    import privsq.squashed as sq

    search, size = LOCKSTEP_CASES[case]
    cfg = OptimizerConfig(restarts=4, max_iters=40, seed=7)
    alone = [search(OptimizerConfig(restarts=1, max_iters=40, seed=cfg.seed + j))
             for j in range(cfg.restarts)]
    stacks, half_information = [], sq._KernelPlan.half_information

    def recorded(self, t):
        stacks.append(len(t))
        return half_information(self, t)

    monkeypatch.setattr(sq._KernelPlan, "half_information", recorded)
    monkeypatch.setattr(sq, "LIVE_AMPLITUDES", live * size)
    rep = search(cfg)
    assert max(stacks) == live
    assert sum(stacks) == sum(r.nfev for r in rep.restarts)
    for j, (row, one) in enumerate(zip(rep.restarts, alone)):
        assert (row.index, one.restarts[0].index) == (j, 0)
        assert asdict(row) | {"index": 0} == asdict(one.restarts[0])
    assert rep.ansatz.params.tobytes() == alone[rep.best_restart].ansatz.params.tobytes()


STACK_SHAPES = [
    # (shape, groups' axes, flavor): the channel search's shape, (4, 4) on
    # two qubit pairs, (2, 8) on three qubit pairs, and three parties at (2, 3)
    ((2, 2, 2, 2), [(2,), (3,)], "total"),
    ((4, 4, 2, 2, 2, 2), [(2, 3), (4, 5)], "total"),
    ((2, 8, 2, 2, 2, 2, 2, 2), [(2, 5), (3, 6), (4, 7)], "total"),
    ((2, 8, 2, 2, 2, 2, 2, 2), [(2, 5), (3, 6), (4, 7)], "dual"),
    ((2, 3, 2, 2, 2), [(2,), (3,), (4,)], "dual"),
]


@pytest.mark.parametrize("case", range(len(STACK_SHAPES)))
def test_stacked_kernel_rows_are_bit_equal_to_single_calls(case):
    # every row of one call over a stack, rank-deficient extensions (clipped
    # eigenvalues) among them, is the call over that extension alone, to the bit
    shape, axes, flavor = STACK_SHAPES[case]
    plan = _kernel_plan(shape, tuple(info_terms(axes, (0,), flavor)))
    rows, cols = shape[0] * shape[1], prod(shape[2:])
    rng = np.random.Generator(np.random.PCG64(60 + case))
    for k in (2, 5, 8):
        t = rng.standard_normal((k, rows, cols)) + 1j * rng.standard_normal((k, rows, cols))
        t[::2, :, cols // 2:] = 0.0
        t /= np.linalg.norm(t.reshape(k, -1), axis=1)[:, None, None]
        values, g_t = plan.half_information(t)
        assert len(values) == k and g_t.shape == t.shape
        for j in range(k):
            (value,), g = plan.half_information(t[j:j + 1])
            assert value == values[j]
            assert g.tobytes() == g_t[j].tobytes()


class FirstRound(Exception):
    """Stops a search at its first kernel call."""


def first_stack(monkeypatch, search) -> int:
    """How many extensions the first kernel call of ``search()`` stacks."""
    import privsq.squashed as sq

    stacks = []

    def recorded(self, t):
        stacks.append(len(t))
        raise FirstRound

    monkeypatch.setattr(sq._KernelPlan, "half_information", recorded)
    with pytest.raises(FirstRound):
        search()
    return stacks[0]


def test_the_memory_rule_bounds_the_live_restarts(monkeypatch):
    # at most max(1, 2048 // t.size) restarts are live: the channel search
    # (16 amplitudes) and (4, 4) on 16 dims (256) stack all 8 restarts;
    # (32, 32) on three qubit pairs (1024 x 64 amplitudes) runs one at a time
    cfg = OptimizerConfig(restarts=8, max_iters=1, seed=0)
    assert first_stack(monkeypatch, lambda: channel_squashed_upper(
        depolarizing_channel_full(), d_env=2, d_sink=2, cfg=cfg)) == 8
    pairs = SystemLayout([("A", 4), ("B", 4)])
    assert first_stack(monkeypatch, lambda: squashed_multi_upper(
        random_density(pairs, 16, seed=1), ["A", "B"], d_env=4, d_sink=4, cfg=cfg)) == 8
    triples = SystemLayout([("A", 4), ("B", 4), ("C", 4)])
    assert first_stack(monkeypatch, lambda: squashed_multi_upper(
        random_density(triples, 64, seed=1), ["A", "B", "C"], "dual", d_env=32, d_sink=32,
        cfg=cfg)) == 1
