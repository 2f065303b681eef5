import numpy as np
import pytest

from privsq import (
    Isometry,
    OptimizerConfig,
    SquashingAnsatz,
    SystemLayout,
    binary_entropy,
    channel_squashed_upper,
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
    private_state_extension,
    random_density,
    random_private_spec,
    random_pure,
    squashed_multi_upper,
    squashed_upper,
    squashing_value,
    total_correlation,
)
from privsq.private_states import PrivateStateSpec, approx_private_state, private_state
from privsq.squashed import (
    _channel_input_value_and_grad,
    _channel_purification,
    _expi_divided_differences,
    _info_terms,
    _isometry_from_params,
    _squashing_value_and_grad,
    _sunk_coupling,
    ansatz_param_count,
)
from privsq.tensor import entropy_bits, purification_matrix
from scipy.linalg import expm, expm_frechet

import itertools
from math import log2, prod, sqrt


def random_ansatz(d_purify, d_env, d_sink, seed, scale=0.5):
    rng = np.random.Generator(np.random.PCG64(seed))
    return SquashingAnsatz(
        d_purify, d_env, d_sink, scale * rng.standard_normal(ansatz_param_count(d_env, d_sink))
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
    rep = squashed_upper(rho, "A", "B", d_env=2, d_sink=2,
                         cfg=OptimizerConfig(restarts=2, max_iters=30, seed=4))
    recomputed = squashing_value(rho, [("A",), ("B",)], rep.ansatz)
    assert abs(recomputed - rep.value) < 1e-9


# ---------------------------------------------------------------------------
# exact gradient of the squashing objective
# ---------------------------------------------------------------------------

def squashing_objective(rho, groups, flavor, d_env, d_sink, d_purify):
    """The optimizer's value-and-gradient kernel for ``rho`` and ``groups``."""
    psi = purification_matrix(rho.matrix, d_ref=d_purify)
    axes = [tuple(p + 2 for p in rho.layout.positions(g)) for g in groups]
    shape = (d_env, d_sink) + rho.layout.dims
    terms = _info_terms(axes, (0,), flavor)
    return lambda x: _squashing_value_and_grad(x, psi, shape, terms)


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
        x = 0.5 * rng.standard_normal(ansatz_param_count(d_env, d_sink))
        value, grad = f(x)
        ans = SquashingAnsatz(d_purify, d_env, d_sink, x)
        assert abs(value - squashing_value(rho, groups, ans, flavor)) < 1e-12
        fd = central_differences(f, x)
        assert np.abs(grad - fd).max() <= 1e-6 * np.abs(fd).max()
        # no dead coordinates: every parameter moves the objective
        assert np.abs(grad).min() > 0


def test_exact_gradient_at_degenerate_generator():
    # params = 0: H = 0, every eigenvalue pair is degenerate
    rho, groups, d_env, d_sink, d_purify = GRADIENT_CASES[0]
    for flavor in ("total", "dual"):
        f = squashing_objective(rho, groups, flavor, d_env, d_sink, d_purify)
        x = np.zeros(ansatz_param_count(d_env, d_sink))
        _, grad = f(x)
        fd = central_differences(f, x)
        assert np.abs(grad - fd).max() <= 1e-6 * np.abs(fd).max()


def test_exact_gradient_vanishes_on_pure_input():
    # a rank-one state padded to d_purify = 3 < n = 6: extensions are product
    # with the environment, the objective is constant, marginals of the
    # environment (3 x 3, rank 2) are clipped, and the gradient is zero
    f = squashing_objective(max_entangled(2), ["A", "B"], "total", 3, 2, 3)
    x = 0.5 * np.random.Generator(np.random.PCG64(9)).standard_normal(36)
    value, grad = f(x)
    assert abs(value - 1.0) < 1e-12
    assert np.abs(grad).max() < 1e-12
    assert np.abs(central_differences(f, x)).max() < 1e-7


def test_daleckii_krein_matches_expm_frechet():
    rng = np.random.Generator(np.random.PCG64(11))
    for n in (1, 3, 6):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        direction = e + e.conj().T
        # generic, all-degenerate, and exactly and nearly degenerate pairs
        pairs = np.diag(np.tile([0.3, -1.2, 0.3 + 1e-9], n)[:n])
        for h in (g + g.conj().T, np.zeros((n, n)), pairs):
            w, q = np.linalg.eigh(h)
            got = q @ (_expi_divided_differences(w) * (q.conj().T @ direction @ q)) @ q.conj().T
            want = expm_frechet(1j * h, 1j * direction, compute_expm=False)
            assert np.abs(got - want).max() < 1e-12


def test_isometry_is_leading_columns_of_exp_ih():
    rng = np.random.Generator(np.random.PCG64(12))
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = g + g.conj().T
    v = _isometry_from_params(hermitian_params(h), 3, 2, 4)
    assert np.abs(v - expm(1j * h)[:, :4]).max() < 1e-12
    assert ansatz_param_count(3, 2) == 36


def test_full_iteration_budget_is_not_cut_by_evaluation_cap():
    # with finite differences every max_iters=500 restart at (4, 4) stopped
    # on scipy's evaluation cap at iteration 29
    spec = random_private_spec(2, (2, 2), seed=61)
    omega, _ = approx_private_state(spec, 0.05, seed=62)
    rep = squashed_upper(omega, (spec.key_labels[0], spec.shield_labels[0]),
                         (spec.key_labels[1], spec.shield_labels[1]), d_env=4, d_sink=4,
                         cfg=OptimizerConfig(restarts=2, max_iters=500, seed=1))
    for r in rep.restarts:
        assert "EVALUATIONS EXCEEDS LIMIT" not in r.message
        assert r.converged or r.iterations == 500
        assert r.njev == r.nfev < 15000
    row = rep.to_dict()["restarts"][0]
    assert (row["nfev"], row["njev"], row["message"]) == (
        rep.restarts[0].nfev, rep.restarts[0].njev, rep.restarts[0].message)


def test_channel_search_never_purifies(monkeypatch):
    # the channel's sunk outputs purify its output state, so neither the
    # descents over ansaetze nor the ascents over inputs diagonalize it, and
    # both run on exact gradients
    import privsq.squashed as sq

    purified, jacs = [], []

    def counted_purification(*args, **kwargs):
        purified.append(1)
        return purification_matrix(*args, **kwargs)

    def counted_minimize(fun, x0, jac=None, **kwargs):
        jacs.append(jac)
        return sq_minimize(fun, x0, jac=jac, **kwargs)

    sq_minimize = sq.minimize
    monkeypatch.setattr(sq, "purification_matrix", counted_purification)
    monkeypatch.setattr(sq, "minimize", counted_minimize)
    restarts, rounds = 2, 2
    channel_squashed_upper(identity_channel(), d_env=2, d_sink=2,
                           cfg=OptimizerConfig(restarts=restarts, max_iters=30, seed=3),
                           rounds=rounds)
    assert purified == []
    # per restart: a descent and an ascent per round, then three final descents
    assert len(jacs) == restarts * (2 * rounds + 3)
    assert all(jac is True for jac in jacs)


def test_both_searches_share_one_lbfgsb_option_set(monkeypatch):
    # every run of the state search and of the channel search (descents,
    # ascents and final descents) goes through one driver with one option set
    import privsq.squashed as sq

    calls = []

    def recorded_minimize(fun, x0, **kwargs):
        calls.append((np.array(x0), kwargs))
        return sq_minimize(fun, x0, **kwargs)

    sq_minimize = sq.minimize
    monkeypatch.setattr(sq, "minimize", recorded_minimize)
    cfg = OptimizerConfig(restarts=2, max_iters=20, tol=1e-6, seed=4)
    lo = SystemLayout([("A", 2), ("B", 2)])
    squashed_upper(random_density(lo, 3, seed=2), "A", "B", d_env=2, d_sink=2, cfg=cfg)
    assert len(calls) == cfg.restarts
    # restart j starts from N(0, 0.5^2) coordinates drawn from PCG64(seed + j)
    for j, (x0, _) in enumerate(calls):
        rng = np.random.Generator(np.random.PCG64(cfg.seed + j))
        assert np.array_equal(x0, 0.5 * rng.standard_normal(ansatz_param_count(2, 2)))
    channel_squashed_upper(identity_channel(), d_env=2, d_sink=2, cfg=cfg, rounds=1)
    assert len(calls) == cfg.restarts + cfg.restarts * (2 * 1 + 3)
    options = {"maxiter": 20, "ftol": 1e-6, "gtol": 1e-8}
    for _, kwargs in calls:
        assert kwargs == {"jac": True, "method": "L-BFGS-B", "options": options}
    assert not hasattr(cfg, "init_scale")


REPORT_KEYS = ["description", "value", "flavor", "dims", "seed", "best_restart",
               "optimizer_ok", "heuristic", "restarts"]
RESTART_KEYS = ["index", "value", "iterations", "converged", "nfev", "njev", "message"]


def test_report_rows_have_fixed_keys():
    cfg = OptimizerConfig(restarts=2, max_iters=10, seed=1)
    lo = SystemLayout([("A", 2), ("B", 2)])
    rho = random_density(lo, 3, seed=5)
    state = squashed_upper(rho, "A", "B", d_env=2, d_sink=2, cfg=cfg)
    multi = squashed_multi_upper(rho, ["A", "B"], "dual", d_env=2, d_sink=2, cfg=cfg)
    channel = channel_squashed_upper(identity_channel(), d_env=2, d_sink=2, cfg=cfg, rounds=1)
    assert [rep.description for rep in (state, multi, channel)] == [
        "bipartite squashed upper bound",
        "squashed upper bound (dual) over 2 groups",
        "channel squashed-entanglement search (heuristic)",
    ]
    for rep in (state, multi, channel):
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
        squashed_upper(rho, "A", "B", d_env=-2, d_sink=-2)
    with pytest.raises(ValueError, match="d_env=2, d_sink=0 must both be at least 1"):
        channel_squashed_upper(identity_channel(), d_env=2, d_sink=0)


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------

def test_upper_bound_max_entangled():
    phi = max_entangled(2)
    rep = squashed_upper(phi, "A", "B", cfg=OptimizerConfig(restarts=2, seed=1))
    assert abs(rep.value - 1.0) < 1e-6
    assert rep.dims == (1, 1, 1)


def test_upper_bound_classical_correlated():
    cl = dephase(max_entangled(2), ("A", "B"))
    rep = squashed_upper(cl, "A", "B", d_env=2, cfg=OptimizerConfig(restarts=8, seed=2))
    assert rep.value <= 0.01
    assert rep.value > -1e-9


def test_upper_bound_pure_product():
    prod = kron(random_pure(SystemLayout([("A", 2)]), 1).density(),
                random_pure(SystemLayout([("B", 2)]), 2).density())
    rep = squashed_upper(prod, "A", "B", cfg=OptimizerConfig(restarts=2, seed=3))
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
    a = squashed_upper(rho, "A", "B", d_env=2, d_sink=2, cfg=cfg)
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
        rep = squashed_upper(gamma, (spec.key_labels[0], spec.shield_labels[0]),
                             (spec.key_labels[1], spec.shield_labels[1]),
                             cfg=OptimizerConfig(restarts=2, seed=seed))
        assert all(r.value >= 1.0 - 1e-9 for r in rep.restarts)


def test_subadditivity_direction_with_product_ansatz():
    lo1 = SystemLayout([("A1", 2), ("B1", 2)])
    lo2 = SystemLayout([("A2", 2), ("B2", 2)])
    rho1 = random_density(lo1, 2, seed=17)
    rho2 = random_density(lo2, 3, seed=18)
    cfg = OptimizerConfig(restarts=2, max_iters=60, seed=6)
    rep1 = squashed_upper(rho1, "A1", "B1", d_env=2, d_sink=2, cfg=cfg)
    rep2 = squashed_upper(rho2, "A2", "B2", d_env=3, d_sink=1, cfg=cfg)
    ext1 = extend_by_squashing(rho1, rep1.ansatz, env_label="E1")
    ext2 = extend_by_squashing(rho2, rep2.ansatz, env_label="E2")
    joint = kron(ext1, ext2)
    v_joint = 0.5 * cond_mutual_info(joint, ("A1", "A2"), ("B1", "B2"), ("E1", "E2"))
    assert v_joint <= rep1.value + rep2.value + 1e-6


def test_monotone_under_discarding_part_of_a_group():
    lo = SystemLayout([("A", 2), ("B1", 2), ("B2", 2)])
    rho = random_density(lo, 4, seed=19)
    cfg = OptimizerConfig(restarts=2, max_iters=40, seed=7)
    rep = squashed_upper(rho, "A", ("B1", "B2"), d_env=2, d_sink=2, cfg=cfg)
    ext = extend_by_squashing(rho, rep.ansatz)
    v_dropped = 0.5 * cond_mutual_info(ext, "A", "B1", "E")
    assert v_dropped <= rep.value + 1e-6


def test_key_bound_chain_for_every_ansatz():
    spec = random_private_spec(2, (2, 2), seed=61)
    for p in (0.02, 0.1):
        omega, eps = approx_private_state(spec, p, seed=62)
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
    # displayed three-party inequality: m log2 K <= info + 2 f(sqrt(eps), K, m)
    # holds for every extension; checked on random squashed extensions with
    # the default (4, 4) constants for both information flavors
    from privsq import ContinuityParams, continuity_bound

    spec = random_private_spec(2, (2, 2, 2), seed=301)
    omega, eps = approx_private_state(spec, 0.05, seed=302)
    groups = [(k, s) for k, s in zip(spec.key_labels, spec.shield_labels)]
    kinds = {"total": "key_multi_total", "dual": "key_multi_dual"}
    for seed, (flavor, kind) in enumerate(kinds.items()):
        ans = random_ansatz(64, 8, 8, seed=310 + seed, scale=0.4)
        info = 2.0 * squashing_value(omega, groups, ans, flavor=flavor)
        f = continuity_bound(ContinuityParams(kind, sqrt(eps), log2(2), parties=3))
        assert 3 * log2(2) <= info + 2 * f + 1e-6


def test_report_determinism():
    lo = SystemLayout([("A", 2), ("B", 2)])
    rho = random_density(lo, 4, seed=21)
    cfg = OptimizerConfig(restarts=3, max_iters=25, seed=8)
    rep1 = squashed_upper(rho, "A", "B", d_env=2, d_sink=2, cfg=cfg)
    rep2 = squashed_upper(rho, "A", "B", d_env=2, d_sink=2, cfg=cfg)
    assert rep1.to_dict() == rep2.to_dict()
    assert np.array_equal(rep1.ansatz.params, rep2.ansatz.params)
    assert rep1.best_restart == min(
        range(len(rep1.restarts)),
        key=lambda j: (rep1.restarts[j].value, j),
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
    controls = {
        idx: np.eye(d_sh) for idx in itertools.product(range(key_dim), repeat=parties)
    }
    return PrivateStateSpec(key_dim, shield_dims, sigma, controls)


def residuals_of(spec):
    gamma = private_state_extension(spec)
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


def test_identity_residual_entropy_count(monkeypatch):
    """One call evaluates every identity of an extension, and each distinct
    marginal once: the four two-party identities share 6 marginals, the two
    three-party ones 14.  Member sets whose coefficients cancel (e.g.
    H(ABB'E) in the bipartite identity) are never evaluated."""
    import privsq.entropy

    calls = []

    def counting(mat):
        calls.append(mat.shape[0])
        return entropy_bits(mat)

    monkeypatch.setattr(privsq.entropy, "entropy_bits", counting)
    for parties, count in ((2, 6), (3, 14)):
        spec = random_private_spec(2, (2,) * parties, seed=131, ext_dim=2)
        calls.clear()
        residuals = residuals_of(spec)
        assert max(residuals.values()) < 1e-6
        assert len(calls) == count, parties


def test_identity_residual_validation():
    spec = random_private_spec(2, (2, 2, 2), seed=101, ext_dim=2)
    gamma = private_state_extension(spec)
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

    # multipartite arrangement: (2/m) (esq + f)
    m, c1, c2 = 3, 4, 4
    root = sqrt(0.01)
    f2 = m * (c1 * root * 1.0 + c2 * (1 + root) * binary_entropy(root / (1 + root)))
    got = key_length_bound(0.9, 0.01, 2, mode="multi_total", parties=m)
    assert abs(got - (2.0 / m) * (0.9 + f2)) < 1e-12
    got = key_length_bound(0.9, 0.01, 2, mode="multi_dual", parties=m, constants=(2, 3))
    f3 = m * (2 * root * 1.0 + 3 * (1 + root) * binary_entropy(root / (1 + root)))
    assert abs(got - (2.0 / m) * (0.9 + f3)) < 1e-12

    with pytest.raises(ValueError):
        key_length_bound(1.0, 0.01, 2, mode="multi_total")  # parties missing
    with pytest.raises(ValueError):
        key_length_bound(1.0, 2.0, 2)


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
    import privsq.squashed as sq

    results = []

    def recorded_minimize(*args, **kwargs):
        results.append(sq_minimize(*args, **kwargs))
        return results[-1]

    sq_minimize = sq.minimize
    monkeypatch.setattr(sq, "minimize", recorded_minimize)
    cfg = OptimizerConfig(restarts=2, max_iters=5, seed=1)
    rep = channel_squashed_upper(depolarizing_channel_full(), d_env=2, d_sink=2, cfg=cfg, rounds=2)
    per_restart = 2 * 2 + 3
    assert len(results) == cfg.restarts * per_restart
    reported_final_converged = []
    for rec in rep.restarts:
        runs = results[rec.index * per_restart:(rec.index + 1) * per_restart]
        stopped = [r for r in runs if not r.success]
        assert stopped and rec.converged is False
        assert rec.message == str(stopped[0].message)
        assert (rec.nfev, rec.njev) == (sum(r.nfev for r in runs), sum(r.njev for r in runs))
        reported = [r for r in runs[-3:] if float(r.fun) == rec.value]
        reported_final_converged.append(bool(reported[0].success))
    assert rep.optimizer_ok is False
    assert any(reported_final_converged)  # the case a final-run-only record hides


def test_channel_dimension_guard():
    lo = SystemLayout([("Ain", 5)])
    chan = Isometry(np.eye(5), lo, SystemLayout([("B", 5)]))
    with pytest.raises(ValueError, match="guard"):
        channel_squashed_upper(chan)


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
    """The ascent's value-and-gradient kernel at a random fixed ansatz."""
    chan, _, coupling = channel_coupling(case)
    d_purify, d_keep, d_in = coupling.shape
    rng = np.random.Generator(np.random.PCG64(seed))
    v = _isometry_from_params(0.5 * rng.standard_normal(ansatz_param_count(d_env, d_sink)),
                              d_env, d_sink, d_purify)
    terms = _info_terms([(2,), (3,)], (0,), "total")
    shape = (d_env, d_sink, d_in, d_keep)
    return lambda x: _channel_input_value_and_grad(x, v, coupling, shape, terms)


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
        psi, u, _ = _channel_purification(x, coupling)
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
