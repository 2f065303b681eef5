"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
one-line pass/fail summaries).  Criteria 8b and 8c pin the value 3/2 bits
forced on the rank-one three-party state by the product-extension argument
(see their docstrings).
"""

import itertools
import time
from math import sqrt

import numpy as np
import pytest

from privsq import (
    Isometry,
    OptimizerConfig,
    SystemLayout,
    binary_entropy,
    apply_stinespring,
    dephase,
    ghz_state,
    key_rate_bound,
    max_entangled,
    partial_trace,
    private_identity_residual,
    private_state,
    random_density,
    random_private_spec,
    squashed_multi_upper,
)
from privsq.cli import run_cli
from privsq.suites import (
    suite_chain,
    suite_continuity,
    suite_dual,
    suite_fvg,
    suite_ssa,
    suite_thm1,
)

SEED = 1


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}  {detail}")


# ---------------------------------------------------------------------------
# criteria 1-3: private-state identities
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bipartite_identity_run():
    start = time.monotonic()
    worst = {"bipartite": 0.0, "bipartite_joint": 0.0}
    for i in range(100):
        spec = random_private_spec(2, (2, 2), seed=SEED + i, ext_dim=2,
                                   sigma_rank=(i % 8) + 1)
        residuals = private_identity_residual(private_state(spec),
                                              spec.key_labels, spec.shield_labels, "E")
        for kind in worst:
            worst[kind] = max(worst[kind], residuals[kind])
    return worst, time.monotonic() - start


@pytest.fixture(scope="module")
def multipartite_identity_run():
    start = time.monotonic()
    worst = {"multi_total": 0.0, "multi_dual": 0.0}
    for i in range(25):
        spec = random_private_spec(2, (2, 2, 2), seed=SEED + 500 + i, ext_dim=2,
                                   sigma_rank=(i % 16) + 1)
        residuals = private_identity_residual(private_state(spec),
                                              spec.key_labels, spec.shield_labels, "E")
        for kind in worst:
            worst[kind] = max(worst[kind], residuals[kind])
    return worst, time.monotonic() - start


def test_criterion_01_bipartite_key_identity(bipartite_identity_run):
    worst, elapsed = bipartite_identity_run
    ok = worst["bipartite"] < 1e-7 and elapsed < 60.0
    report(1, ok, f"max residual {worst['bipartite']:.3e}, {elapsed:.1f} s for 100 instances")
    assert worst["bipartite"] < 1e-7
    assert elapsed < 60.0


def test_criterion_02_joint_cmi_identity(bipartite_identity_run):
    worst, _ = bipartite_identity_run
    ok = worst["bipartite_joint"] < 1e-7
    report(2, ok, f"max residual {worst['bipartite_joint']:.3e}")
    assert worst["bipartite_joint"] < 1e-7


def test_criterion_03_multipartite_identities(multipartite_identity_run):
    worst, elapsed = multipartite_identity_run
    top = max(worst.values())
    ok = top < 1e-6 and elapsed < 300.0
    report(3, ok, f"max residual {top:.3e}, {elapsed:.1f} s for 25+25 instances")
    assert worst["multi_total"] < 1e-6
    assert worst["multi_dual"] < 1e-6
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# criteria 4-7: entropic inequalities
# ---------------------------------------------------------------------------

def test_criterion_04_strong_subadditivity():
    res = suite_ssa(instances=500, seed=SEED, tol=1e-9)
    worst = max(r.worst for r in res.rows)
    report(4, res.passed, f"max violation {worst:.3e} over 700 states")
    assert res.passed


def test_criterion_05_chain_rules_and_dual_formula():
    chain = suite_chain(instances=100, seed=SEED, tol=1e-8)
    dual = suite_dual(instances=100, seed=SEED, tol=1e-8)
    worst = max(r.worst for r in chain.rows + dual.rows)
    ok = chain.passed and dual.passed
    report(5, ok, f"max residual {worst:.3e} incl. exact 2 + 1 = 3 anchor")
    assert chain.passed
    assert dual.passed


def test_criterion_06_fuchs_van_de_graaf():
    res = suite_fvg(instances=500, seed=SEED, tol=1e-9)
    worst = max(r.worst for r in res.rows)
    report(6, res.passed, f"max violation {worst:.3e} over 1500 pairs")
    assert res.passed


def test_criterion_07_entropy_continuity():
    res = suite_continuity(instances=200, seed=SEED, tol=1e-9)
    worst = max(r.worst for r in res.rows)
    report(7, res.passed, f"max violation {worst:.3e} over 600 pairs")
    assert res.passed


# ---------------------------------------------------------------------------
# criterion 8: squashed-entanglement anchors
# ---------------------------------------------------------------------------

def test_criterion_08a_max_entangled_anchor():
    rep = squashed_multi_upper(max_entangled(2), ["A", "B"],
                               cfg=OptimizerConfig(restarts=2, seed=SEED))
    ok = abs(rep.value - 1.0) < 1e-6
    report("8a", ok, f"maximally entangled pair upper bound {rep.value:.9f}")
    assert abs(rep.value - 1.0) < 1e-6


def test_criterion_08b_ghz_total_anchor_as_pinned():
    """Pinned anchor: total flavor on the rank-one three-party state -> 3/2.

    Every extension of a rank-one state is product with the environment, so
    the objective is constant at half the unconditional total correlation:
    three unit marginal entropies minus a zero joint entropy give 3 bits, so
    the anchor is 3/2, independent of the ansatz.  The paper's key bound
    agrees: at epsilon = 0 the state is an exact private state with K = 2 and
    trivial shields, so the value is at least log2 K = 1.  The former pin 1.0
    needed a joint entropy of 1 bit, which contradicts rank one; it is half
    the total correlation of the dephased state, with no squashing at all.
    """
    # rank one: extension product with E, so the value is (1/2) * total
    # correlation = (1/2) * (S(A1) + S(A2) + S(A3) - S(A1A2A3)) = (1/2) * (3 - 0)
    forced = 3 / 2
    rep = squashed_multi_upper(ghz_state(2, 3), ["A1", "A2", "A3"], flavor="total",
                               cfg=OptimizerConfig(restarts=2, seed=SEED))
    ok = abs(rep.value - forced) < 1e-6
    report("8b", ok, f"three-party total-flavor bound {rep.value:.9f}, pinned 1.5")
    assert abs(rep.value - forced) < 1e-6


def test_criterion_08c_ghz_dual_anchor_as_pinned():
    """Pinned anchor: dual flavor on the rank-one three-party state -> 3/2.

    As in 8b the extension is product with the environment, so the objective
    is half the dual total correlation of the state itself: the joint entropy
    0 minus the sum of the three conditional entropies S(A_i | rest) = 0 - 1
    gives 3 bits, so the anchor is 3/2.  The former pin 0.5 lies below the
    paper's floor log2 K = 1 for this exact private state (K = 2, trivial
    shields), so no sound upper bound can reach it; it is half the dual total
    correlation of the dephased state.
    """
    # rank one: extension product with E, so the value is (1/2) * dual total
    # correlation = (1/2) * (S(A1A2A3) - sum_i [S(A1A2A3) - S(rest_i)])
    # = (1/2) * (0 - 3 * (0 - 1))
    forced = 3 / 2
    rep = squashed_multi_upper(ghz_state(2, 3), ["A1", "A2", "A3"], flavor="dual",
                               cfg=OptimizerConfig(restarts=2, seed=SEED))
    ok = abs(rep.value - forced) < 1e-6
    report("8c", ok, f"three-party dual-flavor bound {rep.value:.9f}, pinned 1.5")
    assert abs(rep.value - forced) < 1e-6


def test_criterion_08d_classical_correlated_anchor():
    start = time.monotonic()
    cl = dephase(max_entangled(2), ("A", "B"))
    rep = squashed_multi_upper(cl, ["A", "B"], d_env=2,
                               cfg=OptimizerConfig(restarts=8, seed=SEED))
    elapsed = time.monotonic() - start
    ok = rep.value <= 0.01 and elapsed < 60.0
    report("8d", ok, f"classical correlated bound {rep.value:.3e}, {elapsed:.1f} s, 8 restarts")
    assert rep.value <= 0.01
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 9: key-bound chain and rate arithmetic
# ---------------------------------------------------------------------------

def test_criterion_09_key_bound_end_to_end():
    res = suite_thm1(seed=SEED, tol=1e-6, restarts=1, max_iters=12)
    worst = max(r.worst for r in res.rows)
    rate = key_rate_bound(1.0, 0.01, 100)
    by_hand = 1.0 / (1 - 2 * sqrt(0.01)) + (
        2 * (1 + sqrt(0.01)) * binary_entropy(sqrt(0.01) / (1 + sqrt(0.01)))
    ) / (100 * (1 - 2 * sqrt(0.01)))
    rate_ok = abs(rate - by_hand) < 1e-12
    try:
        key_rate_bound(1.0, 0.25, 100)
        rejected = False
    except ValueError:
        rejected = True
    ok = res.passed and rate_ok and rejected
    report(9, ok, f"max chain violation {worst:.3e}; rate formula dev {abs(rate - by_hand):.1e}; "
                  f"eps=0.25 rejected: {rejected}")
    assert res.passed
    assert rate_ok
    assert rejected


# ---------------------------------------------------------------------------
# criterion 10: oracle equivalence
# ---------------------------------------------------------------------------

def _ptrace_bruteforce(mat, dims, keep):
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
            rf = cf = 0
            for d, v in zip(keep_dims, row):
                rf = rf * d + v
            for d, v in zip(keep_dims, col):
                cf = cf * d + v
            acc = 0.0
            for tr in itertools.product(*[range(d) for d in traced_dims]):
                idx_r, idx_c = [0] * n, [0] * n
                for pos, rv, cv in zip(keep, row, col):
                    idx_r[pos] = rv
                    idx_c[pos] = cv
                for pos, v in zip(traced, tr):
                    idx_r[pos] = idx_c[pos] = v
                acc += mat[flat(idx_r), flat(idx_c)]
            out[rf, cf] = acc
    return out


def test_criterion_10_oracle_equivalence():
    worst_pt = 0.0
    cases = [((2, 3, 2), (0, 2)), ((2, 3, 2), (1,)), ((2, 2, 2, 3), (0, 3)),
             ((4, 3, 2), (1, 2)), ((2, 3, 4), (2,))]
    for k, (dims, keep) in enumerate(cases):
        layout = SystemLayout([(f"S{i}", d) for i, d in enumerate(dims)])
        rho = random_density(layout, layout.total_dim, seed=SEED + k)
        got = partial_trace(rho, tuple(f"S{i}" for i in keep))
        want = _ptrace_bruteforce(rho.matrix, dims, keep)
        worst_pt = max(worst_pt, np.abs(got.matrix - want).max())

    # depolarizing channel through its dilation vs the convex combination
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    z = np.diag([1.0, -1.0]).astype(complex)
    worst_dep = 0.0
    for k, p in enumerate((0.25, 0.5, 0.9)):
        kraus = [np.sqrt(1 - 3 * p / 4) * np.eye(2), np.sqrt(p / 4) * x,
                 np.sqrt(p / 4) * y, np.sqrt(p / 4) * z]
        v = np.zeros((8, 2), dtype=complex)
        for j, kr in enumerate(kraus):
            v[2 * j: 2 * j + 2, :] = kr
        iso = Isometry(v, SystemLayout([("A", 2)]),
                       SystemLayout([("F", 4), ("A", 2)]))
        rho = random_density(SystemLayout([("A", 2)]), 2, seed=SEED + 50 + k)
        got = apply_stinespring(rho, iso, "A", discard="F")
        want = (1 - p) * rho.matrix + p * np.eye(2) / 2
        worst_dep = max(worst_dep, np.abs(got.matrix - want).max())

    ok = worst_pt < 1e-12 and worst_dep < 1e-10
    report(10, ok, f"partial-trace dev {worst_pt:.2e}; depolarizing dev {worst_dep:.2e}")
    assert worst_pt < 1e-12
    assert worst_dep < 1e-10


# ---------------------------------------------------------------------------
# criterion 11: determinism of report files
# ---------------------------------------------------------------------------

def test_criterion_11_byte_identical_reports(tmp_path):
    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    for out in (v1, v2):
        code = run_cli(["verify", "--suite", "lemmas", "--seed", "1", "--out", str(out)])
        assert code == 0
    verify_ok = v1.read_bytes() == v2.read_bytes()

    state = tmp_path / "g.state"
    run_cli(["gen", "--private", "--seed", "7", "--out", str(state)])
    e1, e2 = tmp_path / "e1.json", tmp_path / "e2.json"
    for out in (e1, e2):
        code = run_cli(["esq", "--in", str(state), "--groups", "A=A1+A1p;B=A2+A2p",
                        "--d-env", "2", "--d-sink", "2", "--restarts", "3",
                        "--iters", "40", "--seed", "5", "--out", str(out)])
        assert code == 0
    esq_ok = e1.read_bytes() == e2.read_bytes()
    report(11, verify_ok and esq_ok, f"verify identical: {verify_ok}; esq identical: {esq_ok}")
    assert verify_ok
    assert esq_ok
