"""The suite registry: refusal of empty ensembles, the seed contract of
the random-state ensembles, every suite's rows pinned at fixed seeds, and
the lemmas suite's batching pinned from its dims."""

import inspect
from math import prod

import numpy as np
import pytest

from privsq.layout import SystemLayout
from privsq.private_states import _identity_terms
from privsq.suites import SUITES, _random_states, suite_lemmas
from privsq.tensor import random_density


@pytest.mark.parametrize("name", [n for n, fn in SUITES.items()
                                  if "instances" in inspect.signature(fn).parameters])
@pytest.mark.parametrize("instances", (0, -3))
def test_suites_refuse_empty_ensembles(name, instances):
    # a suite over no instances would report pass having checked nothing
    with pytest.raises(ValueError, match=f"must be at least 1, got {instances}"):
        SUITES[name](instances=instances)


@pytest.mark.parametrize("shifts, seeds, ranks", [
    ((0,), [[5], [6], [7], [8], [9]], [[1], [2], [3], [4], [1]]),
    ((0, 3), [[5, 6], [7, 8], [9, 10], [11, 12], [13, 14]],
     [[1, 4], [2, 1], [3, 2], [4, 3], [1, 4]]),
])
def test_random_states_follow_the_seed_contract(shifts, seeds, ranks):
    # instance i: seed + i alone, or seed + 2i and seed + 2i + 1 as a pair,
    # the j-th state at rank (i + shifts[j]) mod d + 1
    layout = SystemLayout((("A", 2), ("B", 2)))
    drawn = list(_random_states(layout, 5, 5, shifts))
    assert [len(states) for states in drawn] == [len(shifts)] * 5
    for states, instance_seeds, instance_ranks in zip(drawn, seeds, ranks):
        for rho, seed, rank in zip(states, instance_seeds, instance_ranks):
            assert np.array_equal(rho.matrix, random_density(layout, rank, seed).matrix)


# The worst violations at the default instance counts and seed 1, as each
# suite computed them before its random states were drawn in one place.
SUITES_WORST = {
    "ssa": (0.0, 0.0),
    "chain": (1.7763568394002505e-15, 2.220446049250313e-15),
    "dual": (1.7763568394002505e-15, 0.0),
    "fvg": (0.0, 0.0, 0.0),
    "continuity": (0.0, 0.0, 0.0),
}


@pytest.mark.parametrize("name", sorted(SUITES_WORST))
def test_random_state_suites_rows_at_seed_1(name):
    result = SUITES[name](seed=1)
    assert result.passed and result.seed == 1
    assert tuple(row.worst for row in result.rows) == SUITES_WORST[name]


# The worst residuals at the default 100 + 25 instances, as the per-instance
# evaluation (one purification and one residual call per spec) gave them.
# Batching the ensemble diagonalizes the same matrices in other stacks, so
# only the noise digits may move.
LEMMAS_WORST = {
    0: (2.6645352591003757e-15, 2.6645352591003757e-15, 4.884981308350689e-15,
        5.329070518200751e-15),
    1: (3.3306690738754696e-15, 3.3306690738754696e-15, 6.661338147750939e-15,
        7.993605777301127e-15),
    7: (3.9968028886505635e-15, 3.9968028886505635e-15, 5.329070518200751e-15,
        4.440892098500626e-15),
}


@pytest.mark.parametrize("seed", sorted(LEMMAS_WORST))
def test_suite_lemmas_rows_at_fixed_seeds(seed):
    result = suite_lemmas(seed=seed)
    assert result.passed and result.seed == seed
    assert [(r.identity, r.instances, r.tol) for r in result.rows] == [
        ("bipartite key identity", 100, 1e-7),
        ("bipartite joint-cmi identity", 100, 1e-7),
        ("multipartite total identity", 25, 1e-6),
        ("multipartite dual identity", 25, 1e-6),
    ]
    for row, expect in zip(result.rows, LEMMAS_WORST[seed]):
        assert abs(row.worst - expect) < 1e-14, row.identity


def test_suite_lemmas_batching_counts_follow_from_the_dims(monkeypatch):
    """One stacked ``eigh`` purifies the shield states of each party count,
    and one stacked ``eigvalsh`` per rank and Gram size gives every marginal
    of every instance.  Instance ``i`` has shield rank ``i % ranks + 1`` and
    layout (R: rank, keys, shields, E), all but R qubits, so ``D = r
    2^(2m+1)``; a marginal ``X`` is read on its smaller side,
    ``min(d_X, D / d_X)``.  Both counts follow from the identities' marginals
    and these dims alone."""
    eigvalsh, eigh, calls, matrices, purified = np.linalg.eigvalsh, np.linalg.eigh, [], [], []

    def counted_eigvalsh(a, *args, **kwargs):
        calls.append(a.shape[-1])
        matrices.extend([a.shape[-1]] * prod(a.shape[:-2]))
        return eigvalsh(a, *args, **kwargs)

    def counted_eigh(a, *args, **kwargs):
        purified.append(a.shape[-1])
        return eigh(a, *args, **kwargs)

    want_calls = want_matrices = 0
    for parties, count, ranks in ((2, 100, 8), (3, 25, 16)):
        keys = tuple(f"A{i + 1}" for i in range(parties))
        shields = tuple(f"{k}p" for k in keys)
        layout = SystemLayout((lbl, 2) for lbl in ("R",) + keys + shields + ("E",))
        marginals = _identity_terms(layout, keys, shields, ("E",))[1]  # axes, all qubits
        want_matrices += count * len(marginals)
        for r in {i % ranks + 1 for i in range(count)}:
            dim = r * 2 ** (2 * parties + 1)
            want_calls += len({min(2 ** len(x), dim // 2 ** len(x)) for x in marginals})
    assert (want_calls, want_matrices) == (121, 950)  # 950 = 100 * 6 + 25 * 14

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    assert suite_lemmas(seed=1).passed
    assert (len(calls), len(matrices)) == (want_calls, want_matrices)
    assert purified == [8, 16]  # shields and E: 2^(m+1) at two and three parties


def test_suite_lemmas_factors_every_control_in_one_qr_per_party_count(monkeypatch):
    """Each party count draws its specs as one batch, whose ``K`` kept Haar
    controls per instance are factored by one stacked QR: at ``K = 2``, ``100
    K`` and ``25 K`` matrices in two calls, where a draw per spec made 125."""
    qr, calls = np.linalg.qr, []

    def counted_qr(a, *args, **kwargs):
        calls.append(prod(a.shape[:-2]))
        return qr(a, *args, **kwargs)

    key_dim, counts = 2, (100, 25)
    want = [count * key_dim for count in counts]
    assert (len(want), sum(want)) == (2, 250)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    assert suite_lemmas(seed=1).passed
    assert calls == want
