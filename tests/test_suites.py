"""The suite registry: refusal of empty ensembles and the lemmas suite's
rows pinned at fixed seeds."""

import inspect

import pytest

from privsq.suites import SUITES, suite_lemmas


@pytest.mark.parametrize("name", [n for n, fn in SUITES.items()
                                  if "instances" in inspect.signature(fn).parameters])
@pytest.mark.parametrize("instances", (0, -3))
def test_suites_refuse_empty_ensembles(name, instances):
    # a suite over no instances would report pass having checked nothing
    with pytest.raises(ValueError, match=f"must be at least 1, got {instances}"):
        SUITES[name](instances=instances)


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
