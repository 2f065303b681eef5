import numpy as np
import pytest

from privsq import (
    DensityOperator,
    LayoutError,
    SystemLayout,
    binary_entropy,
    cmi_continuity,
    cond_entropy,
    cond_entropy_continuity,
    cond_mutual_info,
    dual_total_correlation,
    ghz_state,
    kron,
    max_entangled,
    random_density,
    random_pure,
    total_correlation,
    trace_distance,
    uniform_classical,
    vn_entropy,
)
from privsq.tensor import entropy_bits, reduce_matrix

H2_QUARTER = 0.8112781244591328  # -x log2 x - (1-x) log2 (1-x) at x = 1/4


def test_vn_entropy_anchors():
    lo = SystemLayout([("A", 2)])
    pure = random_pure(lo, seed=1).density()
    assert abs(vn_entropy(pure)) < 1e-12
    assert abs(vn_entropy(DensityOperator(np.eye(2) / 2, lo)) - 1.0) < 1e-12
    lo4 = SystemLayout([("A", 4)])
    assert abs(vn_entropy(DensityOperator(np.eye(4) / 4, lo4)) - 2.0) < 1e-12
    assert abs(vn_entropy(DensityOperator(np.diag([0.25, 0.75]), lo)) - H2_QUARTER) < 1e-12


def test_cond_entropy_anchors():
    phi = max_entangled(2)
    assert abs(cond_entropy(phi, "A", "B") + 1.0) < 1e-12

    prod = kron(random_pure(SystemLayout([("A", 2)]), 1).density(),
                random_pure(SystemLayout([("B", 2)]), 2).density())
    assert abs(cond_entropy(prod, "A", "B")) < 1e-12

    classical = uniform_classical(2, SystemLayout([("A", 2), ("B", 2)]))
    assert abs(cond_entropy(classical, "A", "B")) < 1e-12
    with pytest.raises(LayoutError):
        cond_entropy(phi, "A", "A")


def test_cmi_anchors():
    prod = kron(
        kron(random_density(SystemLayout([("A", 2)]), 2, 1),
             random_density(SystemLayout([("B", 2)]), 2, 2)),
        random_density(SystemLayout([("E", 2)]), 2, 3),
    )
    assert abs(cond_mutual_info(prod, "A", "B", "E")) < 1e-10

    phi_e = kron(max_entangled(2), random_density(SystemLayout([("E", 3)]), 2, 4))
    assert abs(cond_mutual_info(phi_e, "A", "B", "E") - 2.0) < 1e-10

    ghz = ghz_state(2, 3)
    assert abs(cond_mutual_info(ghz, "A1", "A2", "A3") - 1.0) < 1e-10

    # empty conditioning group: plain mutual information
    assert abs(cond_mutual_info(max_entangled(2), "A", "B") - 2.0) < 1e-10


def test_cmi_equals_cond_entropy_difference():
    layout = SystemLayout([("A", 2), ("B", 2), ("E", 2)])
    for i in range(30):
        rho = random_density(layout, (i % 8) + 1, seed=50 + i)
        lhs = cond_mutual_info(rho, "A", "B", "E")
        rhs = cond_entropy(rho, "A", "E") - cond_entropy(rho, "A", ("B", "E"))
        assert abs(lhs - rhs) < 1e-10


def test_total_correlation_anchors():
    prod = kron(
        kron(random_pure(SystemLayout([("A1", 2)]), 1).density(),
             random_pure(SystemLayout([("A2", 2)]), 2).density()),
        random_pure(SystemLayout([("A3", 2)]), 3).density(),
    )
    assert abs(total_correlation(prod, ["A1", "A2", "A3"])) < 1e-10
    assert abs(dual_total_correlation(prod, ["A1", "A2", "A3"])) < 1e-10

    # key-basis-dephased three-party correlated state: H(joint) = 1, H(i|rest) = 0
    classical = uniform_classical(2, SystemLayout([("A1", 2), ("A2", 2), ("A3", 2)]))
    assert abs(total_correlation(classical, ["A1", "A2", "A3"]) - 2.0) < 1e-10
    assert abs(dual_total_correlation(classical, ["A1", "A2", "A3"]) - 1.0) < 1e-10

    # the rank-one entangled state has H(joint) = 0 instead, so both rise to 3
    ghz = ghz_state(2, 3)
    assert abs(total_correlation(ghz, ["A1", "A2", "A3"]) - 3.0) < 1e-10
    assert abs(dual_total_correlation(ghz, ["A1", "A2", "A3"]) - 3.0) < 1e-10


def test_two_groups_reduce_to_cmi():
    layout = SystemLayout([("A", 2), ("B", 3), ("E", 2)])
    for i in range(10):
        rho = random_density(layout, (i % 12) + 1, seed=70 + i)
        cmi = cond_mutual_info(rho, "A", "B", "E")
        assert abs(total_correlation(rho, ["A", "B"], "E") - cmi) < 1e-10
        assert abs(dual_total_correlation(rho, ["A", "B"], "E") - cmi) < 1e-10


def test_group_overlap_rejected():
    rho = random_density(SystemLayout([("A", 2), ("B", 2), ("E", 2)]), 8, seed=3)
    with pytest.raises(LayoutError):
        cond_mutual_info(rho, "A", "A", "E")
    with pytest.raises(LayoutError):
        total_correlation(rho, ["A", "B"], "A")
    with pytest.raises(ValueError):
        total_correlation(rho, ["A"])


def test_dual_formula_on_random_states():
    layout = SystemLayout([("A1", 2), ("A2", 2), ("A3", 2), ("E", 2)])
    groups = ["A1", "A2", "A3"]
    for i in range(25):
        rho = random_density(layout, (i % 16) + 1, seed=90 + i)
        lhs = total_correlation(rho, groups, "E") + dual_total_correlation(rho, groups, "E")
        rhs = sum(
            cond_mutual_info(rho, g, tuple(x for x in groups if x != g), "E") for g in groups
        )
        assert abs(lhs - rhs) < 1e-8


def test_nonnegativity_of_multipartite_informations():
    layout = SystemLayout([("A1", 2), ("A2", 2), ("A3", 2), ("E", 2)])
    groups = ["A1", "A2", "A3"]
    for i in range(40):
        rho = random_density(layout, (i % 16) + 1, seed=130 + i)
        assert total_correlation(rho, groups, "E") > -1e-9
        assert dual_total_correlation(rho, groups, "E") > -1e-9


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-15
    assert abs(binary_entropy(0.25) - H2_QUARTER) < 1e-12
    with pytest.raises(ValueError):
        binary_entropy(1.2)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)


def test_continuity_values():
    # both forms vanish at zero perturbation
    assert cond_entropy_continuity(0.0, 1.0) == 0.0
    assert cmi_continuity(0.0, 1.0) == 0.0
    assert cmi_continuity(0.0, 3.0) == 0.0

    # eps = 1, log_dim = 1: g(1) = 2 h2(1/2) = 2, so 2 + 2 = 4 and 2 + 2*2 = 6
    assert cond_entropy_continuity(1.0, 1.0) == 4.0
    assert cmi_continuity(1.0, 1.0) == 6.0

    # the conditional-entropy form carries one binary-entropy term, CMI two
    eps = 0.3
    h = (1 + eps) * binary_entropy(eps / (1 + eps))
    assert abs(cond_entropy_continuity(eps, 2.0) - (2 * eps * 2.0 + h)) < 1e-12
    assert abs(cmi_continuity(eps, 2.0) - (2 * eps * 2.0 + 2 * h)) < 1e-12


def test_continuity_params_validation():
    # eps outside [0, 1] or NaN, and a negative or NaN log_dim, are refused
    bad = [(1.5, 1.0), (-0.1, 1.0), (float("nan"), 1.0), (0.1, -1.0), (0.1, float("nan"))]
    for continuity in (cond_entropy_continuity, cmi_continuity):
        for eps, log_dim in bad:
            with pytest.raises(ValueError):
                continuity(eps, log_dim)


def test_afw_bound_on_random_pairs():
    layout = SystemLayout([("A", 2), ("B", 2)])
    for i in range(60):
        rho = random_density(layout, (i % 4) + 1, seed=200 + 2 * i)
        omega = random_density(layout, ((i + 2) % 4) + 1, seed=201 + 2 * i)
        eps = min(trace_distance(rho, omega), 1.0)
        bound = cond_entropy_continuity(eps, 1.0)
        delta = abs(cond_entropy(rho, "A", "B") - cond_entropy(omega, "A", "B"))
        assert delta <= bound + 1e-9


def test_cmi_continuity_on_random_triples():
    layout = SystemLayout([("A", 2), ("B", 2), ("E", 2)])
    for i in range(60):
        rho = random_density(layout, (i % 8) + 1, seed=400 + 2 * i)
        omega = random_density(layout, ((i + 3) % 8) + 1, seed=401 + 2 * i)
        eps = min(trace_distance(rho, omega), 1.0)
        bound = cmi_continuity(eps, 1.0)
        delta = abs(cond_mutual_info(rho, "A", "B", "E") - cond_mutual_info(omega, "A", "B", "E"))
        assert delta <= bound + 1e-9


def _h(rho, labels):
    """Entropy of the marginal on ``labels``, written out from the raw cores."""
    pos = rho.layout.positions(labels)
    return entropy_bits(reduce_matrix(rho.matrix, rho.layout.dims, pos)) if pos else 0.0


def test_informations_match_written_out_entropy_sums():
    layout = SystemLayout([("A", 2), ("B", 3), ("C", 2), ("E", 2)])
    for i in range(8):
        rho = random_density(layout, (i % 24) + 1, seed=300 + i)
        for e in ((), ("E",)):
            h = lambda *labels: _h(rho, tuple(labels) + e)
            assert abs(cond_entropy(rho, ("A", "B"), e) - (h("A", "B") - h())) < 1e-12
            cmi = h("A") + h("B") - h() - h("A", "B")
            assert abs(cond_mutual_info(rho, "A", "B", e) - cmi) < 1e-12
            assert abs(total_correlation(rho, ["A", "B"], e) - cmi) < 1e-12
            assert abs(dual_total_correlation(rho, ["A", "B"], e) - cmi) < 1e-12
            total = h("A") + h("B") + h("C") - 2 * h() - h("A", "B", "C")
            assert abs(total_correlation(rho, ["A", "B", "C"], e) - total) < 1e-12
            dual = h("B", "C") + h("A", "C") + h("A", "B") - 2 * h("A", "B", "C") - h()
            assert abs(dual_total_correlation(rho, ["A", "B", "C"], e) - dual) < 1e-12
