"""Verification suites: seeded random ensembles checked against exact
identities and inequalities.

Each suite returns a :class:`SuiteResult` whose rows record the worst
violation found (for identities: the residual; for inequalities: the amount
by which they failed, zero when satisfied).  A row passes when that number
stays at or below the row's fixed tolerance.  Instance ``i`` derives its
seed as ``seed + i`` (pairs use ``seed + 2i`` and ``seed + 2i + 1``), so
results are reproducible and independent of execution order; the suites of
random states draw them in one place, :func:`_random_states`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2, sqrt

from .entropy import (
    cmi_continuity,
    cond_entropy,
    cond_entropy_continuity,
    cond_mutual_info,
    dual_total_correlation,
    total_correlation,
)
from .layout import SystemLayout
from .metric import fidelity, trace_distance
from .private_states import (
    _identity_residuals,
    _random_purified_groups,
    approx_private_state,
    default_key_labels,
    default_shield_labels,
    private_state,
    random_private_spec,
    uniform_classical,
)
from .squashed import OptimizerConfig, key_length_bound, squashed_multi_upper
from .tensor import random_density


@dataclass(frozen=True)
class SuiteRow:
    identity: str
    instances: int
    worst: float
    tol: float
    grad_norm: float | None = None  # of the reported restart, in rows that ran a search

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol

    def to_dict(self) -> dict:
        searched = {} if self.grad_norm is None else {"grad_norm": self.grad_norm}
        return {
            "identity": self.identity,
            "instances": self.instances,
            "max_residual": self.worst,
            "tolerance": self.tol,
            "pass": self.passed,
        } | searched


@dataclass(frozen=True)
class SuiteResult:
    name: str
    seed: int
    rows: tuple[SuiteRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "suite": self.name,
            "seed": self.seed,
            "rows": [r.to_dict() for r in self.rows],
            "pass": self.passed,
        }


def _cycle_rank(i: int, d: int) -> int:
    return (i % d) + 1


def _check_instances(instances: int) -> None:
    """Refuse an ensemble that would check nothing and still pass."""
    if instances < 1:
        raise ValueError(f"verify --instances must be at least 1, got {instances}")


def _random_states(layout: SystemLayout, instances: int, seed: int, shifts: tuple[int, ...] = (0,)):
    """Per instance ``i``, one state on ``layout`` per rank shift: the
    ``j``-th from seed ``seed + len(shifts) i + j`` (``seed + i`` alone, a
    pair from ``seed + 2i`` and ``seed + 2i + 1``) at rank ``(i + shifts[j])
    mod d + 1``.  Refuses an empty ensemble before any draw."""
    _check_instances(instances)
    d, step = layout.total_dim, len(shifts)
    return ([random_density(layout, _cycle_rank(i + shift, d), seed + step * i + j)
             for j, shift in enumerate(shifts)] for i in range(instances))


def suite_lemmas(instances: int = 100, seed: int = 0) -> SuiteResult:
    """Residuals of the four private-state identities on random extensions
    (two parties: K=2, qubit shields, qubit extension; three parties same,
    on a quarter as many instances).  The bipartite rows are held to 1e-7
    and the larger three-party states to 1e-6.  Instance ``i`` is the
    extension ``private_state(random_private_spec(seed + i))`` at shield
    rank ``i % 8 + 1`` (three parties: seed ``seed + 10_000 + i``, rank ``i
    % 16 + 1``), so the seed contract is unchanged.  Each extension enters
    as a purification, so no matrix of its dimension is formed, and that
    purification is read off the draw: ``sigma = G G^dag / Tr`` for the
    Ginibre matrix ``G`` of the instance, so ``F = G / ||G||_F`` is a square
    root of ``sigma`` and purifies it (``_random_purified_groups``), where
    :func:`~privsq.private_states.purify_private_state` diagonalizes
    ``sigma``.  No shield state, spec or ``eigh`` call is made.  The work is
    batched per party count (one draw of all its instances, whose controls
    take one stacked QR: two ``qr`` calls for the default 250) and per
    shield rank, which fixes the layout (one stacked twist, and one stacked
    ``eigvalsh`` per Gram size over every instance of that rank).  At two
    parties the four identities are one entropy sum, as ``I(AA';BB'|E) -
    I(A';B'|AE) = I(A;BB'|E) + I(A';B|AB'E)`` by the chain rule, so the two
    bipartite rows always read the same residual."""
    _check_instances(instances)
    multi_instances = max(instances // 4, 1)
    worst: dict[str, float] = {}
    for parties, count, offset, ranks, kinds in (
        (2, instances, 0, 8, ("bipartite", "bipartite_joint")),
        (3, multi_instances, 10_000, 16, ("multi_total", "multi_dual")),
    ):
        groups = _random_purified_groups(2, (2,) * parties,
                                         [seed + offset + i for i in range(count)],
                                         [_cycle_rank(i, ranks) for i in range(count)], ext_dim=2)
        for _, amplitudes, layout in groups:
            names, residuals = _identity_residuals(amplitudes, layout, default_key_labels(parties),
                                                   default_shield_labels(parties), ("E",))
            for name, column in zip(names, residuals.T):
                if name in kinds:
                    worst[name] = max(worst.get(name, 0.0), float(column.max()))
    rows = (
        SuiteRow("bipartite key identity", instances, worst["bipartite"], 1e-7),
        SuiteRow("bipartite joint-cmi identity", instances, worst["bipartite_joint"], 1e-7),
        SuiteRow("multipartite total identity", multi_instances, worst["multi_total"], 1e-6),
        SuiteRow("multipartite dual identity", multi_instances, worst["multi_dual"], 1e-6),
    )
    return SuiteResult("lemmas", seed, rows)


def suite_ssa(instances: int = 500, seed: int = 0) -> SuiteResult:
    """Non-negativity of conditional mutual information on random tripartite
    states with dims (2,2,2) (``instances`` of them) and (2,3,2) (200)."""
    rows = []
    for dims, count, tag in (((2, 2, 2), instances, "dims 2x2x2"), ((2, 3, 2), 200, "dims 2x3x2")):
        layout = SystemLayout((("A", dims[0]), ("B", dims[1]), ("E", dims[2])))
        violation = 0.0
        for (rho,) in _random_states(layout, count, seed):
            violation = max(violation, -cond_mutual_info(rho, "A", "B", "E"))
        rows.append(SuiteRow(f"cmi >= 0, {tag}", count, violation, 1e-9))
    return SuiteResult("ssa", seed, tuple(rows))


def suite_chain(instances: int = 100, seed: int = 0) -> SuiteResult:
    """Both chain rules for the multipartite informations on random states
    over B, A1..A3, E (all qubits)."""
    layout = SystemLayout((("B", 2), ("A1", 2), ("A2", 2), ("A3", 2), ("E", 2)))
    groups = ["A1", "A2", "A3"]
    worst_total, worst_dual = 0.0, 0.0
    for (rho,) in _random_states(layout, instances, seed):
        lhs = total_correlation(rho, [("B", "A1"), "A2", "A3"], "E")
        rhs = total_correlation(rho, groups, ("B", "E"))
        rhs += sum(cond_mutual_info(rho, "B", g, "E") for g in ("A2", "A3"))
        worst_total = max(worst_total, abs(lhs - rhs))
        lhs = dual_total_correlation(rho, [("B", "A1"), "A2", "A3"], "E")
        rhs = dual_total_correlation(rho, groups, ("B", "E"))
        rhs += cond_mutual_info(rho, "B", ("A2", "A3"), "E")
        worst_dual = max(worst_dual, abs(lhs - rhs))
    rows = (
        SuiteRow("total-correlation chain rule", instances, worst_total, 1e-8),
        SuiteRow("dual-correlation chain rule", instances, worst_dual, 1e-8),
    )
    return SuiteResult("chain", seed, rows)


def suite_dual(instances: int = 100, seed: int = 0) -> SuiteResult:
    """The dual formula (total + dual = sum of one-vs-rest cmi) on random
    4-partite qubit states, plus the exact anchor on the key-basis-dephased
    three-party maximally correlated state (2 + 1 = 3), held to 1e-10."""
    layout = SystemLayout((("A1", 2), ("A2", 2), ("A3", 2), ("E", 2)))
    groups = ["A1", "A2", "A3"]
    worst = 0.0
    for (rho,) in _random_states(layout, instances, seed):
        lhs = total_correlation(rho, groups, "E") + dual_total_correlation(rho, groups, "E")
        rhs = 0.0
        for g in groups:
            rest = tuple(x for x in groups if x != g)
            rhs += cond_mutual_info(rho, g, rest, "E")
        worst = max(worst, abs(lhs - rhs))

    anchor = uniform_classical(2, SystemLayout((("A1", 2), ("A2", 2), ("A3", 2))))
    tc = total_correlation(anchor, groups[:3])
    dc = dual_total_correlation(anchor, groups[:3])
    cross = sum(
        cond_mutual_info(anchor, g, tuple(x for x in groups if x != g)) for g in groups
    )
    anchor_res = max(abs(tc - 2.0), abs(dc - 1.0), abs(tc + dc - cross), abs(cross - 3.0))
    rows = (
        SuiteRow("dual formula", instances, worst, 1e-8),
        SuiteRow("dephased-GHZ anchor 2 + 1 = 3", 1, anchor_res, 1e-10),
    )
    return SuiteResult("dual", seed, rows)


def suite_fvg(instances: int = 500, seed: int = 0) -> SuiteResult:
    """Fuchs-van de Graaf: 1 - sqrt(F) <= T <= sqrt(1 - F) on random pairs
    per dimension d in {2, 3, 4}."""
    rows = []
    for d in (2, 3, 4):
        layout = SystemLayout((("A", d),))
        violation = 0.0
        for rho, sig in _random_states(layout, instances, seed, (0, 1)):
            td = trace_distance(rho, sig)
            f = fidelity(rho, sig)
            violation = max(violation, (1.0 - sqrt(f)) - td, td - sqrt(max(1.0 - f, 0.0)))
        rows.append(SuiteRow(f"fuchs-van de graaf, d={d}", instances, violation, 1e-9))
    return SuiteResult("fvg", seed, tuple(rows))


def suite_continuity(instances: int = 200, seed: int = 0) -> SuiteResult:
    """Entropy continuity bounds at the measured trace distance: conditional
    entropy on (2,2) and (3,2) pairs, conditional mutual information on
    (2,2,2) triples."""
    cases = (
        ("cond-entropy continuity, dims 2x2", (("A", 2), ("B", 2)), cond_entropy,
         ("A", "B"), cond_entropy_continuity, 1.0),
        ("cond-entropy continuity, dims 3x2", (("A", 3), ("B", 2)), cond_entropy,
         ("A", "B"), cond_entropy_continuity, log2(3)),
        ("cmi continuity, dims 2x2x2", (("A", 2), ("B", 2), ("E", 2)), cond_mutual_info,
         ("A", "B", "E"), cmi_continuity, 1.0),
    )
    rows = []
    for name, systems, quantity, groups, continuity, log_dim in cases:
        layout = SystemLayout(systems)
        violation = 0.0
        for rho, omega in _random_states(layout, instances, seed, (0, 3)):
            eps = min(trace_distance(rho, omega), 1.0)
            delta = abs(quantity(rho, *groups) - quantity(omega, *groups))
            violation = max(violation, delta - continuity(eps, log_dim))
        rows.append(SuiteRow(name, instances, violation, 1e-9))
    return SuiteResult("continuity", seed, tuple(rows))


def suite_thm1(seed: int = 0) -> SuiteResult:
    """End-to-end key-bound chain: for noisy two-party private states, the
    optimized squashed extension (``d_env = d_sink = 4``, one restart of 12
    iterations) must satisfy ``2 log2 K <= I(AA';BB'|E) + 2 f(sqrt(eps),
    K)`` with the measured fidelity deficit ``eps``.  At seed 0, ``log2 K -
    f(sqrt(eps), K)`` is negative at the first three noise levels, so those
    rows hold for any non-negative bound; at noise 0.001 (``eps`` = 7.7e-4)
    it is +0.58 bits, so that row fails for any bound below it."""
    rows = []
    for k, p in enumerate((0.01, 0.05, 0.1, 0.001)):
        spec = random_private_spec(2, (2, 2), seed=seed + k)
        omega, eps = approx_private_state(private_state(spec), p, seed=seed + 1000 + k)
        cfg = OptimizerConfig(restarts=1, max_iters=12, seed=seed + k)
        rep = squashed_multi_upper(omega, list(zip(spec.key_labels, spec.shield_labels)),
                                   d_env=4, d_sink=4, cfg=cfg)
        violation = 2.0 * log2(2) - 2.0 * key_length_bound(rep.value, eps, 2)
        rows.append(SuiteRow(f"key-bound chain, noise {p}", 1, max(violation, 0.0), 1e-6,
                             rep.restarts[rep.best_restart].grad_norm))
    return SuiteResult("thm1", seed, tuple(rows))


SUITES = {
    "lemmas": suite_lemmas,
    "ssa": suite_ssa,
    "chain": suite_chain,
    "dual": suite_dual,
    "fvg": suite_fvg,
    "continuity": suite_continuity,
    "thm1": suite_thm1,
}


__all__ = ["SuiteRow", "SuiteResult", "SUITES"] + [f"suite_{k}" for k in SUITES]
