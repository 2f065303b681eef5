"""Verification suites: seeded random ensembles checked against exact
identities and inequalities.

Each suite returns a :class:`SuiteResult` whose rows record the worst
violation found (for identities: the residual; for inequalities: the amount
by which they failed, zero when satisfied).  A row passes when that number
stays at or below its tolerance.  Instance ``i`` of a suite derives its
seed as ``seed + i`` (pairs use ``seed + 2i`` and ``seed + 2i + 1``), so
results are reproducible and independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2, sqrt

from .entropy import (
    ContinuityParams,
    KIND_COND_ENTROPY,
    KIND_COND_MUTUAL_INFO,
    KIND_KEY_BIPARTITE,
    cond_entropy,
    cond_mutual_info,
    continuity_bound,
    dual_total_correlation,
    total_correlation,
)
from .layout import SystemLayout
from .metric import fidelity, trace_distance
from .private_states import (
    approx_private_state,
    private_state_extension,
    random_private_spec,
    uniform_classical,
)
from .squashed import OptimizerConfig, private_identity_residual, squashed_upper
from .tensor import random_density


@dataclass(frozen=True)
class SuiteRow:
    identity: str
    instances: int
    worst: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "instances": self.instances,
            "max_residual": self.worst,
            "tolerance": self.tol,
            "pass": self.passed,
        }


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


def suite_lemmas(instances: int = 100, seed: int = 0, tol: float = 1e-7) -> SuiteResult:
    """Residuals of the four private-state identities on random extensions
    (two parties: K=2, qubit shields, qubit extension; three parties same,
    on a quarter as many instances).  The bipartite rows are held to
    ``tol`` and the larger three-party states to ``10 * tol``."""
    multi_instances = max(instances // 4, 1)
    worst: dict[str, float] = {}
    for parties, count, offset, ranks, kinds in (
        (2, instances, 0, 8, ("bipartite", "bipartite_joint")),
        (3, multi_instances, 10_000, 16, ("multi_total", "multi_dual")),
    ):
        for i in range(count):
            spec = random_private_spec(2, (2,) * parties, seed=seed + offset + i, ext_dim=2,
                                       sigma_rank=_cycle_rank(i, ranks))
            residuals = private_identity_residual(
                private_state_extension(spec), spec.key_labels, spec.shield_labels)
            for kind in kinds:
                worst[kind] = max(worst.get(kind, 0.0), residuals[kind])
    rows = (
        SuiteRow("bipartite key identity", instances, worst["bipartite"], tol),
        SuiteRow("bipartite joint-cmi identity", instances, worst["bipartite_joint"], tol),
        SuiteRow("multipartite total identity", multi_instances, worst["multi_total"], 10 * tol),
        SuiteRow("multipartite dual identity", multi_instances, worst["multi_dual"], 10 * tol),
    )
    return SuiteResult("lemmas", seed, rows)


def suite_ssa(
    instances: int = 500,
    seed: int = 0,
    instances_232: int = 200,
    tol: float = 1e-9,
) -> SuiteResult:
    """Non-negativity of conditional mutual information on random tripartite
    states with dims (2,2,2) and (2,3,2)."""
    rows = []
    for dims, count, tag in (((2, 2, 2), instances, "dims 2x2x2"), ((2, 3, 2), instances_232, "dims 2x3x2")):
        layout = SystemLayout((("A", dims[0]), ("B", dims[1]), ("E", dims[2])))
        d = layout.total_dim
        violation = 0.0
        for i in range(count):
            rho = random_density(layout, _cycle_rank(i, d), seed + i)
            violation = max(violation, -cond_mutual_info(rho, "A", "B", "E"))
        rows.append(SuiteRow(f"cmi >= 0, {tag}", count, violation, tol))
    return SuiteResult("ssa", seed, tuple(rows))


def suite_chain(instances: int = 100, seed: int = 0, tol: float = 1e-8) -> SuiteResult:
    """Both chain rules for the multipartite informations on random states
    over B, A1..A3, E (all qubits)."""
    layout = SystemLayout((("B", 2), ("A1", 2), ("A2", 2), ("A3", 2), ("E", 2)))
    d = layout.total_dim
    groups = ["A1", "A2", "A3"]
    worst_total, worst_dual = 0.0, 0.0
    for i in range(instances):
        rho = random_density(layout, _cycle_rank(i, d), seed + i)
        lhs = total_correlation(rho, [("B", "A1"), "A2", "A3"], "E")
        rhs = total_correlation(rho, groups, ("B", "E"))
        rhs += sum(cond_mutual_info(rho, "B", g, "E") for g in ("A2", "A3"))
        worst_total = max(worst_total, abs(lhs - rhs))
        lhs = dual_total_correlation(rho, [("B", "A1"), "A2", "A3"], "E")
        rhs = dual_total_correlation(rho, groups, ("B", "E"))
        rhs += cond_mutual_info(rho, "B", ("A2", "A3"), "E")
        worst_dual = max(worst_dual, abs(lhs - rhs))
    rows = (
        SuiteRow("total-correlation chain rule", instances, worst_total, tol),
        SuiteRow("dual-correlation chain rule", instances, worst_dual, tol),
    )
    return SuiteResult("chain", seed, rows)


def suite_dual(
    instances: int = 100, seed: int = 0, tol: float = 1e-8, tol_anchor: float = 1e-10
) -> SuiteResult:
    """The dual formula (total + dual = sum of one-vs-rest cmi) on random
    4-partite qubit states, plus the exact anchor on the key-basis-dephased
    three-party maximally correlated state (2 + 1 = 3)."""
    layout = SystemLayout((("A1", 2), ("A2", 2), ("A3", 2), ("E", 2)))
    d = layout.total_dim
    groups = ["A1", "A2", "A3"]
    worst = 0.0
    for i in range(instances):
        rho = random_density(layout, _cycle_rank(i, d), seed + i)
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
        SuiteRow("dual formula", instances, worst, tol),
        SuiteRow("dephased-GHZ anchor 2 + 1 = 3", 1, anchor_res, tol_anchor),
    )
    return SuiteResult("dual", seed, rows)


def suite_fvg(instances: int = 500, seed: int = 0, tol: float = 1e-9) -> SuiteResult:
    """Fuchs-van de Graaf: 1 - sqrt(F) <= T <= sqrt(1 - F) on random pairs
    per dimension d in {2, 3, 4}."""
    rows = []
    for d in (2, 3, 4):
        layout = SystemLayout((("A", d),))
        violation = 0.0
        for i in range(instances):
            rho = random_density(layout, _cycle_rank(i, d), seed + 2 * i)
            sig = random_density(layout, _cycle_rank(i + 1, d), seed + 2 * i + 1)
            td = trace_distance(rho, sig)
            f = fidelity(rho, sig)
            violation = max(violation, (1.0 - sqrt(f)) - td, td - sqrt(max(1.0 - f, 0.0)))
        rows.append(SuiteRow(f"fuchs-van de graaf, d={d}", instances, violation, tol))
    return SuiteResult("fvg", seed, tuple(rows))


def suite_continuity(instances: int = 200, seed: int = 0, tol: float = 1e-9) -> SuiteResult:
    """Entropy continuity bounds at the measured trace distance: conditional
    entropy on (2,2) and (3,2) pairs, conditional mutual information on
    (2,2,2) triples."""
    rows = []
    for d_a, d_b in ((2, 2), (3, 2)):
        layout = SystemLayout((("A", d_a), ("B", d_b)))
        d = layout.total_dim
        violation = 0.0
        for i in range(instances):
            rho = random_density(layout, _cycle_rank(i, d), seed + 2 * i)
            omega = random_density(layout, _cycle_rank(i + 3, d), seed + 2 * i + 1)
            eps = min(trace_distance(rho, omega), 1.0)
            bound = continuity_bound(ContinuityParams(KIND_COND_ENTROPY, eps, log2(d_a)))
            delta = abs(cond_entropy(rho, "A", "B") - cond_entropy(omega, "A", "B"))
            violation = max(violation, delta - bound)
        rows.append(SuiteRow(f"cond-entropy continuity, dims {d_a}x{d_b}", instances, violation, tol))

    layout = SystemLayout((("A", 2), ("B", 2), ("E", 2)))
    d = layout.total_dim
    violation = 0.0
    for i in range(instances):
        rho = random_density(layout, _cycle_rank(i, d), seed + 2 * i)
        omega = random_density(layout, _cycle_rank(i + 3, d), seed + 2 * i + 1)
        eps = min(trace_distance(rho, omega), 1.0)
        bound = continuity_bound(ContinuityParams(KIND_COND_MUTUAL_INFO, eps, 1.0))
        delta = abs(cond_mutual_info(rho, "A", "B", "E") - cond_mutual_info(omega, "A", "B", "E"))
        violation = max(violation, delta - bound)
    rows.append(SuiteRow("cmi continuity, dims 2x2x2", instances, violation, tol))
    return SuiteResult("continuity", seed, tuple(rows))


def suite_thm1(
    noise_levels: tuple[float, ...] = (0.01, 0.05, 0.1, 0.001),
    seed: int = 0,
    tol: float = 1e-6,
    restarts: int = 1,
    max_iters: int = 12,
    d_env: int = 4,
    d_sink: int = 4,
) -> SuiteResult:
    """End-to-end key-bound chain: for noisy two-party private states, the
    optimized squashed extension must satisfy
    ``2 log2 K <= I(AA';BB'|E) + 2 f(sqrt(eps), K)`` with the measured
    fidelity deficit ``eps``.  At seed 0, ``log2 K - f(sqrt(eps), K)`` is
    negative at the first three default noise levels, so those rows hold for
    any non-negative bound; at noise 0.001 (``eps`` = 7.7e-4) it is +0.58
    bits, so that row fails for any bound below it."""
    rows = []
    for k, p in enumerate(noise_levels):
        spec = random_private_spec(2, (2, 2), seed=seed + k)
        omega, eps = approx_private_state(spec, p, seed=seed + 1000 + k)
        cfg = OptimizerConfig(restarts=restarts, max_iters=max_iters, seed=seed + k)
        rep = squashed_upper(
            omega,
            (spec.key_labels[0], spec.shield_labels[0]),
            (spec.key_labels[1], spec.shield_labels[1]),
            d_env=d_env,
            d_sink=d_sink,
            cfg=cfg,
        )
        f1 = continuity_bound(ContinuityParams(KIND_KEY_BIPARTITE, sqrt(eps), log2(2)))
        violation = 2.0 * log2(2) - (2.0 * rep.value + 2.0 * f1)
        rows.append(SuiteRow(f"key-bound chain, noise {p}", 1, max(violation, 0.0), tol))
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
