"""Conditional entropies, the two multipartite informations, and the
continuity bounds that control them under perturbations.

Run with: python demos/03_entropies_and_continuity.py
"""

from math import log2

from privsq import (
    SystemLayout,
    cmi_continuity,
    cond_entropy,
    cond_entropy_continuity,
    cond_mutual_info,
    dual_total_correlation,
    ghz_state,
    max_entangled,
    random_density,
    total_correlation,
    trace_distance,
    uniform_classical,
    vn_entropy,
)

phi = max_entangled(2)
print("maximally entangled pair:")
print(f"  H(AB) = {vn_entropy(phi):.3f},  H(A|B) = {cond_entropy(phi, 'A', 'B'):.3f}")
print(f"  I(A;B) = {cond_mutual_info(phi, 'A', 'B'):.3f}  (= 2 log2 K)")

print()
ghz = ghz_state(2, 3)
labels = ["A1", "A2", "A3"]
print("three-party rank-one correlated state vs its key-basis dephasing:")
cl = uniform_classical(2, SystemLayout([(l, 2) for l in labels]))
for name, state in (("rank-one", ghz), ("dephased", cl)):
    tc = total_correlation(state, labels)
    dc = dual_total_correlation(state, labels)
    cross = sum(
        cond_mutual_info(state, g, tuple(x for x in labels if x != g)) for g in labels
    )
    print(f"  {name:9s} total = {tc:.3f}, dual = {dc:.3f}, "
          f"sum of one-vs-rest = {cross:.3f} (dual formula: {tc + dc:.3f})")

print()
print("continuity: how much can H(A|B) move within trace distance eps?")
layout = SystemLayout([("A", 2), ("B", 2)])
rho = random_density(layout, rank=4, seed=20)
omega = random_density(layout, rank=2, seed=21)
eps = trace_distance(rho, omega)
delta = abs(cond_entropy(rho, "A", "B") - cond_entropy(omega, "A", "B"))
bound = cond_entropy_continuity(eps, log2(2))
print(f"  measured eps = {eps:.4f}")
print(f"  |Delta H(A|B)| = {delta:.4f}  <=  bound {bound:.4f}")

delta_i = abs(
    cond_mutual_info(rho, "A", "B") - cond_mutual_info(omega, "A", "B")
)
bound_i = cmi_continuity(eps, log2(2))
print(f"  |Delta I(A;B)|  = {delta_i:.4f}  <=  bound {bound_i:.4f}")
