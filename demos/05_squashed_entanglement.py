"""Variational upper bounds on squashed entanglement, the identity residuals
behind the key bounds, and the bound arithmetic itself.

Run with: python demos/05_squashed_entanglement.py
"""

from math import log2, sqrt

import numpy as np

from privsq import (
    Isometry,
    OptimizerConfig,
    SystemLayout,
    binary_entropy,
    channel_squashed_upper,
    dephase,
    extend_by_squashing,
    cond_mutual_info,
    key_length_bound,
    key_rate_bound,
    max_entangled,
    private_identity_residual,
    private_state,
    private_state_extension,
    random_private_spec,
    squashed_multi_upper,
)
from privsq.private_states import approx_private_state

print("-" * 70)
print("Upper bounds from squashing channels")
print("-" * 70)
phi = max_entangled(2)
rep = squashed_multi_upper(phi, ["A", "B"], cfg=OptimizerConfig(restarts=2, seed=0))
print(f"maximally entangled pair: {rep.value:.6f} (pure input forces a product extension)")

cl = dephase(phi, ("A", "B"))
rep = squashed_multi_upper(cl, ["A", "B"], d_env=2, cfg=OptimizerConfig(restarts=8, seed=0))
print(f"classically correlated:   {rep.value:.2e} (a copy extension squashes everything)")

print()
print("-" * 70)
print("Identity residuals on random private-state extensions")
print("-" * 70)
spec = random_private_spec(2, (2, 2), seed=1, ext_dim=2)
residuals = private_identity_residual(
    private_state_extension(spec), spec.key_labels, spec.shield_labels, "E"
)
for kind in ("bipartite", "bipartite_joint"):
    print(f"  {kind:16s} residual = {residuals[kind]:.2e}")

print()
print("-" * 70)
print("Key bounds for approximate private states")
print("-" * 70)
spec = random_private_spec(2, (2, 2), seed=2)
omega, eps = approx_private_state(private_state(spec), 0.05, seed=3)
rep = squashed_multi_upper(
    omega, [("A1", "A1p"), ("A2", "A2p")], d_env=4, d_sink=4,
    cfg=OptimizerConfig(restarts=1, max_iters=15, seed=4),
)
ext = extend_by_squashing(omega, rep.ansatz)
cmi = cond_mutual_info(ext, ("A1", "A1p"), ("A2", "A2p"), "E")
f1 = 2 * sqrt(eps) * log2(2) + 2 * (1 + sqrt(eps)) * binary_entropy(sqrt(eps) / (1 + sqrt(eps)))
print(f"noise eps = {eps:.4f}: 2 log2 K = 2 <= I(AA';BB'|E) + 2 f = "
      f"{cmi:.4f} + {2 * f1:.4f} = {cmi + 2 * f1:.4f}")
print(f"key-length bound rhs: {key_length_bound(rep.value, eps, 2):.4f} (vs log2 K = 1)")
print(f"finite-round rate bound (esq=1, eps=0.01, n=100): "
      f"{key_rate_bound(1.0, 0.01, 100):.6f}")

print()
print("-" * 70)
print("Channel quantity (heuristic: alternating ascent/descent)")
print("-" * 70)
ident = Isometry(np.eye(2), SystemLayout([("Ain", 2)]), SystemLayout([("B", 2)]))
rep = channel_squashed_upper(ident, d_env=2, d_sink=2,
                             cfg=OptimizerConfig(restarts=2, max_iters=150, seed=5))
print(f"identity qubit channel: {rep.value:.5f} (heuristic flag: {rep.heuristic})")
