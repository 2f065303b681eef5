"""Private states: twisted entangled states whose measured keys look
uniform, perfectly correlated, and independent of any purifying system.
``privacy_deviation(rho, key_labels)`` measures how far that fails: the
key systems share one dimension K, every other system is a shield, and the
value comes from the key blocks of rho's purification.  ``private_state``
builds every spec: when the spec's shield state carries extension systems,
it returns the extension, on which the twist acts as the identity.

Run with: python demos/04_private_states.py
"""

from privsq import (
    approx_private_state,
    partial_trace,
    privacy_deviation,
    private_state,
    random_private_spec,
    vn_entropy,
)

spec = random_private_spec(key_dim=2, shield_dims=(2, 2), seed=5)
gamma = private_state(spec)
print("private state on", gamma.layout.labels)
print(f"privacy deviation: {privacy_deviation(gamma, spec.key_labels):.2e}")
print(f"key marginal entropy per party: "
      f"{vn_entropy(partial_trace(gamma, 'A1')):.3f} bits")

print()
print("an extension: the twist acts as identity on sigma's extension system E")
spec_ext = random_private_spec(key_dim=2, shield_dims=(2, 2), seed=6, ext_dim=2)
# the same builder; PrivateStateSpec(2, (2, 2), spec_ext.shield_marginal(),
# spec_ext.controls) would give the private state it extends
gamma_ext = private_state(spec_ext)
print("  extension layout:", gamma_ext.layout.labels)
reduced = partial_trace(gamma_ext, ("A1", "A2", "A1p", "A2p"))
print("  tracing E returns a private state with deviation",
      f"{privacy_deviation(reduced, spec_ext.key_labels):.2e}")

print()
print("approximate private states: mixing toward a random full-rank state")
for p in (0.0, 0.05, 0.2):
    omega, eps = approx_private_state(gamma, p, seed=7)
    dev = privacy_deviation(omega, spec.key_labels)
    print(f"  noise p = {p:4.2f}: fidelity deficit eps = {eps:.4f}, "
          f"privacy deviation = {dev:.4f}")
