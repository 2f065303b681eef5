"""privsq: private states, entropic identities, and variational
squashed-entanglement upper bounds for finite-dimensional quantum systems.

All entropies are in bits; flat indices are row-major over the listed
system order; randomness flows only through explicit PCG64 seeds.
"""

__version__ = "0.1.0"

from .layout import LayoutError, SystemLayout, fresh_label
from .tensor import (
    DensityOperator,
    Isometry,
    PureStateVector,
    apply_stinespring,
    dephase,
    eigh,
    haar_unitary,
    kron,
    partial_trace,
    permute_systems,
    purify,
    random_density,
    random_pure,
)
from .metric import FidelityPair, fidelity, matched_extension, trace_distance, uhlmann_align
from .entropy import (
    binary_entropy,
    cmi_continuity,
    cond_entropy,
    cond_entropy_continuity,
    cond_mutual_info,
    dual_total_correlation,
    total_correlation,
    vn_entropy,
)
from .private_states import (
    PrivateStateSpec,
    approx_private_state,
    ghz_state,
    max_entangled,
    privacy_deviation,
    private_identity_residual,
    private_state,
    purify_private_state,
    random_private_spec,
    uniform_classical,
)
from .squashed import (
    BoundReport,
    OptimizerConfig,
    SquashingAnsatz,
    channel_squashed_upper,
    extend_by_squashing,
    key_length_bound,
    key_rate_bound,
    squashed_multi_upper,
    squashing_value,
)

__all__ = [
    "__version__",
    "LayoutError",
    "SystemLayout",
    "fresh_label",
    "DensityOperator",
    "PureStateVector",
    "Isometry",
    "kron",
    "partial_trace",
    "permute_systems",
    "eigh",
    "purify",
    "apply_stinespring",
    "dephase",
    "haar_unitary",
    "random_density",
    "random_pure",
    "trace_distance",
    "fidelity",
    "FidelityPair",
    "uhlmann_align",
    "matched_extension",
    "vn_entropy",
    "cond_entropy",
    "cond_mutual_info",
    "total_correlation",
    "dual_total_correlation",
    "binary_entropy",
    "cond_entropy_continuity",
    "cmi_continuity",
    "PrivateStateSpec",
    "ghz_state",
    "max_entangled",
    "uniform_classical",
    "private_state",
    "purify_private_state",
    "privacy_deviation",
    "approx_private_state",
    "random_private_spec",
    "SquashingAnsatz",
    "OptimizerConfig",
    "BoundReport",
    "extend_by_squashing",
    "squashing_value",
    "squashed_multi_upper",
    "private_identity_residual",
    "key_length_bound",
    "key_rate_bound",
    "channel_squashed_upper",
]
