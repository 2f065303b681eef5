"""Values the library derives are built without a second check.

The public constructors validate what enters from outside; operations on
validated values skip the checks, so their outputs must be valid by
construction.  Each property here rebuilds a derived value through its
public constructor, from its own arrays and layout, on small random layouts
and seeded states.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from privsq import (
    DensityOperator,
    Isometry,
    OptimizerConfig,
    PrivateStateSpec,
    PureStateVector,
    SquashingAnsatz,
    SystemLayout,
    apply_stinespring,
    approx_private_state,
    dephase,
    extend_by_squashing,
    haar_unitary,
    kron,
    matched_extension,
    partial_trace,
    permute_systems,
    private_state,
    purify,
    random_density,
    random_private_spec,
    squashed_multi_upper,
    uhlmann_align,
)
from privsq.squashed import ansatz_param_count
from privsq.tensor import purification_matrix

CHECKS = settings(derandomize=True, database=None, deadline=None, max_examples=30)
SEEDS = st.integers(0, 2**32 - 1)


def rechecked(value):
    """``value`` rebuilt through its public constructor, which raises if
    the value is not valid."""
    if isinstance(value, DensityOperator):
        return DensityOperator(value.matrix, value.layout)
    if isinstance(value, PureStateVector):
        return PureStateVector(value.amplitudes, value.layout)
    if isinstance(value, Isometry):
        return Isometry(value.matrix, value.input_layout, value.output_layout)
    if isinstance(value, SquashingAnsatz):
        return SquashingAnsatz(value.d_purify, value.d_env, value.d_sink, value.params)
    return PrivateStateSpec(value.key_dim, value.shield_dims, value.shield_state, value.controls)


@st.composite
def states(draw, max_systems=3):
    """A seeded random state on 1..``max_systems`` systems ``S0, S1, ...``
    of dimension 1..3, of any rank."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=max_systems))
    layout = SystemLayout((f"S{i}", d) for i, d in enumerate(dims))
    rank = draw(st.integers(1, layout.total_dim))
    return random_density(layout, rank, draw(SEEDS))


@CHECKS
@given(states(), st.data())
def test_tensor_operations_build_valid_values(rho, data):
    labels = rho.layout.labels
    some = data.draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
    rechecked(partial_trace(rho, some))
    rechecked(permute_systems(rho, data.draw(st.permutations(labels))))
    rechecked(dephase(rho, some))
    other = random_density(SystemLayout([("T", data.draw(st.integers(1, 3)))]), 1,
                           data.draw(SEEDS))
    rechecked(kron(rho, other))
    phi = purify(rho)
    rechecked(kron(phi, purify(other, "U")))
    rechecked(phi.density())
    rechecked(phi)

    acting = data.draw(st.sampled_from(labels))
    d_in = rho.layout.dim_of(acting)
    d_out = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
    d_out = (d_out[0], max(d_out[1], -(-d_in // d_out[0])))  # room for an isometry
    v = Isometry(haar_unitary(d_out[0] * d_out[1], data.draw(SEEDS))[:, :d_in],
                 SystemLayout([(acting, d_in)]), SystemLayout([("O0", d_out[0]), ("O1", d_out[1])]))
    out_labels = ("O0", "O1") + tuple(lbl for lbl in labels if lbl != acting)
    discard = data.draw(st.lists(st.sampled_from(out_labels), max_size=len(out_labels) - 1,
                                 unique=True))
    rechecked(apply_stinespring(rho, v, acting, discard))


@CHECKS
@given(states(), st.integers(1, 3), st.integers(1, 3), SEEDS)
def test_squashed_extensions_are_valid(rho, d_env, d_sink, seed):
    d_purify = purification_matrix(rho.matrix).shape[0]  # the rank
    d_sink = max(d_sink, -(-d_purify // d_env))
    params = 0.5 * np.random.default_rng(seed).standard_normal(
        ansatz_param_count(d_env, d_sink, d_purify))
    ansatz = SquashingAnsatz(d_purify, d_env, d_sink, params)
    rechecked(ansatz.to_isometry())
    rechecked(extend_by_squashing(rho, ansatz))


@CHECKS
@given(st.integers(2, 3), st.lists(st.integers(1, 2), min_size=2, max_size=3),
       st.integers(1, 2), st.floats(0.0, 1.0), SEEDS)
def test_private_states_are_valid(key_dim, shield_dims, ext_dim, noise, seed):
    assume(key_dim ** len(shield_dims) <= 9)
    spec = rechecked(random_private_spec(key_dim, shield_dims, seed))
    ext_spec = rechecked(random_private_spec(key_dim, shield_dims, seed, ext_dim=ext_dim))
    rechecked(private_state(ext_spec))
    gamma = rechecked(private_state(spec))
    omega, _ = approx_private_state(gamma, noise, seed + 1)
    rechecked(omega)


@CHECKS
@given(states(), st.data())
def test_aligned_purifications_and_matched_extensions_are_valid(rho, data):
    sigma = random_density(rho.layout, data.draw(st.integers(1, rho.dim)), data.draw(SEEDS))
    pair = uhlmann_align(rho, sigma)
    rechecked(pair.phi_rho)
    rechecked(pair.phi_sigma)
    ext = kron(rho, random_density(SystemLayout([("B", data.draw(st.integers(1, 3)))]), 1,
                                   data.draw(SEEDS)))
    marginal = random_density(rho.layout, data.draw(st.integers(1, rho.dim)), data.draw(SEEDS))
    rechecked(matched_extension(ext, marginal))


def test_reported_ansatz_is_valid():
    rho = random_density(SystemLayout([("A", 2), ("B", 2)]), 2, seed=5)
    rep = squashed_multi_upper(rho, ["A", "B"],
                               cfg=OptimizerConfig(restarts=2, max_iters=5, seed=1))
    rechecked(rep.ansatz)
    rechecked(rep.ansatz.to_isometry())
