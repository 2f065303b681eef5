"""Input refusals: each bad input raises its exact exception type with a
message that names what to change."""

import json
import tracemalloc

import numpy as np
import pytest

from privsq import (
    DensityOperator,
    Isometry,
    LayoutError,
    OptimizerConfig,
    PrivateStateSpec,
    SquashingAnsatz,
    SystemLayout,
    apply_stinespring,
    approx_private_state,
    channel_squashed_upper,
    eigh,
    ghz_state,
    key_length_bound,
    key_rate_bound,
    matched_extension,
    partial_trace,
    random_density,
    squashed_multi_upper,
    uniform_classical,
)
from privsq.cli import run_cli
from privsq.entropy import info_terms
from privsq.stateio import StateFileError, read_isometry, write_isometry

QUBIT = SystemLayout([("A", 2)])
PAIR = SystemLayout([("A", 2), ("B", 2)])


def refused(exc_type, match, fn, *args, **kwargs):
    """Assert that ``fn(*args, **kwargs)`` raises exactly ``exc_type`` (not a
    subclass) with a message matching ``match``."""
    with pytest.raises(exc_type, match=match) as info:
        fn(*args, **kwargs)
    assert info.type is exc_type


def shield_spec(shield_layout):
    """A two-party, K = 2 spec whose shield state lives on ``shield_layout``."""
    sigma = random_density(shield_layout, 1, seed=0)
    return PrivateStateSpec(2, (2, 2), sigma, (np.eye(4), np.eye(4)))


def sunk_copy_channel():
    """Qubit channel A -> B (x) F that keeps the input in B and sinks |0> into F."""
    return Isometry(np.kron(np.eye(2), np.eye(2)[:, :1]), QUBIT,
                    SystemLayout([("B", 2), ("F", 2)]))


@pytest.mark.parametrize("noise", [float("nan"), -0.1, 1.5])
def test_approx_private_state_refuses_noise_outside_the_unit_interval(noise):
    refused(ValueError, r"noise .* outside \[0, 1\]",
            approx_private_state, ghz_state(2, 2), noise, 1)


def test_key_length_bound_refuses_an_unknown_mode():
    refused(ValueError, "unknown mode 'tripartite'; have",
            key_length_bound, 0.5, 0.01, 2, mode="tripartite")


def test_key_length_bound_refuses_parties_in_bipartite_mode():
    # it used to ignore them: parties=-5 gave 1.6669
    refused(ValueError, "parties -5 is for the multipartite modes; the 'bipartite' mode takes none",
            key_length_bound, 0.5, 0.01, 2, parties=-5)
    refused(ValueError, "parties 3 is for the multipartite modes",
            key_length_bound, 0.5, 0.01, 2, mode="bipartite", parties=3)


@pytest.mark.parametrize("eps", [float("nan"), -0.01, 1.5])
def test_key_rate_bound_refuses_eps_outside_the_unit_interval(eps):
    refused(ValueError, r"eps .* outside \[0, 1\]", key_rate_bound, 1.0, eps, 100)


def test_optimizer_config_refuses_zero_restarts():
    refused(ValueError, "restarts and max_iters must be positive", OptimizerConfig, restarts=0)


def test_optimizer_config_refuses_a_negative_seed():
    refused(ValueError, "seed -1 must be non-negative", OptimizerConfig, seed=-1)


@pytest.mark.parametrize("fn, kwargs, name", [
    (OptimizerConfig, {"restarts": 2.5}, "restarts"),
    (OptimizerConfig, {"max_iters": 2.5}, "max_iters"),
    (OptimizerConfig, {"seed": 1.0}, "seed"),
    (OptimizerConfig, {"restarts": True}, "restarts"),
    (key_length_bound, {"esq_value": 0.5, "eps": 0.01, "key_dim": 2.5}, "key_dim"),
    (key_length_bound, {"esq_value": 0.5, "eps": 0.01, "key_dim": 2, "mode": "multi_total",
                        "parties": 2.5}, "parties"),
    (key_rate_bound, {"esq_value": 0.5, "eps": 0.01, "rounds": 2.5}, "rounds"),
    (key_rate_bound, {"esq_value": 0.5, "eps": 0.01, "rounds": True}, "rounds"),
    (channel_squashed_upper, {"channel": sunk_copy_channel(), "rounds": 1.5}, "rounds"),
], ids=["restarts", "max_iters", "seed", "bool-restarts", "key_dim", "parties", "rounds",
        "bool-rounds", "channel-rounds"])
def test_counts_and_seeds_must_be_integers(fn, kwargs, name, monkeypatch):
    # refused where they enter, before any search, naming the parameter
    import privsq.squashed as sq

    def no_search(*args, **kwargs):
        raise AssertionError("minimize called")

    monkeypatch.setattr(sq, "minimize", no_search)
    refused(TypeError, f"{name} must be an integer, got {kwargs[name]!r}", fn, **kwargs)


def test_ansatz_refuses_a_purifying_dimension_below_one():
    # d_env = d_sink = 1 would carry it, so only the purifying-dimension check refuses
    refused(ValueError, "purifying dimension 0 must be at least 1",
            SquashingAnsatz, 0, 1, 1, [0.0])


@pytest.mark.parametrize("search", ["state", "channel", "ansatz"])
def test_searches_refuse_a_generator_over_the_coordinate_limit(search):
    # d_env d_sink = 1056 > 1024: (1056)^2 = 1115136 > 2^20 coordinates, refused
    # before any generator is built
    call = {
        "state": lambda: squashed_multi_upper(random_density(PAIR, 2, seed=0), ["A", "B"],
                                              d_env=33, d_sink=32),
        "channel": lambda: channel_squashed_upper(sunk_copy_channel(), d_env=33, d_sink=32),
        "ansatz": lambda: SquashingAnsatz(2, 33, 32, [0.0]),
    }[search]
    refused(ValueError, r"--d-env 33 --d-sink 32 give 1115136 generator coordinates, "
            r"more than 2\^20", call)


def test_ansatz_admits_a_generator_at_the_coordinate_limit():
    assert SquashingAnsatz(1, 32, 32, np.zeros(2 ** 20)).params.size == 2 ** 20


def test_esq_refuses_the_default_dims_of_a_rank_64_state(tmp_path, capsys):
    # three parties with 2-dim keys and shields: the approximate state has rank
    # 64, so the default d_env = d_sink = 64 give a 4096 x 4096 generator
    state = tmp_path / "r64.state"
    assert run_cli(["gen", "--approx", "--shield-dims", "2,2,2", "--seed", "1",
                    "--out", str(state)]) == 0
    capsys.readouterr()
    assert run_cli(["esq", "--in", str(state), "--groups", "A=A1+A1p;B=A2+A2p;C=A3+A3p"]) == 2
    assert ("--d-env 64 --d-sink 64 give 16777216 generator coordinates"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv, dim", [
    (["--private", "--k", "2", "--shield-dims", "64,64"], 16384),
    (["--extension", "--k", "2", "--shield-dims", "16,16", "--ext-dim", "3"], 3072),
])
def test_gen_refuses_a_state_over_the_dimension_limit(argv, dim, tmp_path, capsys):
    # at shields 64,64 the draws alone would take 1.07 GB and the state 4.3 GB;
    # the refusal comes before any draw
    state, report = tmp_path / "big.state", tmp_path / "big.json"
    tracemalloc.start()
    try:
        code = run_cli(["gen", *argv, "--out", str(state), "--report", str(report)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert (f"total dimension {dim} is over the limit 2048; lower --k, --shield-dims or "
            f"--ext-dim" in capsys.readouterr().err)
    assert not state.exists() and not report.exists()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("command", ["gen", "entropy", "esq", "verify", "bound"])
def test_every_command_refuses_a_negative_seed(command, source, tmp_path, capsys, monkeypatch):
    state, out = tmp_path / "g.state", tmp_path / "out.json"
    assert run_cli(["gen", "--private", "--seed", "7", "--out", str(state)]) == 0
    capsys.readouterr()
    argv = {
        "gen": ["gen", "--private"],
        "entropy": ["entropy", "--in", str(state), "--quantity", "vn", "--groups", "A=A1+A1p"],
        "esq": ["esq", "--in", str(state), "--groups", "A=A1+A1p;B=A2+A2p", "--d-env", "2",
                "--d-sink", "2", "--restarts", "1"],
        "verify": ["verify", "--suite", "lemmas", "--instances", "1"],
        "bound": ["bound", "--thm1", "--esq", "0.9", "--eps", "0.01", "--k", "2"],
    }[command] + ["--out", str(out)]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv("PRIVSQ_SEED", "-1")
    assert run_cli(argv) == 2
    assert "seed -1 must be non-negative (--seed, or PRIVSQ_SEED)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
@pytest.mark.parametrize("command", ["gen", "entropy", "esq", "verify", "bound"])
def test_every_command_refuses_a_non_integer_env_seed(command, value, tmp_path, capsys,
                                                      monkeypatch):
    state, out = tmp_path / "g.state", tmp_path / "out.json"
    assert run_cli(["gen", "--private", "--seed", "7", "--out", str(state)]) == 0
    capsys.readouterr()
    argv = {
        "gen": ["gen", "--private"],
        "entropy": ["entropy", "--in", str(state), "--quantity", "vn", "--groups", "A=A1+A1p"],
        "esq": ["esq", "--in", str(state), "--groups", "A=A1+A1p;B=A2+A2p", "--d-env", "2",
                "--d-sink", "2", "--restarts", "1"],
        "verify": ["verify", "--suite", "lemmas", "--instances", "1"],
        "bound": ["bound", "--thm1", "--esq", "0.9", "--eps", "0.01", "--k", "2"],
    }[command] + ["--out", str(out)]
    monkeypatch.setenv("PRIVSQ_SEED", value)
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert f"PRIVSQ_SEED {value!r} is not an integer" in err and "--seed" in err
    assert not out.exists()


@pytest.mark.parametrize("rounds", [0, -2])
def test_channel_search_refuses_fewer_than_one_round_before_any_search(rounds, monkeypatch):
    import privsq.squashed as sq

    def no_search(*args, **kwargs):
        raise AssertionError("minimize called")

    monkeypatch.setattr(sq, "minimize", no_search)
    refused(ValueError, f"rounds {rounds} must be at least 1", channel_squashed_upper,
            sunk_copy_channel(), rounds=rounds)


def test_channel_search_refuses_an_unknown_kept_label():
    refused(LayoutError, r"unknown system labels \['C'\]", channel_squashed_upper,
            sunk_copy_channel(), keep=("B", "C"), cfg=OptimizerConfig(restarts=1, max_iters=1))


def test_private_state_spec_refuses_a_shield_state_with_the_wrong_labels():
    refused(ValueError, r"shield state must start with the shield systems \('A1p', 'A2p'\)",
            shield_spec, SystemLayout([("A1p", 2), ("B", 2)]))


def test_private_state_spec_refuses_a_shield_state_with_the_wrong_dims():
    refused(ValueError, r"shield state dims \(2, 3\) != \(2, 2\)",
            shield_spec, SystemLayout([("A1p", 2), ("A2p", 3)]))


def test_uniform_classical_refuses_a_system_of_the_wrong_dimension():
    refused(ValueError, "system 'B' has dimension 3, expected 2",
            uniform_classical, 2, SystemLayout([("A", 2), ("B", 3)]))


def test_isometry_refuses_a_shape_that_does_not_match_its_layouts():
    # three orthonormal columns: V^dag V = I, so only the shape check refuses
    refused(ValueError, r"isometry shape \(4, 3\) does not match layouts \(4, 2\)",
            Isometry, np.eye(4)[:, :3], QUBIT, PAIR)


def test_partial_trace_refuses_an_empty_keep():
    refused(LayoutError, "keep must name at least one system",
            partial_trace, ghz_state(2, 2), ())


def test_eigh_refuses_a_non_hermitian_matrix():
    refused(ValueError, "matrix is not Hermitian within 1e-10",
            eigh, np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("acting, discard, exc_type, match", [
    (("A", "A"), (), LayoutError, r"duplicate acting labels \('A', 'A'\)"),
    (("A", "B"), (), ValueError, "2 acting systems bound to an isometry with 1 inputs"),
    ("C", (), ValueError, "system 'C' has dimension 3, isometry expects 2"),
    ("B", (), LayoutError, r"isometry output labels \['A'\] collide with untouched systems"),
    ("A", ("A", "B", "C"), LayoutError, "cannot discard every system"),
    ("A", "Z", LayoutError, r"unknown system labels \['Z'\]"),
    ("A", ("B", "Z"), LayoutError, r"unknown system labels \['Z'\]"),
], ids=["duplicate", "count", "dimension", "collision", "discard-all", "discard-unknown",
        "discard-one-unknown"])
def test_apply_stinespring_refusals(acting, discard, exc_type, match):
    # the identity channel with output label A, on A (x) B (x) C with C a qutrit
    rho = random_density(SystemLayout([("A", 2), ("B", 2), ("C", 3)]), 2, seed=0)
    v = Isometry(np.eye(2), QUBIT, QUBIT)
    refused(exc_type, match, apply_stinespring, rho, v, acting, discard)


def test_read_isometry_refuses_a_top_level_that_is_not_an_object(tmp_path):
    path = tmp_path / "list.iso"
    path.write_text(json.dumps([{"format": "privsq-state/1", "kind": "isometry"}]))
    refused(StateFileError, "top level must be a JSON object", read_isometry, str(path))


def test_read_isometry_refuses_a_matrix_that_is_not_an_isometry(tmp_path):
    path = tmp_path / "scaled.iso"
    write_isometry(str(path), sunk_copy_channel())
    payload = json.loads(path.read_text())
    payload["re"] = [[2.0 * x for x in row] for row in payload["re"]]
    path.write_text(json.dumps(payload))
    refused(StateFileError, r"invalid isometry: V\^dag V deviates from identity by 3\.000e\+00",
            read_isometry, str(path))


def test_info_terms_refuses_an_unknown_flavor():
    refused(ValueError, "unknown flavor 'mixed'; have",
            info_terms, [("A",), ("B",)], (), "mixed")


@pytest.mark.parametrize("marginal", [SystemLayout([("B", 2), ("A", 2)]),
                                      SystemLayout([("A", 2), ("B", 3)])])
def test_matched_extension_refuses_an_inconsistent_marginal(marginal):
    # sigma on A (x) B out of the extension's order, or with B of another dimension
    rho_ext = random_density(SystemLayout([("A", 2), ("B", 2), ("E", 2)]), 2, seed=0)
    sigma = DensityOperator(np.eye(marginal.total_dim) / marginal.total_dim, marginal)
    refused(ValueError, "inconsistent marginal: sigma's layout does not match the A sublayout",
            matched_extension, rho_ext, sigma)
