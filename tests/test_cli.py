import json
from math import log2, sqrt

import numpy as np
import pytest

from privsq import cmi_continuity, cond_entropy, ghz_state, privacy_deviation, uniform_classical
from privsq.cli import run_cli
from privsq.stateio import read_state, write_isometry, write_state
from privsq import (
    DensityOperator,
    Isometry,
    OptimizerConfig,
    PrivateStateSpec,
    PureStateVector,
    SquashingAnsatz,
    SystemLayout,
)


def test_gen_private_passes_privacy_check(tmp_path):
    out = tmp_path / "g.state"
    code = run_cli(
        ["gen", "--private", "--k", "2", "--shield-dims", "2,2", "--seed", "7",
         "--out", str(out)]
    )
    assert code == 0
    rho = read_state(str(out))
    assert rho.layout.labels == ("A1", "A2", "A1p", "A2p")
    dev = privacy_deviation(rho, ("A1", "A2"))
    assert dev < 1e-9


def test_gen_extension_and_approx(tmp_path):
    out = tmp_path / "e.state"
    report = tmp_path / "r.json"
    code = run_cli(
        ["gen", "--extension", "--k", "2", "--shield-dims", "2,2", "--ext-dim", "2",
         "--seed", "3", "--out", str(out), "--report", str(report)]
    )
    assert code == 0
    rho = read_state(str(out))
    assert rho.layout.labels == ("A1", "A2", "A1p", "A2p", "E")
    rep = json.loads(report.read_text())
    assert rep["mode"] == "extension"
    assert rep["seed"] == 3

    out2 = tmp_path / "a.state"
    code = run_cli(
        ["gen", "--approx", "--p", "0.1", "--shield-dims", "2,2", "--seed", "4",
         "--out", str(out2), "--report", str(report)]
    )
    assert code == 0
    rep = json.loads(report.read_text())
    assert 0.0 < rep["eps"] < 1.0


@pytest.mark.parametrize("mode", ["--private", "--extension", "--approx"])
def test_gen_reports_no_tolerance(mode, tmp_path):
    # gen compares nothing with a tolerance, so its report lists none
    report = tmp_path / "r.json"
    assert run_cli(["gen", mode, "--out", str(tmp_path / "g.state"), "--report", str(report)]) == 0
    assert json.loads(report.read_text())["tolerances"] == {}


def test_gen_approx_builds_the_private_state_once(tmp_path, monkeypatch):
    from privsq import cli, private_states

    build = private_states.private_state
    builds = []

    def counted(spec):
        builds.append(spec)
        return build(spec)

    monkeypatch.setattr(private_states, "private_state", counted)
    monkeypatch.setattr(cli, "private_state", counted)
    assert run_cli(["gen", "--approx", "--seed", "1", "--out", str(tmp_path / "a.state")]) == 0
    assert len(builds) == 1


# Run in a fresh interpreter with scipy blocked: any import of scipy or of a
# scipy submodule raises ImportError there, so a command that needs it fails.
COLD_START = """
import json, sys
sys.modules["scipy"] = None
import privsq, privsq.cli

for name, argv in json.loads(sys.argv[1]):
    assert privsq.cli.run_cli(argv) == 0, name
print(json.dumps(sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod)))
"""


THM1 = ["bound", "--thm1", "--eps", "0.01"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (THM1 + ["--esq", "nan"], "esq nan"),
        (THM1 + ["--esq", "inf"], "esq inf"),
        (THM1 + ["--esq", "-5"], "esq -5.0"),
        (THM1 + ["--esq", "0.9", "--k", "1"], "key dimension 1 < 2"),
        (["bound", "--rate", "--esq", "nan", "--eps", "0.01"], "esq nan"),
        (THM1 + ["--esq", "0.9", "--mode", "multi-total", "--m", "1"], "party count"),
    ],
)
def test_bound_refuses_invalid_input(argv, message, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "kind" not in err


RATE = ["bound", "--rate", "--esq", "1.0", "--eps", "0.01"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (THM1 + ["--esq", "0.9", "--m", "3"], "bound --thm1 in bipartite mode does not take --m"),
        (THM1 + ["--esq", "0.9", "--mode", "bipartite", "--m", "3"],
         "bound --thm1 in bipartite mode does not take --m"),
        (THM1 + ["--esq", "0.9", "--n", "7"], "bound --thm1 does not take --n"),
        (RATE + ["--k", "5"], "bound --rate does not take --k"),
        (RATE + ["--mode", "multi-dual"], "bound --rate does not take --mode"),
        (RATE + ["--m", "3"], "bound --rate does not take --m"),
        (["entropy", "--in", "{state}", "--quantity", "vn", "--cond", "E"],
         "entropy --quantity vn does not take --cond"),
    ],
    ids=["thm1-m", "thm1-bipartite-m", "thm1-n", "rate-k", "rate-mode", "rate-m", "vn-cond"],
)
def test_bound_and_entropy_refuse_options_their_mode_ignores(argv, message, tmp_path, capsys):
    state, report = tmp_path / "g.state", tmp_path / "r.json"
    assert run_cli(["gen", "--private", "--seed", "7", "--out", str(state)]) == 0
    capsys.readouterr()
    argv = [a.format(state=state) for a in argv]
    assert run_cli(argv + ["--out", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not report.exists()


def test_bound_defaults_resolve_to_the_former_reports(tmp_path):
    for implicit, explicit in ((THM1 + ["--esq", "0.9"],
                                THM1 + ["--esq", "0.9", "--k", "2", "--mode", "bipartite"]),
                               (RATE, RATE + ["--n", "1"])):
        r1, r2 = tmp_path / "implicit.json", tmp_path / "explicit.json"
        assert run_cli(implicit + ["--out", str(r1)]) == 0
        assert run_cli(explicit + ["--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
    assert json.loads(r1.read_text())["n"] == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
def test_verify_refuses_non_finite_or_negative_tol(value, tmp_path, capsys):
    # each suite row's tolerance is a constant: verify has no --tol to set
    report = tmp_path / "v.json"
    argv = ["verify", "--suite", "fvg", "--instances", "1", f"--tol={value}", "--out", str(report)]
    assert run_cli(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_esq_refuses_a_non_finite_or_non_positive_ftol(value, tmp_path, capsys):
    # the L-BFGS-B ftol is the constant LBFGSB_FTOL: esq has no --ftol to set
    state, report = tmp_path / "g.state", tmp_path / "e.json"
    assert run_cli(["gen", "--private", "--seed", "7", "--out", str(state)]) == 0
    capsys.readouterr()
    assert run_cli(["esq", "--in", str(state), "--groups", GROUPS, "--d-env", "2",
                    "--d-sink", "2", "--restarts", "1", "--iters", "3", f"--ftol={value}",
                    "--out", str(report)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "thm1", "--restarts", "2"],
    ["verify", "--suite", "thm1", "--iters", "20"],
], ids=["verify-restarts", "verify-iters"])
def test_search_flags_are_gone(argv, tmp_path, capsys):
    # thm1's search is one restart of 12 iterations
    report = tmp_path / "r.json"
    assert run_cli(argv + ["--out", str(report)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not report.exists()


def test_suite_tolerance_parameters_are_gone():
    from privsq.suites import suite_fvg

    with pytest.raises(TypeError):
        suite_fvg(tol=1e-8)


def test_bound_constants_flags_are_gone(capsys):
    for flag in ("--c1", "--c2"):
        assert run_cli(THM1 + ["--esq", "0.9", "--mode", "multi-total", "--m", "3",
                               flag, "4"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_no_command_loads_scipy(tmp_path):
    # every command, the state search, the channel search and the thm1 suite
    # included, runs with scipy unimportable and loads no scipy module
    import os
    import subprocess
    import sys

    import privsq

    state, out, chan = str(tmp_path / "g.state"), str(tmp_path / "o"), str(tmp_path / "dep.iso")
    v = np.zeros((8, 2), dtype=complex)
    v[[0, 1, 6, 7], [0, 1, 0, 1]] = 1.0 / sqrt(2)  # |psi> -> |Phi>_(B,G1) |psi>_G2
    write_isometry(chan, Isometry(v, SystemLayout([("Ain", 2)]),
                                  SystemLayout([("B", 2), ("G1", 2), ("G2", 2)])))
    commands = [
        ("gen --private", ["gen", "--private", "--seed", "7", "--out", state]),
        ("gen --extension", ["gen", "--extension", "--ext-dim", "2", "--out", out]),
        ("gen --approx", ["gen", "--approx", "--out", out]),
        ("entropy", ["entropy", "--in", state, "--quantity", "vn"]),
        ("bound --thm1", ["bound", "--thm1", "--esq", "0.9", "--eps", "0.01", "--k", "2"]),
        ("bound --rate", ["bound", "--rate", "--esq", "1.0", "--eps", "0.01", "--n", "100"]),
        ("verify lemmas", ["verify", "--suite", "lemmas", "--instances", "1"]),
        ("verify thm1", ["verify", "--suite", "thm1"]),
        ("esq", ["esq", "--in", state, "--groups", GROUPS, "--d-env", "2", "--d-sink", "2",
                 "--restarts", "1", "--iters", "3"]),
        ("esq --channel", ["esq", "--channel", "--in", chan, "--d-env", "2", "--d-sink", "2",
                           "--restarts", "1", "--iters", "3"]),
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(privsq.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(commands)],
                          env={**os.environ, "PYTHONPATH": path}, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_entropy_command(tmp_path, capsys):
    out = tmp_path / "g.state"
    run_cli(["gen", "--private", "--seed", "7", "--out", str(out)])
    code = run_cli(
        ["entropy", "--in", str(out), "--quantity", "cmi",
         "--groups", "A=A1+A1p;B=A2+A2p"]
    )
    assert code == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("cmi")][0]
    value = float(line.split("=")[1].split()[0])
    assert value >= 2.0 - 1e-9  # private states carry at least 2 log2 K correlated bits

    code = run_cli(["entropy", "--in", str(out), "--quantity", "vn"])
    assert code == 0


@pytest.mark.parametrize("cond", ["+", ""])
def test_entropy_refuses_an_empty_cond(cond, tmp_path, capsys):
    # an empty --cond used to print the unconditioned value and exit 0
    state = tmp_path / "ge.state"
    assert run_cli(["gen", "--extension", "--seed", "7", "--out", str(state)]) == 0
    assert run_cli(["entropy", "--in", str(state), "--quantity", "cmi",
                    "--groups", "A=A1+A1p;B=A2+A2p", "--cond", cond]) == 2
    assert f"label list {cond!r} names no label" in capsys.readouterr().err


def test_entropy_cond_quantity(tmp_path, capsys):
    state, report = tmp_path / "ge.state", tmp_path / "r.json"
    assert run_cli(["gen", "--extension", "--seed", "7", "--out", str(state)]) == 0
    capsys.readouterr()
    argv = ["entropy", "--in", str(state), "--quantity", "cond", "--groups", "A=A1+A1p"]
    assert run_cli(argv + ["--cond", "E", "--out", str(report)]) == 0
    expect = cond_entropy(read_state(str(state)), ("A1", "A1p"), ("E",))
    assert capsys.readouterr().out == f"cond = {expect:.12g} bits\n"
    assert json.loads(report.read_text())["value"] == expect
    # without --cond, cond used to print H(A) and exit 0
    assert run_cli(argv) == 2
    assert "cond needs exactly one group plus --cond" in capsys.readouterr().err


@pytest.mark.parametrize("classical, quantity, groups, expect", [
    # GHZ on three qubits: each qubit is maximally mixed and the whole is pure,
    # so total = 3 H(A_i) - H(ABC) = 3, and dual = H(ABC) - 3 H(A_i | rest)
    # = 0 - 3 (0 - 1) = 3; one qubit has vn = 1.  Its dephased (classical)
    # form has every marginal at 1 bit: total = 3 - 1 = 2, dual = 1 - 3 (1 - 1)
    # = 1, so the two branches cannot stand in for each other
    (False, "total", "A=A1;B=A2;C=A3", 3.0),
    (False, "dual", "A=A1;B=A2;C=A3", 3.0),
    (False, "vn", "A=A1", 1.0),
    (True, "total", "A=A1;B=A2;C=A3", 2.0),
    (True, "dual", "A=A1;B=A2;C=A3", 1.0),
])
def test_entropy_quantities_at_ghz_anchors(classical, quantity, groups, expect, tmp_path, capsys):
    state, report = tmp_path / "ghz.state", tmp_path / "r.json"
    ghz = ghz_state(2, 3)
    write_state(str(state), uniform_classical(2, ghz.layout) if classical else ghz)
    assert run_cli(["entropy", "--in", str(state), "--quantity", quantity,
                    "--groups", groups, "--out", str(report)]) == 0
    name, value = capsys.readouterr().out.split(" = ")
    assert name == quantity
    assert abs(float(value.split()[0]) - expect) < 1e-12
    assert abs(json.loads(report.read_text())["value"] - expect) < 1e-12


@pytest.mark.parametrize("argv, message", [
    (["entropy", "--in", "{state}", "--quantity", "cmi", "--groups", "A=A1"],
     "cmi needs exactly two groups"),
    (["entropy", "--in", "{state}", "--quantity", "vn", "--groups", "A=A1;B=A2"],
     "vn takes at most one group (the marginal)"),
    (["esq", "--in", "{state}"], "esq on a state needs --groups"),
    (["gen", "--private", "--shield-dims", "2,x", "--out", "{out}"],
     "bad dimension list '2,x'"),
    (["entropy", "--in", "{state}", "--quantity", "cmi", "--groups", "A=;B=A2"],
     "group 'A' names no labels"),
    (["entropy", "--in", "{state}", "--quantity", "cmi", "--groups", ";"], "no groups given"),
], ids=["cmi-one-group", "vn-two-groups", "esq-no-groups", "gen-bad-dims", "empty-group",
        "no-group"])
def test_entropy_esq_and_gen_usage_errors_exit_2(argv, message, tmp_path, capsys):
    state, out = tmp_path / "ghz.state", tmp_path / "g.state"
    write_state(str(state), ghz_state(2, 3))
    assert run_cli([a.format(state=state, out=out) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err
    assert not out.exists()


def test_non_finite_and_non_integer_files_exit_2_naming_the_file(tmp_path, capsys):
    # a NaN diagonal used to read as vn = 0 bits, a 2.9-dim system as a qubit,
    # and a NaN isometry failed inside the SVD without naming its file
    state = {"format": "privsq-state/1", "kind": "density", "layout": [["A", 2]],
             "re": [[float("nan"), 0.0], [0.0, float("nan")]], "im": [[0.0] * 2] * 2}
    frac = {**state, "layout": [["A", 2.9]], "re": [[0.5, 0.0], [0.0, 0.5]]}
    chan = {**state, "kind": "isometry", "input_layout": [["Ain", 1]],
            "output_layout": [["B", 2]], "re": [[float("nan")], [0.0]], "im": [[0.0], [0.0]]}
    for name, payload, argv in (
        ("nan.state", state, ["entropy", "--quantity", "vn"]),
        ("frac.state", frac, ["entropy", "--quantity", "vn"]),
        ("nan.isom", chan, ["esq", "--channel", "--keep", "B", "--restarts", "1"]),
    ):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        assert run_cli(argv + ["--in", str(path)]) == 2
        assert f"{path}: " in capsys.readouterr().err


@pytest.mark.parametrize("groups, message", [
    ("A=A1+A1p;A=A2+A2p", "group name 'A' given twice"),
    ("A=A1+A1p;B=A1+A2+A2p", "groups overlap on label 'A1'"),
    ("A=A1+A1+A1p;B=A2+A2p", "groups overlap on label 'A1'"),
    ("A=A1+A1p;B=A2+A2p+nope", "'nope'"),
])
def test_entropy_and_esq_refuse_malformed_groups(groups, message, tmp_path, capsys):
    state = tmp_path / "g.state"
    assert run_cli(["gen", "--private", "--seed", "7", "--out", str(state)]) == 0
    for command in (["entropy", "--quantity", "cmi"], ["esq"]):
        capsys.readouterr()
        assert run_cli(command + ["--in", str(state), "--groups", groups]) == 2
        assert message in capsys.readouterr().err


def test_esq_command_and_determinism(tmp_path):
    state = tmp_path / "g.state"
    run_cli(["gen", "--private", "--seed", "7", "--out", str(state)])
    args = ["esq", "--in", str(state), "--groups", "A=A1+A1p;B=A2+A2p",
            "--d-env", "2", "--d-sink", "2", "--restarts", "2", "--iters", "40",
            "--seed", "3"]
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli(args + ["--out", str(r1)]) == 0
    assert run_cli(args + ["--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    rep = json.loads(r1.read_text())
    assert rep["report"]["value"] >= 1.0 - 1e-6  # private state holds a full key bit
    assert rep["tolerances"]["ftol"] == 1e-7


def test_esq_channel_command(tmp_path):
    chan = tmp_path / "id.isom"
    write_isometry(
        str(chan),
        Isometry(np.eye(2), SystemLayout([("Ain", 2)]), SystemLayout([("B", 2)])),
    )
    out = tmp_path / "r.json"
    code = run_cli(
        ["esq", "--channel", "--in", str(chan), "--d-env", "2", "--d-sink", "2",
         "--restarts", "2", "--iters", "150", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["report"]["heuristic"] is True
    assert abs(rep["report"]["value"] - 1.0) < 1e-3


def test_esq_channel_refuses_an_empty_keep(tmp_path, capsys):
    # --keep "+" used to report -5.6e-17 on the identity channel, whose value is 1
    chan = tmp_path / "id.isom"
    write_isometry(
        str(chan),
        Isometry(np.eye(2), SystemLayout([("Ain", 2)]), SystemLayout([("B", 2)])),
    )
    assert run_cli(["esq", "--channel", "--in", str(chan), "--keep", "+"]) == 2
    assert "label list '+' names no label" in capsys.readouterr().err


def test_verify_suite_exit_codes(tmp_path):
    r1 = tmp_path / "v1.json"
    assert run_cli(["verify", "--suite", "dual", "--instances", "10", "--seed", "1",
                    "--out", str(r1)]) == 0
    rep = json.loads(r1.read_text())
    assert rep["pass"] is True
    assert "tolerances" in rep and rep["seed"] == 1


def test_verify_thm1_suite(tmp_path):
    out = tmp_path / "t.json"
    code = run_cli(["verify", "--suite", "thm1", "--seed", "2", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] is True
    assert len(rep["rows"]) == 4
    # each row carries the final gradient of the restart whose value it used
    assert all(0.0 <= r["grad_norm"] < np.inf for r in rep["rows"])


def test_verify_thm1_row_at_noise_0_001_can_fail(tmp_path, monkeypatch):
    # log2 K - f(sqrt(eps), K) is +0.58 bits at noise 0.001 and negative at the
    # other three levels, so an upper bound of 0.3 bits fails that row alone
    from types import SimpleNamespace

    from privsq import suites

    fake = SimpleNamespace(value=0.3, best_restart=0, restarts=[SimpleNamespace(grad_norm=0.0)])
    configs = []

    def searched(*args, cfg, **kwargs):
        configs.append(cfg)
        return fake

    monkeypatch.setattr(suites, "squashed_multi_upper", searched)
    out = tmp_path / "t.json"
    assert run_cli(["verify", "--suite", "thm1", "--seed", "0", "--out", str(out)]) == 1
    rows = json.loads(out.read_text())["rows"]
    assert [(r["identity"], r["pass"], r["tolerance"]) for r in rows] == [
        ("key-bound chain, noise 0.01", True, 1e-6),
        ("key-bound chain, noise 0.05", True, 1e-6),
        ("key-bound chain, noise 0.1", True, 1e-6),
        ("key-bound chain, noise 0.001", False, 1e-6),
    ]
    # each row searches with one restart of 12 iterations, seeded by its noise level
    assert configs == [OptimizerConfig(restarts=1, max_iters=12, seed=k) for k in range(4)]


def test_verify_report_byte_identical(tmp_path):
    r1, r2 = tmp_path / "v1.json", tmp_path / "v2.json"
    run_cli(["verify", "--suite", "lemmas", "--instances", "8", "--seed", "1", "--out", str(r1)])
    run_cli(["verify", "--suite", "lemmas", "--instances", "8", "--seed", "1", "--out", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()


def test_bound_commands(tmp_path, capsys):
    assert run_cli(["bound", "--rate", "--esq", "1.0", "--eps", "0.01", "--n", "100"]) == 0
    out = capsys.readouterr().out
    assert "1.2620" in out

    code = run_cli(["bound", "--rate", "--esq", "1.0", "--eps", "0.25", "--n", "100"])
    assert code == 2
    err = capsys.readouterr().err
    assert "1 - 2*sqrt(eps)" in err

    rep = tmp_path / "b.json"
    assert run_cli(["bound", "--thm1", "--esq", "0.9", "--eps", "0.01", "--k", "2",
                    "--out", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert "arrangement" in data and data["rhs"] > 0.9
    assert "constants" not in data

    assert run_cli(["bound", "--thm1", "--esq", "0.9", "--eps", "0.01", "--k", "2",
                    "--mode", "multi-total", "--m", "3"]) == 0


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("mode", ["multi-total", "multi-dual"])
def test_bound_thm1_multi_reports_the_formula_it_computes(mode, m, tmp_path, capsys):
    arrangement = "log2(K) <= (2/m) * (esq + 2m * f(sqrt(eps), K))"
    rep = tmp_path / "b.json"
    assert run_cli(["bound", "--thm1", "--esq", "0.9", "--eps", "0.01", "--k", "2",
                    "--mode", mode, "--m", str(m), "--out", str(rep)]) == 0
    data = json.loads(rep.read_text())
    f = cmi_continuity(sqrt(0.01), log2(2))
    assert data["rhs"] == pytest.approx((2 / m) * (0.9 + 2 * m * f), rel=1e-12)
    assert data["arrangement"] == arrangement
    assert capsys.readouterr().out.endswith(f"; {arrangement})\n")


def test_usage_errors_exit_2(tmp_path):
    assert run_cli(["bound", "--esq", "1.0", "--eps", "0.1"]) == 2  # no kind flag
    assert run_cli(["nonsense"]) == 2
    missing = tmp_path / "missing.state"
    assert run_cli(["entropy", "--in", str(missing), "--quantity", "vn"]) == 2

    bad = tmp_path / "bad.state"
    bad.write_text("{not json")
    assert run_cli(["entropy", "--in", str(bad), "--quantity", "vn"]) == 2


def test_env_var_seed(tmp_path, monkeypatch, capsys):
    state = tmp_path / "g.state"
    monkeypatch.setenv("PRIVSQ_SEED", "7")
    assert run_cli(["gen", "--private", "--out", str(state)]) == 0
    via_env = read_state(str(state)).matrix.copy()
    monkeypatch.delenv("PRIVSQ_SEED")
    assert run_cli(["gen", "--private", "--seed", "7", "--out", str(state)]) == 0
    via_flag = read_state(str(state)).matrix
    assert np.array_equal(via_env, via_flag)


def test_gen_refuses_out_of_range_sigma_rank(tmp_path, capsys):
    out = tmp_path / "g.state"
    for rank in ("0", "100"):
        code = run_cli(["gen", "--private", "--shield-dims", "2,2", "--sigma-rank", rank,
                        "--out", str(out)])
        assert code == 2
        assert f"rank {rank} out of range 1..4" in capsys.readouterr().err
        assert not out.exists()


def test_gen_refuses_a_negative_shield_dimension_naming_the_system(tmp_path, capsys):
    # -2,-2 has a positive product, so only the layout refuses it before the draws
    out = tmp_path / "g.state"
    for dims in ("-2,2", "-2,-2"):
        code = run_cli(["gen", "--private", f"--shield-dims={dims}", "--out", str(out)])
        assert code == 2
        assert "system 'A1p' has dimension -2 < 1" in capsys.readouterr().err
        assert not out.exists()


def test_bound_channel_rate_alias_is_gone(tmp_path, capsys):
    assert run_cli(["bound", "--channel-rate", "--esq", "1.0", "--eps", "0.01", "--n", "100"]) == 2
    capsys.readouterr()
    rep = tmp_path / "b.json"
    assert run_cli(["bound", "--rate", "--esq", "1.0", "--eps", "0.01", "--n", "100",
                    "--out", str(rep)]) == 0
    assert capsys.readouterr().out == "rhs = 1.26208616714  (rate bound, n = 100)\n"
    data = json.loads(rep.read_text())
    assert data["kind"] == "rate" and data["rhs"] == 1.2620861671403416


def test_esq_refuses_non_positive_extension_dims(tmp_path, capsys):
    state = tmp_path / "g.state"
    run_cli(["gen", "--private", "--seed", "7", "--out", str(state)])
    capsys.readouterr()
    code = run_cli(["esq", "--in", str(state), "--groups", "A=A1+A1p;B=A2+A2p",
                    "--d-env", "-2", "--d-sink", "-2", "--restarts", "1", "--iters", "2"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: extension dims d_env=-2, d_sink=-2 must both be at least 1\n")


def test_verify_refuses_options_it_would_ignore(tmp_path, capsys):
    report = tmp_path / "t.json"
    assert run_cli(["verify", "--suite", "thm1", "--instances", "5", "--out", str(report)]) == 2
    assert capsys.readouterr().err == "error: verify --suite thm1 does not take --instances\n"
    assert not report.exists()


def test_esq_names_restarts_at_the_iteration_limit(tmp_path, capsys):
    state = tmp_path / "g.state"
    run_cli(["gen", "--private", "--seed", "7", "--out", str(state)])
    capsys.readouterr()
    out = tmp_path / "r.json"
    assert run_cli(["esq", "--in", str(state), "--groups", "A=A1+A1p;B=A2+A2p",
                    "--d-env", "2", "--d-sink", "2", "--restarts", "3", "--iters", "2",
                    "--seed", "3", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err == "warning: restarts that reached the iteration limit --iters 2: 0, 1, 2\n"
    rows = json.loads(out.read_text())["report"]["restarts"]
    assert [(r["iterations"], r["converged"]) for r in rows] == [(2, False)] * 3


def test_unconverged_restarts_other_than_the_limit_carry_scipy_message(capsys):
    from privsq.cli import _warn_unconverged
    from privsq.squashed import RestartRecord

    restarts = [
        RestartRecord(0, 1.0, 9, True, 10, 10, 1e-9, "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"),
        RestartRecord(1, 1.0, 5, False, 6, 6, 1e-3, "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"),
        RestartRecord(2, 1.0, 3, False, 40, 40, 1e-3, "ABNORMAL: "),
    ]
    _warn_unconverged(restarts, 5)
    assert capsys.readouterr().err == (
        "warning: restarts that reached the iteration limit --iters 5: 1\n"
        "warning: restart 2 did not converge: ABNORMAL: \n"
    )


GROUPS = "A=A1+A1p;B=A2+A2p"

# one invocation per command; "{state}" is a private state, "{report}" the report path
REPORTING_COMMANDS = {
    "gen": ["gen", "--private", "--out", "{state}.new", "--report", "{report}"],
    "entropy": ["entropy", "--in", "{state}", "--quantity", "vn", "--out", "{report}"],
    "esq": ["esq", "--in", "{state}", "--groups", GROUPS, "--d-env", "2", "--d-sink", "2",
            "--restarts", "1", "--iters", "3", "--out", "{report}"],
    "verify": ["verify", "--suite", "fvg", "--instances", "2", "--out", "{report}"],
    "bound": ["bound", "--rate", "--esq", "1.0", "--eps", "0.01", "--out", "{report}"],
}


@pytest.mark.parametrize("command", sorted(REPORTING_COMMANDS))
def test_every_command_reports_command_seed_and_tolerances(command, tmp_path, monkeypatch):
    state = tmp_path / "g.state"
    assert run_cli(["gen", "--private", "--seed", "7", "--out", str(state)]) == 0
    report = tmp_path / "r.json"
    argv = [a.format(state=state, report=report) for a in REPORTING_COMMANDS[command]]
    monkeypatch.delenv("PRIVSQ_SEED", raising=False)
    assert run_cli(argv + ["--seed", "6"]) == 0
    via_flag = report.read_bytes()
    rep = json.loads(via_flag)
    assert rep["command"] == command and rep["seed"] == 6
    assert isinstance(rep["tolerances"], dict)
    report.unlink()
    monkeypatch.setenv("PRIVSQ_SEED", "6")
    assert run_cli(argv) == 0
    assert report.read_bytes() == via_flag
    # the flag wins over the environment
    assert run_cli(argv + ["--seed", "8"]) == 0
    assert json.loads(report.read_text())["seed"] == 8


@pytest.mark.parametrize("where", ["missing directory", "directory"])
@pytest.mark.parametrize("command", sorted(REPORTING_COMMANDS))
def test_unwritable_report_path_exits_2(command, where, tmp_path, capsys):
    state = tmp_path / "g.state"
    assert run_cli(["gen", "--private", "--seed", "7", "--out", str(state)]) == 0
    report = tmp_path / "missing" / "r.json" if where == "missing directory" else tmp_path
    argv = [a.format(state=state, report=report) for a in REPORTING_COMMANDS[command]]
    capsys.readouterr()
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert err[-1].startswith(f"error: {report}: cannot write file (")
    # refused before any work: nothing printed, no file written (gen's state file included)
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


def test_gen_unwritable_state_path_exits_2_without_traceback(tmp_path):
    import os
    import subprocess
    import sys

    import privsq

    src = os.path.dirname(os.path.dirname(os.path.abspath(privsq.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    state = tmp_path / "g.state"
    for bad, argv in ((tmp_path / "missing" / "x.state", ["--out", tmp_path / "missing" / "x.state"]),
                      (tmp_path, ["--out", tmp_path]),
                      (tmp_path, ["--out", state, "--report", tmp_path])):
        proc = subprocess.run([sys.executable, "-m", "privsq", "gen", "--private", *map(str, argv)],
                              env={**os.environ, "PYTHONPATH": path}, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert f"error: {bad}: cannot write file (" in proc.stderr
        assert "Traceback" not in proc.stderr
        # refused before any work: nothing printed, and no state file left behind
        assert proc.stdout == ""
        assert list(tmp_path.iterdir()) == []


def test_malformed_env_seed_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PRIVSQ_SEED", "abc")
    report = tmp_path / "b.json"
    assert run_cli(["bound", "--rate", "--esq", "1.0", "--eps", "0.01", "--out", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not report.exists()
    assert run_cli(["bound", "--rate", "--esq", "1.0", "--eps", "0.01", "--seed", "1"]) == 0


def test_verify_refuses_instances_below_one(tmp_path, capsys):
    report = tmp_path / "v.json"
    for suite, count in (("lemmas", "0"), ("ssa", "-3")):
        assert run_cli(["verify", "--suite", suite, "--instances", count, "--out", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: verify --instances must be at least 1, got {count}\n"
        assert not report.exists()


def test_verify_reads_the_options_a_suite_takes_through_a_wrapper(monkeypatch, capsys):
    # a functools.wraps wrapper (as a tracer installs) keeps the suite's signature
    import functools

    from privsq.cli import SUITES

    calls = []

    def traced(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append(kwargs)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fvg", "thm1"):
        monkeypatch.setitem(SUITES, name, traced(SUITES[name]))
    assert run_cli(["verify", "--suite", "fvg", "--instances", "3", "--seed", "2"]) == 0
    assert calls == [{"seed": 2, "instances": 3}]
    assert run_cli(["verify", "--suite", "thm1", "--instances", "3"]) == 2
    assert capsys.readouterr().err == "error: verify --suite thm1 does not take --instances\n"
    assert len(calls) == 1


def test_esq_and_gen_refuse_options_their_mode_ignores(tmp_path, capsys):
    state = tmp_path / "g.state"
    run_cli(["gen", "--private", "--seed", "7", "--out", str(state)])
    chan = tmp_path / "id.isom"
    write_isometry(
        str(chan),
        Isometry(np.eye(2), SystemLayout([("Ain", 2)]), SystemLayout([("B", 2)])),
    )
    capsys.readouterr()
    out, report = tmp_path / "new.state", tmp_path / "r.json"
    cases = (
        (["esq", "--in", str(state), "--groups", GROUPS, "--keep", "B"],
         "esq on a state does not take --keep"),
        (["esq", "--channel", "--in", str(chan), "--groups", "A=X;B=Y"],
         "esq --channel does not take --groups"),
        (["esq", "--channel", "--in", str(chan), "--flavor", "dual"],
         "esq --channel does not take --flavor"),
        (["gen", "--private", "--p", "0.7"], "gen --private does not take --p"),
        (["gen", "--extension", "--p", "0.7"], "gen --extension does not take --p"),
        (["gen", "--private", "--ext-dim", "9"], "gen --private does not take --ext-dim"),
        (["gen", "--approx", "--ext-dim", "9"], "gen --approx does not take --ext-dim"),
    )
    for argv, message in cases:
        flags = ["--out", str(out), "--report", str(report)] if argv[0] == "gen" else ["--out", str(report)]
        assert run_cli(argv + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        assert not out.exists() and not report.exists()


def test_esq_channel_names_restarts_at_the_iteration_limit(tmp_path, capsys):
    chan = tmp_path / "id.isom"
    write_isometry(
        str(chan),
        Isometry(np.eye(2), SystemLayout([("Ain", 2)]), SystemLayout([("B", 2)])),
    )
    out = tmp_path / "r.json"
    assert run_cli(["esq", "--channel", "--in", str(chan), "--d-env", "2", "--d-sink", "2",
                    "--restarts", "2", "--iters", "2", "--seed", "3", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err == "warning: restarts that reached the iteration limit --iters 2: 0, 1\n"
    rep = json.loads(out.read_text())["report"]
    assert rep["optimizer_ok"] is False
    assert [r["converged"] for r in rep["restarts"]] == [False, False]


def test_only_data_entering_from_outside_is_checked(tmp_path, monkeypatch, capsys):
    """The checked constructors run on input, never on values the library
    derives from checked values: a lemmas run builds every state it uses
    without one check, and reading a state file checks it exactly once."""
    state = tmp_path / "g.state"
    assert run_cli(["gen", "--private", "--seed", "7", "--out", str(state)]) == 0
    checked = (DensityOperator, PureStateVector, Isometry, PrivateStateSpec, SquashingAnsatz)
    counts = dict.fromkeys((cls.__name__ for cls in checked), 0)
    for cls in checked:
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)

    assert run_cli(["verify", "--suite", "lemmas", "--instances", "1", "--seed", "1"]) == 0
    assert counts == dict.fromkeys(counts, 0)
    assert run_cli(["entropy", "--in", str(state), "--quantity", "vn"]) == 0
    assert counts == {**dict.fromkeys(counts, 0), "DensityOperator": 1}
