"""Self-test of the benchmark harness; it runs the real command.

    python3 -m pytest bench/test_bench.py -q      # about three minutes on 2 cores

With ``--seconds 1`` every run does exactly its workload's fixed first ops,
so traced per-layer counters can be compared between runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 3
WORKLOADS = ("esq_bipartite", "verify_lemmas", "channel_search")

# Per-layer metric -> workloads whose ops (or, for setup.*, whose input
# generation) must exercise it.  bench/README.md gives the end-to-end metric
# each one should move.
EXERCISED_ON = {
    "squashed.nfev": ("esq_bipartite", "channel_search"),
    "squashed.njev": ("esq_bipartite", "channel_search"),
    "squashed.nit": ("esq_bipartite", "channel_search"),
    "squashed.objective.calls": ("esq_bipartite", "channel_search"),
    "squashed.objective.s": ("esq_bipartite", "channel_search"),
    "squashed.minimize.s": ("esq_bipartite", "channel_search"),
    "squashed.optimizer_overhead.s": ("esq_bipartite", "channel_search"),
    "squashed.cap_stop_ratio": ("esq_bipartite",),
    "squashed.bound_bits": ("esq_bipartite", "channel_search"),
    "squashed.private_identity_residual.calls": ("verify_lemmas",),
    "squashed.private_identity_residual.s": ("verify_lemmas",),
    "tensor.DensityOperator.calls": ("verify_lemmas",),
    "tensor.DensityOperator.s": ("verify_lemmas",),
    "tensor.reduce_matrix.calls": ("verify_lemmas",),
    "tensor.reduce_matrix.s": ("verify_lemmas",),
    "tensor.entropy_bits.calls": ("verify_lemmas", "esq_bipartite"),
    "tensor.entropy_bits.s": ("verify_lemmas", "esq_bipartite"),
    "tensor.purification_matrix.calls": ("channel_search",),
    "tensor.purification_matrix.s": ("channel_search",),
    "entropy.cond_mutual_info.calls": ("verify_lemmas",),
    "entropy.cond_mutual_info.s": ("verify_lemmas",),
    "entropy.cond_entropy.calls": ("verify_lemmas",),
    "entropy.cond_entropy.s": ("verify_lemmas",),
    "private_states.random_private_spec.calls": ("verify_lemmas",),
    "private_states.random_private_spec.s": ("verify_lemmas",),
    "private_states.private_state_extension.calls": ("verify_lemmas",),
    "private_states.private_state_extension.s": ("verify_lemmas",),
    "setup.private_states.approx_private_state.s": ("esq_bipartite",),
    "setup.metric.fidelity.calls": ("esq_bipartite",),
    "setup.metric.fidelity.s": ("esq_bipartite",),
    "stateio.read_state.s": ("esq_bipartite",),
    "stateio.write_report.s": ("esq_bipartite", "verify_lemmas"),
    "stateio.bytes_written": ("esq_bipartite", "verify_lemmas"),
    "setup.stateio.write_state.s": ("esq_bipartite",),
    "setup.stateio.bytes_written": ("esq_bipartite",),
    "linalg.eigh.calls.n16": ("esq_bipartite",),
    "linalg.eigh.calls.n4": ("channel_search",),
    "linalg.eigh.s": ("esq_bipartite", "channel_search"),
    "linalg.eigvalsh.s": WORKLOADS,
    "linalg.work_n3": WORKLOADS,
    **{f"linalg.eigvalsh.calls.n{n}": ("verify_lemmas",) for n in (2, 4, 8, 16, 32, 64, 128)},
}
DETERMINISTIC = ("squashed.nfev", "squashed.njev", "squashed.nit",
                 "tensor.DensityOperator.calls", "squashed.bound_bits")


def bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    """Two traced runs and one untraced run of every workload, same seed."""
    return {w: (bench(w, 1), bench(w, 1), bench(w, 0)) for w in WORKLOADS}


def metrics(result) -> dict[str, float]:
    return {name: m["value"] for name, m in result[1]["metrics"].items()}


def bound_line(result) -> list[str]:
    return [line for line in result[0] if line.startswith("bound_bits")]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_ops_return_untraced_values(runs, workload):
    traced, _, plain = runs[workload]
    # Inside a traced run every op is repeated untraced and must give an
    # identical report; across runs the bound values must agree too.
    for _, result in (traced, plain):
        assert result["correct"] and result["failed"] == 0
    assert bound_line(traced) == bound_line(plain)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_objective_call_is_counted(runs, workload):
    m = metrics(runs[workload][0])
    assert m["squashed.objective.calls"] == m["squashed.nfev"]
    if workload == "channel_search":
        assert m["tensor.purification_matrix.calls"] == m["squashed.nfev"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_mapped_counters_are_exercised(runs, workload):
    m = metrics(runs[workload][0])
    zero = [name for name, where in EXERCISED_ON.items() if workload in where and m[name] <= 0]
    assert zero == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly(runs, workload):
    first, second = metrics(runs[workload][0]), metrics(runs[workload][1])
    keys = [k for k in first if k.startswith("linalg.") and ".calls" in k] + list(DETERMINISTIC)
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}


def test_workloads_stress_their_layers(runs):
    esq = metrics(runs["esq_bipartite"][0])
    # --seconds 1 runs exactly the fixed first ops, so the traced op median
    # covers the same ops as the per-op layer means.
    assert esq["squashed.minimize.s"] >= 0.9 * esq["trace.op_s.p50"]
    assert esq["squashed.cap_stop_ratio"] == 1.0
    # One n=16 eigh per objective evaluation (the isometry) plus the
    # purification: only work inside ops is counted.
    assert esq["linalg.eigh.calls.n16"] == esq["squashed.nfev"] + 1
    lemmas = metrics(runs["verify_lemmas"][0])
    assert lemmas["squashed.nfev"] == 0
    assert lemmas["linalg.eigh.calls.n16"] == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "verify_lemmas",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
