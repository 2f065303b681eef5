"""privsq benchmark: runs one workload in its own process and prints its
metrics, each by name with its unit, then one JSON result line.

    python3 bench/run.py --workload esq_bipartite --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics (set-up measured in several
fresh processes, ops untraced).  ``--trace 1`` reports the per-layer metrics
of a traced run.  Workloads, metrics and the layer-to-end-to-end mapping are
described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from statistics import mean, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("esq_bipartite", "verify_lemmas", "channel_search")
SETUP_SAMPLES = 5  # fresh processes whose set-up time is measured; median reported
TIME_LIMIT_S = 170.0
# One BLAS thread, fixed in the child's environment before numpy loads: the
# machine has two cores and one client, and threaded BLAS would make both
# the timings and the floating-point results depend on scheduling.
PINNED_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

# Wall time on a shared 2-core machine drifts by 20-30% over minutes with
# identical work.  Times in the end-to-end metrics are therefore scaled to a
# fixed machine speed: each measured interval is multiplied by REFERENCE_S
# over the time the reference kernel of workloads.py took around it.  The
# kernel takes 0.055-0.09 s on the 2-core Xeon the benchmark was tuned on.
# Raw wall times are printed beside the scaled ones.
REFERENCE_S = 0.075
END_TO_END = {"setup_s": "s", "op_s.p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

LINALG_SIZES = (2, 4, 8, 16, 32, 64, 128)
PER_LAYER = {
    "squashed.nfev": "count",
    "squashed.njev": "count",
    "squashed.nit": "count",
    "squashed.objective.calls": "count",
    "squashed.objective.s": "s",
    "squashed.minimize.calls": "count",
    "squashed.minimize.s": "s",
    "squashed.optimizer_overhead.s": "s",
    "squashed.cap_stop_ratio": "ratio",
    "squashed.bound_bits": "bits",
    "squashed.private_identity_residual.calls": "count",
    "squashed.private_identity_residual.s": "s",
    "tensor.DensityOperator.calls": "count",
    "tensor.DensityOperator.s": "s",
    "tensor.reduce_matrix.calls": "count",
    "tensor.reduce_matrix.s": "s",
    "tensor.entropy_bits.calls": "count",
    "tensor.entropy_bits.s": "s",
    "tensor.purification_matrix.calls": "count",
    "tensor.purification_matrix.s": "s",
    "entropy.cond_mutual_info.calls": "count",
    "entropy.cond_mutual_info.s": "s",
    "entropy.cond_entropy.calls": "count",
    "entropy.cond_entropy.s": "s",
    "private_states.random_private_spec.calls": "count",
    "private_states.random_private_spec.s": "s",
    "private_states.private_state_extension.calls": "count",
    "private_states.private_state_extension.s": "s",
    "stateio.read_state.s": "s",
    "stateio.write_report.s": "s",
    "stateio.bytes_written": "B",
    "setup.private_states.approx_private_state.s": "s",
    "setup.metric.fidelity.calls": "count",
    "setup.metric.fidelity.s": "s",
    "setup.stateio.write_state.s": "s",
    "setup.stateio.bytes_written": "B",
    **{f"linalg.{k}.calls.n{n}": "count" for k in ("eigh", "eigvalsh") for n in LINALG_SIZES},
    "linalg.eigh.s": "s",
    "linalg.eigvalsh.s": "s",
    "linalg.qr.calls": "count",
    "linalg.work_n3": "count",
    **{f"{layer}.self_s": "s" for layer in ("cli", "suites", "squashed", "private_states",
                                            "entropy", "metric", "tensor", "stateio", "linalg")},
    "trace.op_s.p50": "s",
    "trace.untraced_op_s.p50": "s",
    "trace.overhead_s": "s",
}


def per_layer(res: dict) -> dict[str, float]:
    """Per-op means over the first ops of the traced run (a fixed set for a
    given seed, so counters repeat exactly); ``setup.*`` covers the input
    generation of set-up; ``trace.*`` compares every traced op with the same
    op run untraced right after it."""
    ops, setup = res["layers"], res["setup_layers"]
    totals = defaultdict(float)
    for op in ops:
        for key, value in op.items():
            totals[key] += value
    per_op = {key: value / len(ops) for key, value in totals.items()}
    derived = {
        "squashed.objective.s": per_op.get("squashed.objective.incl_s", 0.0),
        "squashed.minimize.s": per_op.get("squashed.minimize.incl_s", 0.0),
        "squashed.cap_stop_ratio": (totals["squashed.cap_stops"] / totals["squashed.minimize.calls"]
                                    if totals["squashed.minimize.calls"] else 0.0),
        "squashed.bound_bits": mean(res["values"]) if None not in res["values"] else 0.0,
        "trace.op_s.p50": median(t for t, _ in res["paired"]),
        "trace.untraced_op_s.p50": median(u for _, u in res["paired"]),
    }
    derived["squashed.optimizer_overhead.s"] = (derived["squashed.minimize.s"]
                                                - derived["squashed.objective.s"])
    derived["trace.overhead_s"] = derived["trace.op_s.p50"] - derived["trace.untraced_op_s.p50"]
    out = {}
    for name in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name.startswith("setup."):
            out[name] = setup.get(name[len("setup."):], 0.0)
        else:
            out[name] = per_op.get(name, 0.0)
    return out


def spawn(args, work: str, setup_only: bool, deadline: float) -> dict:
    """Run the workload in a fresh process and return its result."""
    fd, result = tempfile.mkstemp(suffix=".json", dir=work)
    os.close(fd)
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", result, "--t0", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env={**os.environ, **PINNED_ENV}, stdout=subprocess.DEVNULL,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "privsq", "__init__.py")):
        print(f"error: no privsq sources under {ROOT}/src", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as work:
            setups = [] if args.trace else [
                spawn(args, work, True, deadline) for _ in range(SETUP_SAMPLES - 1)]
            res = spawn(args, work, False, deadline)
            setups.append(res)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    ops = res["ops"]
    failed = sum(not op["ok"] for op in ops)
    timed = [op for op in ops if op["seconds"] is not None]
    times = [op["seconds"] for op in timed]
    if not times:
        print(f"error: {args.workload}: no op completed", file=sys.stderr)
        return 1
    print(json.dumps({"provenance": res["provenance"], "workload": args.workload,
                      "trace": args.trace}))
    if args.trace:
        metrics, units = per_layer(res), PER_LAYER
    else:
        units = END_TO_END
        scaled = [op["seconds"] * REFERENCE_S / op["ref_s"] for op in timed]
        metrics = {
            "setup_s": median(r["setup_s"] * REFERENCE_S / r["setup_ref_s"] for r in setups),
            "op_s.p50": median(scaled),
            "ops_per_s": (len(ops) - failed) / sum(scaled),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        print(f"wall: setup_s = {median(r['setup_s'] for r in setups):.6g} s, "
              f"op_s.p50 = {median(times):.6g} s, reference kernel p50 = "
              f"{median(op['ref_s'] for op in timed):.6g} s (nominal {REFERENCE_S} s)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"ops = {len(ops)} attempted, {failed} failed, fail_ratio = {failed / len(ops):.6g}")
    print("op seconds = " + " ".join(f"{t:.3f}" for t in times))
    if None not in res["values"]:
        print(f"bound_bits = {mean(res['values']):.12g} bits "
              f"(mean over the first {len(res['values'])} op seeds)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
