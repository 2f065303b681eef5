"""One benchmark workload in its own process: set-up, a closed loop of ops
with one client, and a correctness check after every op.

Started by ``bench/run.py`` with BLAS pinned to one thread in the process
environment.  Writes a JSON result file and prints nothing else of note.

    python3 bench/workloads.py --workload esq_bipartite --seed 1 --seconds 30 \
        --trace 0 --t0 <monotonic spawn time> --result out.json [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
from math import log2, sqrt

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402
import privsq  # noqa: E402
import privsq.cli  # noqa: E402
from privsq import Isometry, OptimizerConfig, SystemLayout, squashing_value  # noqa: E402
from privsq.stateio import read_state  # noqa: E402

from spans import Tracer  # noqa: E402

GROUPS = "A=A1+A1p;B=A2+A2p"
CHANNEL_VALUE_MAX = 0.01
VALUE_RTOL = 1e-9


def op_seed(seed: int, i: int) -> int:
    """Seed of op ``i``.  The stride keeps every op's random streams apart:
    the lemmas suite uses ``seed + i`` and ``seed + 10_000 + i``, the
    channel search ``seed + j`` per restart."""
    return seed * 10_000_000 + 20_000 * i


def h2(x: float) -> float:
    return 0.0 if x in (0.0, 1.0) else -x * log2(x) - (1 - x) * log2(1 - x)


def esq_lower_bound(eps: float, key_dim: int = 2) -> float:
    """The source paper's lower bound ``log2 K - f(sqrt(eps), K)`` on the
    squashed entanglement of an eps-approximate private state, with
    ``f(e, K) = 2 e log2 K + 2 (1 + e) h2(e / (1 + e))``; written out here
    so the check does not rely on the code it checks."""
    e = sqrt(eps)
    return log2(key_dim) - (2 * e * log2(key_dim) + 2 * (1 + e) * h2(e / (1 + e)))


class EsqBipartite:
    """``privsq esq`` on a 16-dim approximate private state at (4, 4)."""

    name = "esq_bipartite"
    min_ops = 2

    def __init__(self, seed: int, work: str, tracer: Tracer | None) -> None:
        self.state = os.path.join(work, "approx.state")
        self.out = os.path.join(work, "esq.json")
        gen_report = os.path.join(work, "gen.json")
        code = privsq.cli.run_cli(["gen", "--approx", "--shield-dims", "2,2", "--seed", str(seed),
                        "--out", self.state, "--report", gen_report])
        if code != 0:
            raise RuntimeError(f"gen --approx exited with {code}")
        with open(gen_report) as fh:
            self.eps = json.load(fh)["eps"]
        self.rho = read_state(self.state)
        # Keep the BoundReport the CLI computes, so the check can re-evaluate
        # the returned ansatz; the CLI report file does not carry it.
        self.reports = []
        inner = privsq.cli.squashed_multi_upper

        def keep(*args, **kwargs):
            rep = inner(*args, **kwargs)
            self.reports.append(rep)
            return rep

        privsq.cli.squashed_multi_upper = keep
        with recording(tracer, None):
            self.op(op_seed(seed, 0), iters=1)
            self.reports.clear()

    def op(self, s: int, iters: int = 500) -> int:
        return privsq.cli.run_cli(["esq", "--in", self.state, "--groups", GROUPS, "--flavor", "total",
                        "--d-env", "4", "--d-sink", "4", "--restarts", "1",
                        "--iters", str(iters), "--seed", str(s), "--out", self.out])

    def check(self, code: int):
        rep = self.reports.pop()
        with open(self.out, "rb") as fh:
            raw = fh.read()
        value = json.loads(raw)["report"]["value"]
        groups = [("A1", "A1p"), ("A2", "A2p")]
        again = squashing_value(self.rho, groups, rep.ansatz, "total")
        ok = (code == 0 and value == rep.value and value >= esq_lower_bound(self.eps)
              and abs(again - value) <= VALUE_RTOL * max(1.0, abs(value)))
        return ok, value, raw


class VerifyLemmas:
    """``privsq verify --suite lemmas`` at the default 100 + 25 instances."""

    name = "verify_lemmas"
    min_ops = 4

    def __init__(self, seed: int, work: str, tracer: Tracer | None) -> None:
        self.out = os.path.join(work, "lemmas.json")
        with recording(tracer, None):
            privsq.cli.run_cli(["verify", "--suite", "lemmas", "--instances", "4",
                     "--seed", str(op_seed(seed, 0)), "--out", self.out])

    def op(self, s: int) -> int:
        return privsq.cli.run_cli(["verify", "--suite", "lemmas", "--seed", str(s), "--out", self.out])

    def check(self, code: int):
        with open(self.out, "rb") as fh:
            raw = fh.read()
        return code == 0 and json.loads(raw)["pass"] is True, None, raw


def depolarizing_channel() -> Isometry:
    """Completely depolarizing qubit channel, as in tests/test_squashed.py:
    ``|psi> -> |Phi>_(B,G1) |psi>_G2``, whose squashed quantity is 0."""
    v = np.zeros((8, 2), dtype=complex)
    for b in range(2):
        for a in range(2):
            v[b * 4 + b * 2 + a, a] = 1.0 / np.sqrt(2)
    return Isometry(v, SystemLayout([("Ain", 2)]), SystemLayout([("B", 2), ("G1", 2), ("G2", 2)]))


class ChannelSearch:
    """``channel_squashed_upper`` on the depolarizing qubit channel."""

    name = "channel_search"
    min_ops = 2

    def __init__(self, seed: int, work: str, tracer: Tracer | None) -> None:
        self.channel = depolarizing_channel()
        with recording(tracer, None):
            privsq.channel_squashed_upper(
                self.channel, d_env=2, d_sink=2,
                cfg=OptimizerConfig(restarts=1, max_iters=2, seed=op_seed(seed, 0)), rounds=1,
            )

    def op(self, s: int):
        return privsq.channel_squashed_upper(
            self.channel, d_env=2, d_sink=2,
            cfg=OptimizerConfig(restarts=4, max_iters=120, seed=s), rounds=2,
        )

    def check(self, rep):
        ok = rep.heuristic and rep.value <= CHANNEL_VALUE_MAX
        return ok, rep.value, repr(rep.to_dict()).encode() + rep.ansatz.params.tobytes()


WORKLOADS = {w.name: w for w in (EsqBipartite, VerifyLemmas, ChannelSearch)}


class Reference:
    """A fixed numpy-and-Python kernel with the instruction mix of the ops:
    small Hermitian eigendecompositions (n=16 and n=4), a unitary built in
    an eigenbasis, tensor regrouping and small products, interpreter
    overhead.  It calls numpy only, never privsq, so no change to privsq can
    move it; its time says how fast the machine runs at the moment, and
    bench/run.py scales op and set-up times by it."""

    def __init__(self) -> None:
        rng = np.random.Generator(np.random.PCG64(0))
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self.h16 = g + g.conj().T
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.h4 = g + g.conj().T
        self.t = rng.standard_normal((4, 4, 2, 2, 2, 2)) + 0j

    def seconds(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for _ in range(650):
            w, v = np.linalg.eigh(self.h16)
            u = (v * np.exp(1j * w)) @ v.conj().T
            m = self.t.transpose(0, 2, 1, 3, 4, 5).reshape(8, -1)
            acc += abs(u[0, 0]) + float(np.linalg.eigvalsh(self.h4)[0]) + (m @ m.conj().T).real.trace()
        elapsed = time.perf_counter() - start
        if not np.isfinite(acc):
            raise RuntimeError("reference kernel produced a non-finite value")
        return elapsed


@contextlib.contextmanager
def recording(tracer: Tracer | None, op_id):
    """Record spans under ``op_id`` while inside; ``None`` records nothing
    (warm-up, checks, the reference kernel)."""
    if tracer is None:
        yield
        return
    previous, tracer.op = tracer.op, op_id
    try:
        yield
    finally:
        tracer.op = previous


@contextlib.contextmanager
def quiet():
    """Drop what the commands print; failures are reported by the caller."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        yield


def run_op(wl, s: int, tracer: Tracer | None, op_id):
    """One timed op and its untimed check; returns (seconds, ok, value,
    fingerprint).  An op that raises or fails its check counts as failed."""
    with quiet(), recording(tracer, op_id):
        try:
            start = time.perf_counter()
            result = wl.op(s)
            seconds = time.perf_counter() - start
        except Exception:
            seconds, result = None, None
            error = traceback.format_exc()
    if seconds is None:
        print(f"{wl.name}: op seed {s} raised\n{error}", file=sys.stderr)
        return None, False, None, None
    try:
        ok, value, fingerprint = wl.check(result)
    except Exception:
        print(f"{wl.name}: check of op seed {s} raised\n{traceback.format_exc()}", file=sys.stderr)
        return seconds, False, None, None
    if not ok:
        print(f"{wl.name}: op seed {s} failed its check (value {value})", file=sys.stderr)
    return seconds, ok, value, fingerprint


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as work:
        with quiet(), recording(tracer, "setup"):
            wl = WORKLOADS[args.workload](args.seed, work, tracer)
        setup_layers = tracer.collect() if tracer else {}
        setup_s = time.monotonic() - args.t0
        reference = Reference()
        result = {"setup_s": setup_s, "setup_ref_s": sorted(reference.seconds() for _ in range(3))[1],
                  "provenance": provenance(args.seed)}
        if not args.setup_only:
            result.update(loop(wl, args.seed, args.seconds, tracer, reference))
        result["setup_layers"] = setup_layers
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def loop(wl, seed: int, seconds: float, tracer: Tracer | None, reference: Reference) -> dict:
    """Closed loop, one client: the next op starts when the previous one and
    its check are done.  Runs at least ``wl.min_ops`` ops and then until
    ``seconds`` have passed.  The reference kernel runs between ops; each op
    records the mean of the kernel times just before and just after it.  In
    a traced run every op seed runs twice, traced and then untraced, and the
    two outputs must be identical."""
    ops, values, layers, paired = [], [], [], []
    ref_before = reference.seconds()

    def measured(s, tracer, op_id):
        nonlocal ref_before
        out = run_op(wl, s, tracer, op_id)
        ref_after = reference.seconds()
        ref_s, ref_before = (ref_before + ref_after) / 2, ref_after
        return out, ref_s

    deadline = time.monotonic() + seconds
    i = 0
    while i < wl.min_ops or time.monotonic() < deadline:
        s = op_seed(seed, i)
        (seconds_i, ok, value, fingerprint), ref_s = measured(s, tracer, i)
        if tracer:
            layers.append(tracer.collect())
            (plain_s, plain_ok, _, plain_fp), plain_ref_s = measured(s, None, None)
            same = fingerprint is not None and fingerprint == plain_fp
            if not same:
                print(f"{wl.name}: traced and untraced op seed {s} differ", file=sys.stderr)
            if seconds_i is not None and plain_s is not None:
                paired.append((seconds_i, plain_s))
            ops.append({"seconds": plain_s, "ok": plain_ok and same, "ref_s": plain_ref_s})
        ops.append({"seconds": seconds_i, "ok": ok, "ref_s": ref_s})
        if i < wl.min_ops:
            values.append(value)
        i += 1
    return {"ops": ops, "values": values, "layers": layers[: wl.min_ops], "paired": paired}


if __name__ == "__main__":
    sys.exit(main())
