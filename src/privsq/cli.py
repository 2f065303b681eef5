"""Command-line front end.

Subcommands: ``gen`` (private states, extensions, approximate states),
``entropy`` (any conditional-information quantity over named groups, one
sum of marginal entropies over its terms), ``esq``
(bipartite/multipartite/channel squashed-entanglement estimators),
``verify`` (identity and inequality suites), ``bound`` (key-bound
arithmetic; ``--thm1 --m M`` gives the multipartite bound).  Exit codes:
0 success, 1 failed verification suite, 2 usage or input error, including
an option the chosen mode would ignore.

The parser is the one list of commands: it binds each subcommand to its
``_cmd_*`` handler as ``args.handler``.  Every command runs through
:func:`run_cli`.  It resolves ``--seed`` (default: the PRIVSQ_SEED
environment variable, then 0) onto ``args.seed``, refuses a negative or
non-integer seed and an output path in a missing directory or naming a
directory, calls the handler, which computes, prints and returns
``(exit code, report)``, and writes the report with its ``command`` and
``seed`` (and empty ``tolerances`` unless the handler set them) to the
JSON file named by ``--out`` (``gen --report``: there ``--out`` names the
state file).  Given the seed, every command is bit-reproducible.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from functools import cache
from math import log2, prod

from . import __version__
from .entropy import FLAVOR_DUAL, FLAVOR_TOTAL, _cond_terms, _disjoint, _information, info_terms
from .layout import LayoutError
from .private_states import (
    approx_private_state,
    privacy_deviation,
    private_state,
    random_private_spec,
)
from .squashed import (
    ITERATION_LIMIT,
    LBFGSB_FTOL,
    OptimizerConfig,
    channel_squashed_upper,
    key_length_bound,
    key_rate_bound,
    squashed_multi_upper,
)
from .stateio import read_isometry, read_state, write_report, write_state
from .suites import SUITES

# Largest total dimension K^m * prod(shield dims) * ext dim that gen builds;
# memory grows as D^2.  At D = 2048 gen --approx took 73 s with a 1.4 GB peak
# RSS and wrote a 225 MB state file (one BLAS thread, 2-core x86-64).
GEN_DIM_LIMIT = 2048


def _parse_groups(text: str) -> dict[str, tuple[str, ...]]:
    """Parse 'A=A1+A1p;B=A2+A2p' into ``{name: labels}``; refuses an empty
    group or list, a repeated name and a label named twice."""
    groups: dict[str, tuple[str, ...]] = {}
    for part in filter(None, (p.strip() for p in text.split(";"))):
        name, labels = part.split("=", 1) if "=" in part else (part, part)
        name = name.strip()
        if name in groups:
            raise ValueError(f"group name {name!r} given twice")
        groups[name] = tuple(lbl for lbl in labels.split("+") if lbl)
        if not groups[name]:
            raise ValueError(f"group {name!r} names no labels")
    if not groups:
        raise ValueError("no groups given")
    _disjoint(*groups.values())
    return groups


def _parse_labels(text: str) -> tuple[str, ...]:
    labels = tuple(lbl for lbl in text.split("+") if lbl)
    if not labels:
        raise ValueError(f"label list {text!r} names no label")
    return labels


def _parse_dims(text: str) -> tuple[int, ...]:
    """Parse '2,2' into ``(2, 2)``; refuses an empty entry and a non-integer."""
    entries = text.split(",")
    if not all(x.strip() for x in entries):
        raise ValueError(f"dimension list {text!r} has an empty entry")
    try:
        return tuple(int(x) for x in entries)
    except ValueError as exc:
        raise ValueError(f"bad dimension list {text!r}: {exc}") from exc


def _default_seed(value: int | None) -> int:
    if value is None:
        text = os.environ.get("PRIVSQ_SEED", "0")
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"PRIVSQ_SEED {text!r} is not an integer (fix it, or pass --seed)") from None
    if value < 0:
        raise ValueError(f"seed {value} must be non-negative (--seed, or PRIVSQ_SEED)")
    return value


def _refuse(mode: str, args, *flags: str) -> None:
    """Refuse, with exit 2, any of ``flags`` given to a mode that ignores it."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ValueError(f"{mode} does not take {flag}")


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privsq",
        description="Private states, entropies, and squashed-entanglement bounds.",
    )
    parser.add_argument("--version", action="version", version=f"privsq {__version__}")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="default: PRIVSQ_SEED, then 0")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str, report_flag: str = "--out") -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=summary, parents=[seeded])
        cmd.add_argument(report_flag, dest="report", default=None, help="optional JSON report file")
        cmd.set_defaults(handler=handler)
        return cmd

    gen = command("gen", _cmd_gen, "generate states and write them to a state file", "--report")
    mode = gen.add_mutually_exclusive_group(required=True)
    mode.add_argument("--private", action="store_true", help="private state")
    mode.add_argument("--extension", action="store_true", help="private-state extension")
    mode.add_argument("--approx", action="store_true", help="noisy approximate private state")
    gen.add_argument("--k", type=int, default=2, help="key dimension (default 2)")
    gen.add_argument("--shield-dims", default="2,2", help="one shield dimension per party, e.g. 2,2")
    gen.add_argument("--sigma-rank", type=int, default=None, help="rank of the shield state")
    gen.add_argument("--ext-dim", type=int, default=None,
                     help="extension dimension (with --extension; default 2)")
    gen.add_argument("--p", type=float, default=None, help="mixing noise (with --approx; default 0.1)")
    gen.add_argument("--out", required=True, help="output state file")

    ent = command("entropy", _cmd_entropy, "evaluate an entropic quantity on a state file")
    ent.add_argument("--in", dest="infile", required=True)
    ent.add_argument(
        "--quantity", required=True, choices=("vn", "cond", "cmi", "total", "dual")
    )
    ent.add_argument("--groups", default=None, help="e.g. 'A=A1+A1p;B=A2+A2p'")
    ent.add_argument("--cond", default=None, help="conditioning labels, e.g. 'E' (not with vn)")

    esq = command("esq", _cmd_esq, "variational squashed-entanglement upper bound")
    esq.add_argument("--in", dest="infile", required=True, help="state file (or isometry with --channel)")
    esq.add_argument("--channel", action="store_true", help="treat input as a channel dilation isometry")
    esq.add_argument("--groups", default=None, help="party groups, e.g. 'A=A1+A1p;B=A2+A2p'")
    esq.add_argument("--keep", default=None, help="channel output labels to keep (with --channel)")
    esq.add_argument("--flavor", choices=("total", "dual"), default=None,
                     help="without --channel; default total")
    esq.add_argument("--d-env", type=int, default=None)
    esq.add_argument("--d-sink", type=int, default=None)
    esq.add_argument("--restarts", type=int, default=OptimizerConfig.restarts)
    esq.add_argument("--iters", type=int, default=OptimizerConfig.max_iters)

    ver = command("verify", _cmd_verify, "run a verification suite")
    ver.add_argument("--suite", required=True, choices=sorted(SUITES))
    ver.add_argument("--instances", type=int, default=None, help="instance count (all suites but thm1)")

    bnd = command("bound", _cmd_bound, "key-bound arithmetic")
    kind = bnd.add_mutually_exclusive_group(required=True)
    kind.add_argument("--thm1", action="store_true", help="key-length bound for approximate private states")
    kind.add_argument("--rate", action="store_true", help="finite-round key-rate bound")
    bnd.add_argument("--esq", type=float, required=True, help="squashed-entanglement value")
    bnd.add_argument("--eps", type=float, required=True)
    bnd.add_argument("--k", type=int, default=None, help="key dimension (thm1; default 2)")
    bnd.add_argument("--m", type=int, default=None,
                     help="party count (thm1; selects the multipartite bound)")
    bnd.add_argument("--n", type=int, default=None, help="number of rounds (rate; default 1)")

    return parser


def _cmd_gen(args) -> tuple[int, dict]:
    mode = next(m for m in ("private", "extension", "approx") if getattr(args, m))
    if mode != "approx":
        _refuse(f"gen --{mode}", args, "--p")
    if mode != "extension":
        _refuse(f"gen --{mode}", args, "--ext-dim")
    shield_dims = _parse_dims(args.shield_dims)
    report: dict = {"k": args.k, "shield_dims": list(shield_dims), "mode": mode}
    ext_dim = None
    if args.extension:
        ext_dim = report["ext_dim"] = 2 if args.ext_dim is None else args.ext_dim
    dim = args.k ** len(shield_dims) * prod(shield_dims) * (1 if ext_dim is None else ext_dim)
    if dim > GEN_DIM_LIMIT:
        raise ValueError(f"total dimension {dim} is over the limit {GEN_DIM_LIMIT}; "
                         f"lower --k, --shield-dims or --ext-dim")
    spec = random_private_spec(args.k, shield_dims, args.seed, args.sigma_rank, ext_dim=ext_dim)
    gamma = state = private_state(spec)
    if args.approx:
        noise = 0.1 if args.p is None else args.p
        state, eps = approx_private_state(gamma, noise, args.seed + 1)
        report["noise"] = noise
        report["eps"] = eps
        print(f"eps = {eps:.12g}")
    if not args.extension:
        dev = privacy_deviation(gamma, spec.key_labels)
        report["privacy_deviation_of_private_state"] = dev
        print(f"privacy deviation of the underlying private state = {dev:.3e}")
    write_state(args.out, state)
    report["out"] = args.out
    report["layout"] = [[lbl, d] for lbl, d in state.layout.systems]
    print(f"wrote {args.out} ({state.dim} x {state.dim})")
    return 0, report


def _cmd_entropy(args) -> tuple[int, dict]:
    if args.quantity == "vn":
        _refuse("entropy --quantity vn", args, "--cond")
    rho = read_state(args.infile)
    cond = _parse_labels(args.cond) if args.cond is not None else ()
    groups = _parse_groups(args.groups) if args.groups else {}
    label_groups = list(groups.values())
    q = args.quantity
    if q == "vn":
        if len(label_groups) > 1:
            raise ValueError("vn takes at most one group (the marginal)")
        terms = [(1, label_groups[0] if label_groups else rho.layout.labels)]
    elif q == "cond":
        if len(label_groups) != 1 or args.cond is None:
            raise ValueError("cond needs exactly one group plus --cond "
                             "(H(A) is --quantity vn with one group)")
        terms = _cond_terms(label_groups[0], cond)
    else:
        if q == "cmi" and len(label_groups) != 2:
            raise ValueError("cmi needs exactly two groups")
        terms = info_terms(label_groups, cond, FLAVOR_DUAL if q == "dual" else FLAVOR_TOTAL)
    _disjoint(*label_groups, cond)
    value = _information(rho, terms)
    print(f"{q} = {value:.12g} bits")
    return 0, {
        "quantity": q,
        "in": args.infile,
        "groups": {name: list(labels) for name, labels in groups.items()},
        "cond": list(cond),
        "value": value,
    }


def _warn_unconverged(restarts, iters: int) -> None:
    """Name on stderr the restarts that stopped on the iteration limit, and
    give the driver's message for every other restart that did not converge."""
    capped = [r.index for r in restarts if not r.converged and ITERATION_LIMIT in r.message]
    if capped:
        print(f"warning: restarts that reached the iteration limit --iters {iters}: "
              f"{', '.join(map(str, capped))}", file=sys.stderr)
    for r in restarts:
        if not r.converged and r.index not in capped:
            print(f"warning: restart {r.index} did not converge: {r.message}", file=sys.stderr)


def _cmd_esq(args) -> tuple[int, dict]:
    if args.channel:
        _refuse("esq --channel", args, "--groups", "--flavor")
    else:
        _refuse("esq on a state", args, "--keep")
    cfg = OptimizerConfig(restarts=args.restarts, max_iters=args.iters, seed=args.seed)
    if args.channel:
        chan = read_isometry(args.infile)
        keep = _parse_labels(args.keep) if args.keep is not None else None
        rep = channel_squashed_upper(
            chan, keep=keep, d_env=args.d_env, d_sink=args.d_sink, cfg=cfg
        )
        print(f"channel squashed upper (HEURISTIC) = {rep.value:.12g}")
    else:
        rho = read_state(args.infile)
        if not args.groups:
            raise ValueError("esq on a state needs --groups")
        flavor = args.flavor or FLAVOR_TOTAL
        rep = squashed_multi_upper(
            rho,
            list(_parse_groups(args.groups).values()),
            flavor=flavor,
            d_env=args.d_env,
            d_sink=args.d_sink,
            cfg=cfg,
        )
        print(f"squashed upper bound ({flavor}) = {rep.value:.12g}")
    _warn_unconverged(rep.restarts, args.iters)
    return 0, {
        "in": args.infile,
        "channel": bool(args.channel),
        "groups": args.groups,
        "report": rep.to_dict(),
        "tolerances": {"ftol": LBFGSB_FTOL},
    }


def _cmd_verify(args) -> tuple[int, dict]:
    name = args.suite
    kwargs: dict = {"seed": args.seed}
    if "instances" not in inspect.signature(SUITES[name]).parameters:
        _refuse(f"verify --suite {name}", args, "--instances")
    elif args.instances is not None:
        kwargs["instances"] = args.instances
    result = SUITES[name](**kwargs)
    width = max(len(r.identity) for r in result.rows)
    for r in result.rows:
        status = "pass" if r.passed else "FAIL"
        print(
            f"{r.identity:<{width}}  instances={r.instances:<5d} "
            f"max_residual={r.worst:.3e}  tol={r.tol:.1e}  {status}"
        )
    print(f"suite {name}: {'pass' if result.passed else 'FAIL'}")
    report = result.to_dict()
    report["tolerances"] = {r.identity: r.tol for r in result.rows}
    return (0 if result.passed else 1), report


def _cmd_bound(args) -> tuple[int, dict]:
    report: dict = {"esq": args.esq, "eps": args.eps}
    if args.thm1:
        _refuse("bound --thm1", args, "--n")
        mode = "bipartite" if args.m is None else "multipartite"
        k = 2 if args.k is None else args.k
        rhs = key_length_bound(args.esq, args.eps, k, parties=args.m)
        target = log2(k)
        arrangement = (
            "log2(K) <= esq + f(sqrt(eps), K)"
            if mode == "bipartite"
            else "log2(K) <= (2/m) * (esq + 2m * f(sqrt(eps), K))"
        )
        print(f"rhs = {rhs:.12g}  (target: log2 K = {target:.12g}; {arrangement})")
        report.update(
            {
                "kind": "thm1",
                "mode": mode,
                "k": k,
                "m": args.m,
                "rhs": rhs,
                "log2_k": target,
                "arrangement": arrangement,
            }
        )
    else:
        _refuse("bound --rate", args, "--k", "--m")
        n = 1 if args.n is None else args.n
        rhs = key_rate_bound(args.esq, args.eps, n)
        print(f"rhs = {rhs:.12g}  (rate bound, n = {n})")
        report.update({"kind": "rate", "n": n, "rhs": rhs})
    return 0, report


def _check_writable(*paths: str | None) -> None:
    """Refuse, before any work, an output path that cannot name a new or
    existing file: its directory is missing or the path is a directory."""
    for path in filter(None, paths):
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            raise ValueError(f"{path}: cannot write file (it is a directory)")
        if not os.path.isdir(parent):
            raise ValueError(f"{path}: cannot write file (no directory {parent})")


def run_cli(argv: list[str]) -> int:
    """Run one command; returns the exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.seed = _default_seed(args.seed)
        _check_writable(getattr(args, "out", None), args.report)
        code, report = args.handler(args)
        if args.report:
            write_report(args.report,
                         {"tolerances": {}, **report, "command": args.command, "seed": args.seed})
    except (ValueError, LayoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
