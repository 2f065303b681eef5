"""In-memory span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, the public entry points of every
measured ``privsq`` module, the ``numpy.linalg`` kernels those modules call,
and the ``scipy.optimize.minimize`` binding in ``privsq.squashed``.  A
function is usually reachable under several names (``entropy_bits`` is bound
in ``privsq.tensor``, ``privsq.entropy`` and ``privsq.squashed``; the suites
sit in the ``SUITES`` registry), so every binding that holds the object is
replaced; wrapping only the defining module would record the hot path as
zero calls.

Each call records a span ``[name, start, end, parent, op]``.  Spans of one
benchmark op share the op id and are reduced to per-name counts, self time
and inclusive time when the op ends (:meth:`Tracer.collect`), so memory
stays bounded by one op.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections import defaultdict
from time import perf_counter

# Measured modules of src/privsq.  ``layout`` only does label lookups and is
# not measured on its own; its time shows as self time of its callers.
LAYERS = ("cli", "suites", "squashed", "private_states", "entropy", "metric", "tensor", "stateio")
LINALG_KERNELS = ("eigh", "eigvalsh", "svd", "qr")
WRITERS = ("stateio.write_state", "stateio.write_isometry", "stateio.write_report")
EVAL_CAP_MESSAGE = "EVALUATIONS EXCEEDS LIMIT"


class Tracer:
    """Records spans while ``op`` is set; passes calls straight through
    while it is ``None``."""

    def __init__(self) -> None:
        self.op = None
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def collect(self) -> dict[str, float]:
        """Reduce the recorded spans and counters to per-name totals and
        start afresh.  ``<name>.calls`` counts spans, ``<name>.s`` is self
        time (duration minus the time covered by child spans),
        ``<name>.incl_s`` is inclusive time and ``<layer>.self_s`` sums the
        self time of every span of a layer."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float, self.counts)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own = end - start - child[i]
            out[name + ".calls"] += 1
            out[name + ".s"] += own
            out[name + ".incl_s"] += end - start
            out[name.split(".", 1)[0] + ".self_s"] += own
        self.spans, self.counts, self._stack = [], defaultdict(float), []
        return dict(out)

    # -- hooks -------------------------------------------------------------

    def _linalg_before(self, kernel):
        def before(args):
            shape = getattr(args[0], "shape", ())
            if len(shape) < 2:
                return
            m, n = shape[-2], shape[-1]
            if kernel in ("eigh", "eigvalsh"):
                self.counts[f"linalg.{kernel}.calls.n{n}"] += 1
            self.counts["linalg.work_n3"] += m * n * min(m, n)

        return before

    def _count_bytes(self, args, _out):
        self.counts["stateio.bytes_written"] += os.path.getsize(args[0])

    def _minimize(self, minimize):
        objective = functools.partial(self.wrap, "squashed.objective")
        timed = self.wrap("squashed.minimize", minimize)

        def traced(fun, x0, *args, **kwargs):
            if self.op is None:
                return minimize(fun, x0, *args, **kwargs)
            res = timed(objective(fun), x0, *args, **kwargs)
            self.counts["squashed.nfev"] += int(res.nfev)
            self.counts["squashed.njev"] += int(res.njev)
            self.counts["squashed.nit"] += int(res.nit)
            self.counts["squashed.cap_stops"] += EVAL_CAP_MESSAGE in str(res.message)
            return res

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of every traced object by its wrapper."""
        import numpy.linalg

        modules = [importlib.import_module("privsq")]
        modules += [importlib.import_module(f"privsq.{name}") for name in LAYERS + ("layout",)]
        wrappers = {}  # id of a traced object -> its wrapper; the wrapper keeps the object alive
        for layer in LAYERS:
            mod = importlib.import_module(f"privsq.{layer}")
            public = getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
            for name in public:
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                label = f"{layer}.{name}"
                if inspect.isfunction(obj):
                    after = self._count_bytes if label in WRITERS else None
                    wrappers[id(obj)] = self.wrap(label, obj, after=after)
                elif inspect.isclass(obj) and "__init__" in vars(obj):
                    obj.__init__ = self.wrap(label, vars(obj)["__init__"])
        squashed = importlib.import_module("privsq.squashed")
        wrappers[id(squashed.minimize)] = self._minimize(squashed.minimize)

        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    setattr(mod, attr, wrappers[id(val)])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in wrappers:
                            val[key] = wrappers[id(item)]
        for kernel in LINALG_KERNELS:
            fn = getattr(numpy.linalg, kernel)
            setattr(numpy.linalg, kernel, self.wrap(f"linalg.{kernel}", fn, before=self._linalg_before(kernel)))
