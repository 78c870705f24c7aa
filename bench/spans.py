"""In-memory span tracing, installed from outside the library.

`Tracer.install()` replaces the library's public functions and methods
with timing wrappers, rebinding every name under which the package's
modules refer to the same object (so `invariants.transvectant` and
`jacobian.cantor_add` as called by `scalar_mul` are both caught).
Spans are kept in flat arrays while the run lasts and written out once,
at the end.  Everything runs on one thread, so a single stack suffices
and no layer ever waits on another.
"""

import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (layer, module, attribute path) for every traced public entry point.
# A dotted path names a method, patched on its class.
TRACED = [
    ("algebra.poly_mul", "algebra", "Poly.__mul__"),
    ("algebra.poly_divmod", "algebra", "Poly.divmod"),
    ("algebra.poly_xgcd", "algebra", "Poly.xgcd"),
    ("algebra.poly_gcd", "algebra", "Poly.gcd"),
    ("algebra.transvectant", "algebra", "transvectant"),
    ("algebra.discriminant", "algebra", "discriminant"),
    ("algebra.resultant", "algebra", "resultant"),
    ("algebra.substitute", "algebra", "BinaryForm.substitute"),
    ("algebra.factorize", "algebra", "factorize"),
    ("invariants.igusa_sextic", "invariants", "igusa_sextic"),
    ("invariants.octavic_invariants", "invariants", "octavic_invariants"),
    ("invariants.sextic_equivalent", "invariants", "sextic_equivalent"),
    ("invariants.octavic_equivalent", "invariants", "octavic_equivalent"),
    ("weighted.moduli_point", "weighted", "moduli_point"),
    ("weighted.normalize", "weighted", "normalize"),
    ("weighted.weighted_height", "weighted", "weighted_height"),
    ("weighted.wgcd", "weighted", "wgcd"),
    ("minimal.superelliptic_minimal", "minimal", "superelliptic_minimal"),
    ("minimal.laska_reduce", "minimal", "laska_reduce"),
    ("jacobian.cantor_add", "jacobian", "cantor_add"),
    ("jacobian.interpolation_add_g2", "jacobian", "interpolation_add_g2"),
    ("jacobian.scalar_mul", "jacobian", "scalar_mul"),
    ("jacobian.mumford_validate", "jacobian", "mumford_validate"),
    ("jacobian.weil_data_g2", "jacobian", "weil_data_g2"),
    ("atlas.genus", "atlas", "genus"),
    ("atlas.weierstrass_gap_basis", "atlas", "weierstrass_gap_basis"),
    ("atlas.branch_weight", "atlas", "branch_weight"),
    ("atlas.aut_lookup", "atlas", "aut_lookup"),
    ("atlas.family_equation", "atlas", "family_equation"),
    ("atlas.split_jacobian", "atlas", "split_jacobian"),
    ("theta.parity_census", "theta", "parity_census"),
    ("theta.vanishing_even_thetanulls", "theta", "vanishing_even_thetanulls"),
    ("theta.gopel_count", "theta", "gopel_count"),
]

# CLI boundaries: the parse helpers the handlers call, and argparse set-up.
CLI_PARSE = ("parse_curve", "parse_hyper", "parse_point", "poly_in")

# arithmetic dunders of GFElement; counted, not timed
GF_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__",
)

CLI_METRICS = (
    "cli.parse_ms", "cli.compute_ms", "cli.serialize_ms",
    "cli.line_overhead_ms", "cli.build_parser_ms", "cli.import_ms",
)


def per_layer_names():
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for layer, _, _ in TRACED:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_ms", "ms"),
                (f"{layer}.errors", "count")]
    out += [("algebra.gf_op.calls", "count"),
            ("minimal.rescaled_share", "ratio"),
            ("jacobian.interp_fallback_share", "ratio")]
    out += [(name, "ms") for name in CLI_METRICS]
    out += [("trace_overhead", "ratio"), ("trace.accounted_share", "ratio")]
    return out


class Tracer:
    """Span recorder.  Span i has name names[i], parent parents[i] (-1 for
    a root), request requests[i], and times in seconds."""

    def __init__(self):
        self.name_ids = {}
        self.names = array("H")
        self.parents = array("l")
        self.requests = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.selfs = array("d")
        self.errors = array("b")
        self.stack = []            # open spans: [span id, child seconds]
        self.request = 0           # current request (batch line or call)
        self.counts = Counter()    # gf ops, rescaled reports, fallbacks
        self.serialize_s = 0.0
        self.line_overhead_s = 0.0
        self._handler_end = None
        self._handler_s = 0.0
        self._undo = []
        self.replacements = {}     # original function -> its wrapper
        self.active = True         # off while the harness checks outputs

    # -- recording -------------------------------------------------------

    def _open(self, name):
        sid = len(self.names)
        if name not in self.name_ids:
            self.name_ids[name] = len(self.name_ids)
        self.names.append(self.name_ids[name])
        self.parents.append(self.stack[-1][0] if self.stack else -1)
        self.requests.append(self.request)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.selfs.append(0.0)
        self.errors.append(0)
        frame = [sid, 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, frame, start, end, failed):
        sid = frame[0]
        self.stack.pop()
        self.starts[sid] = start
        self.ends[sid] = end
        self.selfs[sid] = (end - start) - frame[1]
        self.errors[sid] = failed
        if self.stack:
            self.stack[-1][1] += end - start

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._open(name)
            failed = 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = 0
            finally:
                self._close(frame, start, perf_counter(), failed)
            if on_result is not None:
                on_result(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _counted(self, key, fn):
        counts = self.counts

        def counted(*args):
            if self.active:
                counts[key] += 1
            return fn(*args)
        return counted

    @contextmanager
    def paused(self):
        """Record nothing inside the block (used around output checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- CLI line accounting ---------------------------------------------

    def _wrap_handler(self, fn):
        inner = self.wrap("cli.handler", fn)

        def handler(params):
            start = perf_counter()
            try:
                return inner(params)
            finally:
                self._handler_end = perf_counter()
                self._handler_s += self._handler_end - start
        return handler

    def line_written(self, prev, now):
        """Split the line interval (prev, now] into handler, serialize and
        overhead; called by the sink on every write."""
        serialize = 0.0
        if self._handler_end is not None and self._handler_end > prev:
            serialize = now - self._handler_end
        self.serialize_s += serialize
        self.line_overhead_s += (now - prev) - self._handler_s - serialize
        self._handler_s = 0.0
        self._handler_end = None
        self.request += 1

    # -- patching --------------------------------------------------------

    def _rebind(self, orig, replacement):
        """Point every package-level name bound to orig at replacement."""
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("superelliptic"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, orig))
        self.replacements[orig] = replacement

    def _patch_class(self, cls, method, replacement):
        orig = cls.__dict__[method]
        for attr, val in list(cls.__dict__.items()):
            if val is orig:  # aliases such as __rmul__ = __mul__
                setattr(cls, attr, replacement)
                self._undo.append((cls, attr, orig))
        self.replacements[orig] = replacement

    def install(self, package):
        mods = {name: getattr(package, name) for name in
                ("algebra", "invariants", "weighted", "minimal", "jacobian",
                 "atlas", "theta", "cli")}
        hooks = {
            "minimal.superelliptic_minimal":
                lambda rep: self.counts.update(rescaled=rep.lam > 1),
            "jacobian.interpolation_add_g2":
                lambda res: self.counts.update(fallback=res.used_fallback),
        }
        for layer, mod, path in TRACED:
            if "." in path:
                cls_name, method = path.split(".")
                cls = getattr(mods[mod], cls_name)
                self._patch_class(cls, method,
                                  self.wrap(layer, cls.__dict__[method]))
            else:
                orig = getattr(mods[mod], path)
                self._rebind(orig, self.wrap(layer, orig, hooks.get(layer)))
        gf = mods["algebra"].GFElement
        for op in GF_OPS:
            orig = gf.__dict__[op]
            setattr(gf, op, self._counted("gf_op", orig))
            self._undo.append((gf, op, orig))
        cli = mods["cli"]
        for name in CLI_PARSE:
            orig = getattr(cli, name)
            self._rebind(orig, self.wrap("cli.parse", orig))
        self._rebind(cli.build_parser, self.wrap("cli.build_parser", cli.build_parser))
        for cmd, fn in list(cli.HANDLERS.items()):
            cli.HANDLERS[cmd] = self._wrap_handler(fn)
            self._undo.append((cli.HANDLERS, cmd, fn))

    def uninstall(self):
        for target, attr, orig in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._undo.clear()
        self.replacements.clear()

    # -- results ---------------------------------------------------------

    def _totals(self):
        """Per span name: (calls, self seconds, errors, inclusive seconds of
        outermost spans, i.e. those not nested in a span of the same name)."""
        ids = {i: n for n, i in self.name_ids.items()}
        calls, selfs, errors, outer = Counter(), Counter(), Counter(), Counter()
        names, parents = self.names, self.parents
        for sid in range(len(names)):
            name = ids[names[sid]]
            calls[name] += 1
            selfs[name] += self.selfs[sid]
            errors[name] += self.errors[sid]
            parent = parents[sid]
            if parent < 0 or names[parent] != names[sid]:
                outer[name] += self.ends[sid] - self.starts[sid]
        return calls, selfs, errors, outer

    def metrics(self, wall_s, import_s, overhead):
        """Per-layer metrics; wall_s is the harness's timed total for the
        traced operations, against which the span self times are checked."""
        calls, selfs, errors, outer = self._totals()
        out = {}
        for layer, _, _ in TRACED:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_ms"] = selfs[layer] * 1e3
            out[f"{layer}.errors"] = errors[layer]
        out["algebra.gf_op.calls"] = self.counts["gf_op"]
        out["minimal.rescaled_share"] = _share(
            self.counts["rescaled"], calls["minimal.superelliptic_minimal"])
        out["jacobian.interp_fallback_share"] = _share(
            self.counts["fallback"], calls["jacobian.interpolation_add_g2"])
        out["cli.parse_ms"] = outer["cli.parse"] * 1e3
        out["cli.compute_ms"] = (outer["cli.handler"] - outer["cli.parse"]) * 1e3
        out["cli.serialize_ms"] = self.serialize_s * 1e3
        out["cli.line_overhead_ms"] = self.line_overhead_s * 1e3
        out["cli.build_parser_ms"] = outer["cli.build_parser"] * 1e3
        out["cli.import_ms"] = import_s * 1e3
        out["trace_overhead"] = overhead
        out["trace.accounted_share"] = _share(sum(selfs.values()), wall_s)
        return out

    def write(self, path):
        """Write every span as one tab-separated line."""
        ids = {i: n for n, i in self.name_ids.items()}
        with open(path, "w") as fh:
            fh.write("id\tparent\trequest\tname\tstart_us\tend_us\tself_us\terror\n")
            for sid in range(len(self.names)):
                fh.write(
                    f"{sid}\t{self.parents[sid]}\t{self.requests[sid]}\t"
                    f"{ids[self.names[sid]]}\t{self.starts[sid] * 1e6:.1f}\t"
                    f"{self.ends[sid] * 1e6:.1f}\t{self.selfs[sid] * 1e6:.1f}\t"
                    f"{self.errors[sid]}\n"
                )


def _share(num, den):
    return num / den if den else 0.0
