"""Command line surface: JSON in, JSON out.

Each subcommand is declared once, by `command` on its handler: its name
and its parameters, each with a kind (int, str, doc for a JSON document,
list) and required or optional.  The argparse flags and the one check
that flag values and batch-line values pass alike are derived from it:
an integer is a JSON int or a decimal string (never a bool or a float),
a list is a JSON list, a doc or list flag is JSON text, and a missing or
null required parameter is a parse error.

Exit codes: 0 success, 2 usage error, 3 domain error (singular curve,
unsupported case, bad mathematical input, a result number past CPython's
int-to-str digit limit), 4 parse error (bad JSON or a bad value).  Batch
mode (--input file.jsonl) emits one output line per input line; a failing
line becomes an error object and never aborts the batch.  A batch checks a
field and a curve once per run of lines naming them: each `main` call
keeps the last GF(p) it built and the last curve that passed
`HyperCurve`'s checks, and starts with neither.

At module level this file imports only the scalars and errors every
command needs; each handler imports the library modules it runs, so a
one-shot call loads (and compiles) only those.
"""

import argparse
import json
import sys
from fractions import Fraction

from .algebra import GF, QQ, GFElement, Poly
from .errors import DomainError, ParseError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_PARSE = 4


# ---------------------------------------------------------------------------
# parameter kinds: (check, whether a flag's text is JSON)


def int_in(v, name):
    """An integer: a JSON int or a decimal string, never a bool or a float."""
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError:
            pass
    elif isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ParseError(f"{name} must be an integer, got {v!r}")


def list_in(v, name):
    if not isinstance(v, list):
        raise ParseError(f"{name} must be a list, got {v!r}")
    return v


def str_in(v, name):
    if not isinstance(v, str):
        raise ParseError(f"{name} must be a string, got {v!r}")
    return v


KINDS = {"int": (int_in, False), "str": (str_in, False),
         "doc": (lambda v, name: v, True), "list": (list_in, True)}


# ---------------------------------------------------------------------------
# scalar and document (de)serialization


# The last GF(p) built and the last HyperCurve checked by the running
# `main` call, each as (key, value); `main` empties it on entry and on
# exit.  A field or curve that raised is never kept, and a kept value is
# what its key would build again.
_last = {}


def _reuse(slot, key, build):
    """The value kept in `slot` if its key equals `key`, else build()."""
    last = _last.get(slot)
    if last is not None and last[0] == key:
        return last[1]
    value = build()
    _last[slot] = (key, value)
    return value


def parse_field(name):
    if name == "Q":
        return QQ
    if isinstance(name, str) and name.startswith("GF(") and name.endswith(")"):
        try:
            p = int(name[3:-1])
        except ValueError:
            raise ParseError(f"bad field {name!r}")
        return _reuse("field", name, lambda: GF(p))
    raise ParseError(f"unknown field {name!r}; use \"Q\" or \"GF(p)\"")


def field_name(field):
    return "Q" if field == QQ else f"GF({field.p})"


def scalar_out(x):
    if type(x) is Fraction:
        return str(x)
    if isinstance(x, GFElement):
        return str(x.value)
    return str(Fraction(x))


def _number(s):
    """The int or Fraction a scalar document spells."""
    if type(s) is str:  # int() takes a subset of what Fraction() takes
        try:
            return int(s)
        except ValueError:
            pass
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad scalar {s!r}: {e}")


def scalar_in(field, s):
    return field.of(_number(s))  # a denominator p divides is a DomainError, exit 3


def poly_out(p):
    return [str(c) for c in p.raw]  # int residues over GF(p), Fractions over Q


def poly_in(field, coeffs):
    if not isinstance(coeffs, list):
        raise ParseError("polynomial must be a list of coefficient strings")
    # a generator, so each coefficient is read and reduced before the next
    return Poly(field, (_number(c) for c in coeffs))


def parse_curve(doc):
    if not isinstance(doc, dict):
        raise ParseError("curve document must be a JSON object")
    try:
        n = int_in(doc["n"], "n")
        field = parse_field(doc.get("field", "Q"))
        f = poly_in(field, doc["f"])
    except KeyError as e:
        raise ParseError(f"curve document missing key {e}")
    from . import curves
    try:
        return curves.SuperellipticCurve(n, f)
    except DomainError as e:
        raise ParseError(str(e))


def curve_out(curve):
    return {"n": curve.n, "f": poly_out(curve.f), "field": field_name(curve.field)}


def parse_hyper(doc):
    if not isinstance(doc, dict):
        raise ParseError("hyperelliptic curve document must be a JSON object")
    try:
        field = parse_field(doc.get("field", "Q"))
        f = poly_in(field, doc["f"])
        h = poly_in(field, doc.get("h", []))
    except KeyError as e:
        raise ParseError(f"curve document missing key {e}")
    from . import jacobian
    # keyed on parsed values, not JSON ones: [1] == [True]
    return _reuse("curve", (field, f.raw, h.raw), lambda: jacobian.HyperCurve(f, h))


def parse_point(doc):
    if not isinstance(doc, dict):
        raise ParseError("weighted point must be a JSON object")
    try:
        coords = [scalar_in(QQ, c) for c in list_in(doc["coords"], "coords")]
        ws = [int_in(w, "weights") for w in list_in(doc["weights"], "weights")]
    except KeyError as e:
        raise ParseError(f"point document missing key {e}")
    from . import weighted
    try:
        return weighted.WeightedPoint.of(coords, ws)
    except DomainError as e:
        raise ParseError(str(e))


def point_out(pt):
    return {"coords": [scalar_out(c) for c in pt.coords], "weights": list(pt.weights)}


def height_out(h):
    return {"radicand": scalar_out(h.radicand), "root": h.root, "approx": h.approx()}


def divisor_out(d):
    return {"u": poly_out(d.u), "v": poly_out(d.v)}


# ---------------------------------------------------------------------------
# subcommands: each handler takes its checked parameters and returns a dict

HANDLERS = {}  # subcommand -> handler, looked up per call
PARAMS = {}    # subcommand -> {parameter: (check, json flag, required)}


def command(name, spec):
    """Declare subcommand `name`; spec lists its parameters as "key:kind",
    with "?" after the kind of an optional one."""
    def register(handler):
        HANDLERS[name] = handler
        PARAMS[name] = {}
        for item in spec.split():
            key, kind = item.split(":")
            PARAMS[name][key] = (*KINDS[kind.rstrip("?")], not kind.endswith("?"))
        return handler
    return register


@command("genus", "n:int d:int")
def cmd_genus(p):
    from . import atlas
    return {"g": atlas.genus(p["n"], p["d"])}


@command("gap-basis", "n:int d:int q:int")
def cmd_gap_basis(p):
    from . import atlas
    basis = atlas.weierstrass_gap_basis(p["n"], p["d"], p["q"])
    return {"S": sorted([list(ab) for ab in basis.S]), "d_q": basis.d_q,
            "weight": basis.weight()}


@command("invariants", "curve:doc")
def cmd_invariants(p):
    from . import invariants
    curve = parse_curve(p["curve"])
    if curve.n != 2:
        raise DomainError("invariants are implemented for n = 2")
    form = curve.binary_form()
    if form.degree == 6:
        kind, inv = "sextic", invariants.igusa_sextic(form)
    else:
        kind, inv = "octavic", invariants.octavic_invariants(form)
    return {"kind": kind, **{k: scalar_out(v) for k, v in vars(inv).items()}}


@command("equivalent", "curve1:doc curve2:doc")
def cmd_equivalent(p):
    from . import invariants
    f1 = parse_curve(p["curve1"]).binary_form()
    f2 = parse_curve(p["curve2"]).binary_form()
    if f1.degree != f2.degree:
        return {"equivalent": False, "scale": None}
    if f1.degree == 6:
        r = invariants.sextic_equivalent(f1, f2)
    elif f1.degree == 8:
        r = invariants.octavic_equivalent(f1, f2)
    else:
        raise DomainError("equivalence handles degrees 6 and 8")
    return {"equivalent": r is not None,
            "scale": scalar_out(r) if r is not None else None}


@command("moduli-point", "curve:doc")
def cmd_moduli_point(p):
    from . import weighted
    pt = weighted.moduli_point(parse_curve(p["curve"]))
    out = point_out(pt)
    if pt.coords and isinstance(pt.coords[0], (int, Fraction)):
        out["normalized"] = point_out(weighted.normalize(pt))
    return out


@command("height", "point:doc")
def cmd_height(p):
    from . import weighted
    pt = weighted.normalize(parse_point(p["point"]))
    return {"height": height_out(weighted.normalized_height(pt)),
            "normalized": point_out(pt)}


@command("wgcd", "point:doc")
def cmd_wgcd(p):
    from . import weighted
    return {"wgcd": weighted.wgcd(parse_point(p["point"]))}


@command("minimal", "curve:doc")
def cmd_minimal(p):
    from . import minimal
    rep = minimal.superelliptic_minimal(parse_curve(p["curve"]))
    return {
        "curve": curve_out(rep.curve),
        "lambda": rep.lam,
        "x_factor": scalar_out(rep.x_factor),
        "y_factor": scalar_out(rep.y_factor),
        "form_scale": scalar_out(rep.form_scale),
        "is_twist": rep.is_twist,
        "fully_minimal": rep.fully_minimal,
        "offending_primes": list(rep.offending),
        "point_in": point_out(rep.point_in),
        "point_out": point_out(rep.point_out),
    }


@command("laska", "model:list")
def cmd_laska(p):
    from . import minimal
    if len(p["model"]) != 5:
        raise ParseError("model must be [a1, a2, a3, a4, a6]")
    rep = minimal.laska_reduce(
        minimal.EllipticModel(*[int_in(a, "model entry") for a in p["model"]]))
    return {
        "model": list(rep.model.ainvs()),
        "u": rep.u, "r": rep.r, "s": rep.s, "t": rep.t,
        "discriminant_in": rep.discriminant_in,
        "discriminant_out": rep.discriminant_out,
        "valuations": {str(q): list(v) for q, v in rep.valuations.items()},
    }


@command("aut-lookup",
         "g:int n:int? m:int? reduced_group:str? dimension:int? case:int?")
def cmd_aut_lookup(p):
    from . import atlas
    recs = atlas.aut_lookup(
        p["g"], n=p["n"], m=p["m"], reduced_group=p["reduced_group"],
        dimension=p["dimension"], case=p["case"],
    )
    # copies: the records are cached
    return {"atlas_version": atlas.ATLAS_VERSION, "records": [dict(vars(r)) for r in recs]}


@command("family-eq", "case:int n:int m:int? params:list?")
def cmd_family_eq(p):
    from . import atlas
    curve = atlas.family_equation(
        p["case"], p["n"], [scalar_in(QQ, c) for c in p["params"] or []], m=p["m"],
    )
    return {"curve": curve_out(curve), "genus": curve.genus()}


@command("split", "n:int m:int delta:int")
def cmd_split(p):
    from . import atlas
    return vars(atlas.split_jacobian(p["n"], p["m"], p["delta"]))


@command("jac-validate", "curve:doc u:doc v:doc")
def cmd_jac_validate(p):
    from . import jacobian
    C = parse_hyper(p["curve"])
    try:
        d = jacobian.mumford_validate(poly_in(C.field, p["u"]), poly_in(C.field, p["v"]), C)
    except jacobian.MumfordError as e:
        return {"valid": False, "condition": e.condition, "message": str(e)}
    return {"valid": True, "divisor": divisor_out(d)}


@command("jac-add", "curve:doc d1:doc d2:doc method:str?")
def cmd_jac_add(p):
    from . import jacobian
    C = parse_hyper(p["curve"])

    def parse_div(doc):
        if not (isinstance(doc, dict) and "u" in doc and "v" in doc):
            raise ParseError('divisor document must be an object with "u" and "v"')
        return jacobian.mumford_validate(
            poly_in(C.field, doc["u"]), poly_in(C.field, doc["v"]), C)

    D1, D2 = parse_div(p["d1"]), parse_div(p["d2"])
    if p["method"] == "interpolation":
        res = jacobian.interpolation_add_g2(D1, D2)
        return {**divisor_out(res.divisor), "fallback": res.used_fallback}
    return divisor_out(jacobian.cantor_add(D1, D2))


@command("jac-order", "curve:doc")
def cmd_jac_order(p):
    from . import jacobian
    data = jacobian.weil_data_g2(parse_hyper(p["curve"]))
    return {"order": data.order, "N1": data.n1, "N2": data.n2,
            "a": data.a, "b": data.b, "q": data.q}


@command("theta-census", "g:int")
def cmd_theta_census(p):
    from . import theta
    g = p["g"]
    even, odd, vanishing = theta.thetanull_census(g)  # refuses g < 1 first
    return {
        "even": even, "odd": odd, "vanishing_even": vanishing,
        "vanishing_sets": ([list(t) for t in theta.vanishing_even_thetanulls(g)]
                           if g <= 3 else None),
    }


@command("gopel", "g:int r:int")
def cmd_gopel(p):
    from . import theta
    return {"count": theta.gopel_count(p["g"], p["r"])}


# ---------------------------------------------------------------------------
# the parse boundary: flags, batch lines, checks and the error map


def build_parser():
    ap = argparse.ArgumentParser(
        prog="superelliptic",
        description="exact arithmetic for superelliptic curves",
    )
    ap.add_argument("--format", choices=("json", "pretty"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, kinds in PARAMS.items():
        p = sub.add_parser(name)
        p.add_argument("--input", help="JSONL batch file; one args object per line")
        p.add_argument("--format", dest="format", choices=("json", "pretty"),
                       default=argparse.SUPPRESS)
        for key in kinds:
            p.add_argument("--" + key.replace("_", "-"))
    return ap


def _decode(text, what=""):
    try:
        return json.loads(text)
    except ValueError as e:  # bad JSON, or an int past the int-to-str digit limit
        raise ParseError(f"{what}{e}")


def _check(kinds, args):
    """The declared parameters, checked; absent optional ones are None."""
    for key, (_, _, required) in kinds.items():
        if required and args.get(key) is None:
            raise ParseError(f"missing required parameter {key!r}")
    return {key: None if args.get(key) is None else check(args[key], key)
            for key, (check, _, _) in kinds.items()}


def _error_obj(kind, exc):
    return {"error": {"kind": kind, "message": str(exc)}}


def _run(command, flags, fmt, line=None):
    """(exit code, output line) of one call: the flags, with the keys of
    the batch line `line` (JSON text) laid over them."""
    try:
        kinds = PARAMS[command]
        args = {k: _decode(v, "bad JSON argument: ") if kinds[k][1] else v
                for k, v in flags.items()}
        if line is not None:
            doc = _decode(line)
            if not isinstance(doc, dict):
                raise ParseError("batch line must be a JSON object")
            args.update((k.replace("-", "_"), v) for k, v in doc.items())
        return EXIT_OK, _dumps(HANDLERS[command](_check(kinds, args)), fmt)
    except ParseError as e:
        return EXIT_PARSE, _dumps(_error_obj("parse", e), fmt)
    except (DomainError, ZeroDivisionError) as e:
        return EXIT_DOMAIN, _dumps(_error_obj("domain", e), fmt)
    except ValueError as e:  # an int past CPython's int-to-str digit limit
        if "integer string conversion" not in str(e):
            raise
        from . import theta
        msg = f"a result has more than {theta.MAX_DIGITS} digits and is not printed"
        return EXIT_DOMAIN, _dumps(_error_obj("domain", msg), fmt)


def _dumps(obj, fmt):
    if fmt == "pretty":
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


_parser = None  # built by the first main call, then reused


def main(argv=None, out=None):
    global _parser
    out = out or sys.stdout
    if _parser is None:
        _parser = build_parser()
    try:
        ns = _parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_USAGE
    flags = {k: v for k, v in vars(ns).items() if k in PARAMS[ns.command] and v is not None}
    _last.clear()
    try:
        if not ns.input:
            code, text = _run(ns.command, flags, ns.format)
            out.write(text)
            return code
        try:
            with open(ns.input) as fh:
                lines = fh.read().splitlines()
        except (OSError, UnicodeDecodeError) as e:
            out.write(_dumps(_error_obj("io", e), ns.format))
            return EXIT_USAGE
        for line in lines:
            out.write(_run(ns.command, flags, ns.format, line)[1] if line.strip() else "{}\n")
        return EXIT_OK
    finally:
        _last.clear()


if __name__ == "__main__":
    raise SystemExit(main())
