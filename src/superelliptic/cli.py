"""Command line surface: JSON in, JSON out.

Exit codes: 0 success, 2 usage error, 3 domain error (singular curve,
unsupported case, bad mathematical input), 4 parse error.  Batch mode
(--input file.jsonl) emits one output line per input line; a failing
line becomes an error object and never aborts the batch.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import atlas, invariants, jacobian, minimal, theta, weighted
from .algebra import GF, QQ, GFElement, Poly
from .curves import SuperellipticCurve
from .errors import DomainError, ParseError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_PARSE = 4


# ---------------------------------------------------------------------------
# scalar and document (de)serialization


def parse_field(name):
    if name == "Q":
        return QQ
    if name.startswith("GF(") and name.endswith(")"):
        try:
            p = int(name[3:-1])
        except ValueError:
            raise ParseError(f"bad field {name!r}")
        return GF(p)
    raise ParseError(f"unknown field {name!r}; use \"Q\" or \"GF(p)\"")


def field_name(field):
    return "Q" if field == QQ else f"GF({field.p})"


def scalar_out(x):
    if isinstance(x, GFElement):
        return str(x.value)
    return str(Fraction(x))


def scalar_in(field, s):
    try:
        return field.of(Fraction(str(s)))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad scalar {s!r}: {e}")


def poly_out(p):
    return [scalar_out(c) for c in p.coeffs]


def poly_in(field, coeffs):
    if not isinstance(coeffs, list):
        raise ParseError("polynomial must be a list of coefficient strings")
    return Poly(field, [scalar_in(field, c) for c in coeffs])


def parse_curve(doc):
    if not isinstance(doc, dict):
        raise ParseError("curve document must be a JSON object")
    try:
        n = int_in(doc["n"], "n")
        field = parse_field(doc.get("field", "Q"))
        f = poly_in(field, doc["f"])
    except KeyError as e:
        raise ParseError(f"curve document missing key {e}")
    try:
        return SuperellipticCurve(n, f)
    except DomainError as e:
        raise ParseError(str(e))


def curve_out(curve):
    return {
        "n": curve.n,
        "f": poly_out(curve.f),
        "field": field_name(curve.field),
    }


def parse_hyper(doc):
    if not isinstance(doc, dict):
        raise ParseError("hyperelliptic curve document must be a JSON object")
    try:
        field = parse_field(doc.get("field", "Q"))
        f = poly_in(field, doc["f"])
        h = poly_in(field, doc.get("h", []))
    except KeyError as e:
        raise ParseError(f"curve document missing key {e}")
    return jacobian.HyperCurve(f, h)


def parse_point(doc):
    if not isinstance(doc, dict):
        raise ParseError("weighted point must be a JSON object")
    try:
        coords = [scalar_in(QQ, c) for c in doc["coords"]]
        ws = [int_in(w, "weights") for w in doc["weights"]]
    except KeyError as e:
        raise ParseError(f"point document missing key {e}")
    try:
        return weighted.WeightedPoint.of(coords, ws)
    except DomainError as e:
        raise ParseError(str(e))


def point_out(pt):
    return {
        "coords": [scalar_out(c) for c in pt.coords],
        "weights": list(pt.weights),
    }


def height_out(h):
    return {
        "radicand": scalar_out(h.radicand),
        "root": h.root,
        "approx": h.approx(),
    }


def divisor_out(d):
    return {"u": poly_out(d.u), "v": poly_out(d.v)}


def int_in(v, name):
    """int(v) for a parameter, raising ParseError instead of ValueError."""
    try:
        return int(v)
    except (TypeError, ValueError):
        raise ParseError(f"{name} must be an integer, got {v!r}")


def json_arg(s):
    try:
        return json.loads(s)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON argument: {e}")


# ---------------------------------------------------------------------------
# subcommand handlers; each takes a dict of parameters and returns a dict


def _need(params, *keys):
    for k in keys:
        if params.get(k) is None:
            raise ParseError(f"missing required parameter {k!r}")
    return [params[k] for k in keys]


def _opt_int(params, key):
    v = params.get(key)
    return None if v is None else int_in(v, key)


def cmd_genus(params):
    n, d = _need(params, "n", "d")
    return {"g": atlas.genus(int_in(n, "n"), int_in(d, "d"))}


def cmd_gap_basis(params):
    n, d, q = _need(params, "n", "d", "q")
    n, d, q = int_in(n, "n"), int_in(d, "d"), int_in(q, "q")
    basis = atlas.weierstrass_gap_basis(n, d, q)
    return {
        "S": sorted([list(ab) for ab in basis.S]),
        "d_q": basis.d_q,
        "weight": atlas.branch_weight(n, d, q),
    }


def cmd_invariants(params):
    (curve,) = _need(params, "curve")
    curve = parse_curve(curve)
    if curve.n != 2:
        raise DomainError("invariants are implemented for n = 2")
    form = curve.binary_form()
    if form.degree == 6:
        inv = invariants.igusa_sextic(form)
        return {
            "kind": "sextic",
            "J2": scalar_out(inv.J2), "J4": scalar_out(inv.J4),
            "J6": scalar_out(inv.J6), "J10": scalar_out(inv.J10),
            "A": scalar_out(inv.A), "B": scalar_out(inv.B),
            "C": scalar_out(inv.C), "D": scalar_out(inv.D),
            "Afrak": scalar_out(inv.Afrak), "Bfrak": scalar_out(inv.Bfrak),
            "Cfrak": scalar_out(inv.Cfrak), "Dfrak": scalar_out(inv.Dfrak),
        }
    inv = invariants.octavic_invariants(form)
    return {"kind": "octavic", **{
        f"J{i}": scalar_out(v) for i, v in zip(range(2, 11), inv.tuple())
    }}


def cmd_equivalent(params):
    c1, c2 = _need(params, "curve1", "curve2")
    f1 = parse_curve(c1).binary_form()
    f2 = parse_curve(c2).binary_form()
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


def cmd_moduli_point(params):
    (curve,) = _need(params, "curve")
    pt = weighted.moduli_point(parse_curve(curve))
    out = point_out(pt)
    if pt.coords and isinstance(pt.coords[0], (int, Fraction)):
        out["normalized"] = point_out(weighted.normalize(pt))
    return out


def cmd_height(params):
    (point,) = _need(params, "point")
    pt = parse_point(point)
    return {"height": height_out(weighted.weighted_height(pt)),
            "normalized": point_out(weighted.normalize(pt))}


def cmd_wgcd(params):
    (point,) = _need(params, "point")
    return {"wgcd": weighted.wgcd(parse_point(point))}


def cmd_minimal(params):
    (curve,) = _need(params, "curve")
    rep = minimal.superelliptic_minimal(parse_curve(curve))
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


def cmd_laska(params):
    (model,) = _need(params, "model")
    if not (isinstance(model, list) and len(model) == 5):
        raise ParseError("model must be [a1, a2, a3, a4, a6]")
    try:
        e = minimal.EllipticModel(*[int(a) for a in model])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad model: {exc}")
    rep = minimal.laska_reduce(e)
    return {
        "model": list(rep.model.ainvs()),
        "u": rep.u, "r": rep.r, "s": rep.s, "t": rep.t,
        "discriminant_in": rep.discriminant_in,
        "discriminant_out": rep.discriminant_out,
        "valuations": {str(p): list(v) for p, v in rep.valuations.items()},
    }


def cmd_aut_lookup(params):
    (g,) = _need(params, "g")
    recs = atlas.aut_lookup(
        int_in(g, "g"), n=_opt_int(params, "n"), m=_opt_int(params, "m"),
        reduced_group=params.get("reduced_group"),
        dimension=_opt_int(params, "dimension"), case=_opt_int(params, "case"),
    )
    return {"atlas_version": atlas.ATLAS_VERSION, "records": [
        {
            "genus": r.genus, "case": r.case, "reduced_group": r.reduced_group,
            "group": r.group, "group_order": r.group_order, "n": r.n, "m": r.m,
            "signature": list(r.signature), "dimension": r.dimension,
            "equation": r.equation,
        }
        for r in recs
    ]}


def cmd_family_eq(params):
    case, n = _need(params, "case", "n")
    curve = atlas.family_equation(
        int_in(case, "case"), int_in(n, "n"), params.get("params") or [],
        m=_opt_int(params, "m"),
    )
    return {"curve": curve_out(curve), "genus": curve.genus()}


def cmd_split(params):
    n, m, delta = _need(params, "n", "m", "delta")
    res = atlas.split_jacobian(int_in(n, "n"), int_in(m, "m"), int_in(delta, "delta"))
    return {"decomposes": res.decomposes, "lhs": res.lhs, "rhs": res.rhs}


def cmd_jac_validate(params):
    curve, u, v = _need(params, "curve", "u", "v")
    C = parse_hyper(curve)
    try:
        d = jacobian.mumford_validate(
            poly_in(C.field, u), poly_in(C.field, v), C
        )
    except jacobian.MumfordError as e:
        return {"valid": False, "condition": e.condition, "message": str(e)}
    return {"valid": True, "divisor": divisor_out(d)}


def cmd_jac_add(params):
    curve, d1, d2 = _need(params, "curve", "d1", "d2")
    C = parse_hyper(curve)

    def parse_div(doc):
        if not (isinstance(doc, dict) and "u" in doc and "v" in doc):
            raise ParseError('divisor document must be an object with "u" and "v"')
        return jacobian.mumford_validate(
            poly_in(C.field, doc["u"]), poly_in(C.field, doc["v"]), C
        )

    D1, D2 = parse_div(d1), parse_div(d2)
    if params.get("method") == "interpolation":
        res = jacobian.interpolation_add_g2(D1, D2)
        out = divisor_out(res.divisor)
        out["fallback"] = res.used_fallback
        return out
    return divisor_out(jacobian.cantor_add(D1, D2))


def cmd_jac_order(params):
    (curve,) = _need(params, "curve")
    data = jacobian.weil_data_g2(parse_hyper(curve))
    return {"order": data.order, "N1": data.n1, "N2": data.n2,
            "a": data.a, "b": data.b, "q": data.q}


def cmd_theta_census(params):
    (g,) = _need(params, "g")
    g = int_in(g, "g")
    even, odd = theta.parity_census(g)
    vanishing = theta.vanishing_even_thetanulls(g)
    return {
        "even": even, "odd": odd,
        "vanishing_even": len(vanishing),
        "vanishing_sets": [list(t) for t in vanishing] if g <= 3 else None,
    }


def cmd_gopel(params):
    g, r = _need(params, "g", "r")
    return {"count": theta.gopel_count(int_in(g, "g"), int_in(r, "r"))}


HANDLERS = {
    "genus": cmd_genus,
    "gap-basis": cmd_gap_basis,
    "invariants": cmd_invariants,
    "equivalent": cmd_equivalent,
    "moduli-point": cmd_moduli_point,
    "height": cmd_height,
    "wgcd": cmd_wgcd,
    "minimal": cmd_minimal,
    "laska": cmd_laska,
    "aut-lookup": cmd_aut_lookup,
    "family-eq": cmd_family_eq,
    "split": cmd_split,
    "jac-validate": cmd_jac_validate,
    "jac-add": cmd_jac_add,
    "jac-order": cmd_jac_order,
    "theta-census": cmd_theta_census,
    "gopel": cmd_gopel,
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="superelliptic",
        description="exact arithmetic for superelliptic curves",
    )
    ap.add_argument("--format", choices=("json", "pretty"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, *flags):
        p = sub.add_parser(name)
        p.add_argument("--input", help="JSONL batch file; one args object per line")
        p.add_argument(
            "--format", dest="format", choices=("json", "pretty"),
            default=argparse.SUPPRESS,
        )
        for flag, kind in flags:
            p.add_argument(f"--{flag}", type=kind)
        return p

    add("genus", ("n", int), ("d", int))
    add("gap-basis", ("n", int), ("d", int), ("q", int))
    add("invariants", ("curve", json_arg))
    add("equivalent", ("curve1", json_arg), ("curve2", json_arg))
    add("moduli-point", ("curve", json_arg))
    add("height", ("point", json_arg))
    add("wgcd", ("point", json_arg))
    add("minimal", ("curve", json_arg))
    add("laska", ("model", json_arg))
    add("aut-lookup", ("g", int), ("n", int), ("m", int),
        ("reduced-group", str), ("dimension", int), ("case", int))
    add("family-eq", ("case", int), ("n", int), ("m", int), ("params", json_arg))
    add("split", ("n", int), ("m", int), ("delta", int))
    add("jac-validate", ("curve", json_arg), ("u", json_arg), ("v", json_arg))
    add("jac-add", ("curve", json_arg), ("d1", json_arg), ("d2", json_arg),
        ("method", str))
    add("jac-order", ("curve", json_arg))
    add("theta-census", ("g", int))
    add("gopel", ("g", int), ("r", int))
    return ap


def _emit(obj, fmt, out):
    if fmt == "pretty":
        out.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    else:
        out.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _error_obj(exc):
    kind = "parse" if isinstance(exc, ParseError) else "domain"
    return {"error": {"kind": kind, "message": str(exc)}}


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
    handler = HANDLERS[ns.command]
    params = {
        k.replace("-", "_"): v
        for k, v in vars(ns).items()
        if k not in ("command", "format", "input")
    }
    if ns.input:
        try:
            lines = open(ns.input).read().splitlines()
        except OSError as e:
            _emit({"error": {"kind": "io", "message": str(e)}}, ns.format, out)
            return EXIT_USAGE
        for line in lines:
            if not line.strip():
                _emit({}, ns.format, out)
                continue
            try:
                doc = json.loads(line)
                if not isinstance(doc, dict):
                    raise ParseError("batch line must be a JSON object")
                merged = dict(params)
                for k, v in doc.items():
                    merged[k.replace("-", "_")] = v
                _emit(handler(merged), ns.format, out)
            except (ParseError, json.JSONDecodeError) as e:
                _emit(_error_obj(ParseError(str(e))), ns.format, out)
            except (DomainError, ZeroDivisionError) as e:
                _emit(_error_obj(e), ns.format, out)
        return EXIT_OK
    try:
        result = handler(params)
    except ParseError as e:
        _emit(_error_obj(e), ns.format, out)
        return EXIT_PARSE
    except (DomainError, ZeroDivisionError) as e:
        _emit(_error_obj(e), ns.format, out)
        return EXIT_DOMAIN
    _emit(result, ns.format, out)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
