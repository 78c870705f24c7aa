"""The four workloads: seeded inputs, the operations timed on them, and
the checks their outputs must pass.

Each build function takes a `random.Random` seeded from the command line, a
work directory for batch files, the imported package and a size scale
(1 for measurement, smaller for the smoke test), and returns a
`harness.Plan`.  The library only ever sees the generated inputs.  The
checks run between timed operations and may draw from the same
generator, after every input has been drawn.
"""

import json
import math
from fractions import Fraction
from math import comb, gcd
from types import SimpleNamespace

from harness import Batch, Call, Plan, write_batches

# Why each workload exists, one line each; BENCHMARK.json repeats these.
WHY = {
    "moduli-q": "Fraction path of algebra plus invariants, weighted and "
                "minimal over Q; jacobian stays idle",
    "jacobian-gfp": "GF(p) Poly mul/divmod/xgcd and Cantor reduction with "
                    "bounded residues; invariants, weighted and minimal stay idle",
    "group-order": "weil_data_g2's O(p^2 log p) count over GF(p^2) dominates; "
                   "algebra and cli barely run",
    "cli-light": "cheap commands, so JSON, dispatch, argparse, parse and "
                 "serialize dominate; only workload with atlas, theta and start-up",
}


def _s(values):
    return [str(v) for v in values]


def _domain_error(out):
    return out.get("error", {}).get("kind") == "domain"


# ---------------------------------------------------------------------------
# curves over Q


def _curve_doc(coeffs):
    return {"n": 2, "f": _s(coeffs), "field": "Q"}


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _rand_coeffs(rng, deg, bound):
    """Integer coefficients, ascending, |c| <= bound, nonzero leading term."""
    lead = rng.choice((-1, 1)) * rng.randint(1, bound)
    return [rng.randint(-bound, bound) for _ in range(deg)] + [lead]


def _nonsingular(sp, coeffs):
    return sp.Poly(sp.QQ, coeffs).is_squarefree()


def _random_curve(rng, sp, deg, bound):
    while True:
        c = _rand_coeffs(rng, deg, bound)
        if _nonsingular(sp, c):
            return c


def _singular_curve(rng, deg, bound):
    """(x - r)^2 g(x): a repeated root, so the curve is singular."""
    r = rng.randint(-3, 3)
    return _poly_mul(_poly_mul([-r, 1], [-r, 1]), _rand_coeffs(rng, deg - 2, bound))


def _prescaled(rng, coeffs, deg):
    """X -> p X on the form: the coefficient of x^j gains p^(d - j), which
    superelliptic_minimal can divide back out."""
    d = 6 if deg <= 6 else 8
    p = rng.choice((2, 3, 5))
    return [c * p ** (d - j) for j, c in enumerate(coeffs)]


def _transform(rng, sp, coeffs):
    """The curve y^2 = f moved by a random GL2(Z) substitution."""
    while True:
        a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
        if a * d - b * c:
            break
    curve = sp.SuperellipticCurve(2, sp.Poly(sp.QQ, coeffs))
    form = curve.binary_form().substitute(sp.Mat2(sp.QQ, a, b, c, d))
    return sp.SuperellipticCurve(2, form.to_poly())


def _point(doc, sp):
    return sp.WeightedPoint.of([Fraction(c) for c in doc["coords"]], doc["weights"])


def build_moduli_q(rng, workdir, sp, scale):
    # Every batch holds each (degree, coefficient bound) class equally
    # often; singular and pre-scaled curves take fixed slots in it.
    degrees = (5, 6, 7, 8)
    bounds = (9, 10**3, 10**6)
    classes = [(d, b) for d in degrees for b in bounds] * max(1, round(scale))
    singular_every = 12
    prescale_every = 3       # in the minimal batch, small-bound slots only

    def curves(prescale=False):
        out = []
        for k, (deg, bound) in enumerate(classes):
            if k % singular_every == singular_every - 1:
                out.append(("singular", _singular_curve(rng, deg, bound)))
            elif prescale and k % prescale_every == 0 and bound < 10**6:
                base = _random_curve(rng, sp, deg, bound)
                out.append(("prescaled", _prescaled(rng, base, deg)))
            else:
                out.append(("plain", _random_curve(rng, sp, deg, bound)))
        return out

    def moves_with(coeffs, point):
        """point is the moduli point of coeffs: it must equal that of a
        GL2 transform of the curve, as a weighted projective point."""
        moved = sp.moduli_point(_transform(rng, sp, coeffs))
        return sp.wpoint_equal(point, moved) is not None

    def check_invariants(doc, kind, out):
        if out["kind"] == "sextic":
            point = sp.WeightedPoint(
                tuple(Fraction(out[k]) for k in ("J2", "J4", "J6", "J10")), (2, 4, 6, 10))
        else:
            point = sp.WeightedPoint(
                tuple(Fraction(out[f"J{i}"]) for i in range(2, 8)), (2, 3, 4, 5, 6, 7))
        if kind == "singular":
            return out["kind"] == "octavic" or point.coords[3] == 0
        return moves_with([int(c) for c in doc["curve"]["f"]], point)

    def check_moduli_point(doc, kind, out):
        if kind == "singular":
            return _domain_error(out)
        point = _point(out, sp)
        return (moves_with([int(c) for c in doc["curve"]["f"]], point)
                and sp.wpoint_equal(point, _point(out["normalized"], sp)) is not None)

    def check_height(doc, _, out):
        # the height belongs to the class: any rescaling of the point agrees
        pt = _point(doc["point"], sp)
        lam = Fraction(rng.choice((-3, -2, 2, 3)), rng.choice((1, 5, 7)))
        h = sp.weighted_height(sp.star_act(lam, pt))
        got = out["height"]
        return (Fraction(got["radicand"]) == h.radicand and got["root"] == h.root
                and sp.wpoint_equal(pt, _point(out["normalized"], sp)) is not None)

    def check_minimal(doc, kind, out):
        if kind == "singular":
            return _domain_error(out)
        coeffs = [int(c) for c in doc["curve"]["f"]]
        form = sp.SuperellipticCurve(2, sp.Poly(sp.QQ, coeffs)).binary_form()
        report = SimpleNamespace(**{k: Fraction(out[k]) for k in
                                    ("x_factor", "y_factor", "form_scale")})
        result = sp.SuperellipticCurve(
            2, sp.Poly(sp.QQ, [Fraction(c) for c in out["curve"]["f"]]))
        return (sp.minimal.replay_reduction(form, report) == result.binary_form()
                and (out["lambda"] > 1 or kind != "prescaled"))

    def check_equivalent(doc, kind, out):
        if kind == "singular":
            return _domain_error(out)
        return out["equivalent"] == (kind == "equivalent")

    inv = curves()
    mp = curves()
    mins = curves(prescale=True)
    heights = []
    for kind, c in curves():
        if kind == "singular":
            c = _random_curve(rng, sp, len(c) - 1, 9)
        pt = sp.moduli_point(sp.SuperellipticCurve(2, sp.Poly(sp.QQ, c)))
        pt = sp.star_act(Fraction(rng.randint(1, 6), rng.randint(1, 6)), pt)
        heights.append({"point": {"coords": _s(pt.coords), "weights": list(pt.weights)}})
    eq_docs, eq_kinds = [], []
    for k, (kind, c) in enumerate(curves()):
        if kind == "singular":
            other = c
        elif k % 2:
            other, kind = _transform(rng, sp, c).f.coeffs, "equivalent"
        else:
            other = _random_curve(rng, sp, len(c) - 1, max(abs(x) for x in c))
            kind = "distinct"
        eq_docs.append({"curve1": _curve_doc(c), "curve2": _curve_doc(other)})
        eq_kinds.append(kind)
    batches = [
        Batch("invariants", [{"curve": _curve_doc(c)} for _, c in inv],
              [k for k, _ in inv], check_invariants),
        Batch("moduli-point", [{"curve": _curve_doc(c)} for _, c in mp],
              [k for k, _ in mp], check_moduli_point),
        Batch("height", heights, [None] * len(heights), check_height),
        Batch("minimal", [{"curve": _curve_doc(c)} for _, c in mins],
              [k for k, _ in mins], check_minimal),
        Batch("equivalent", eq_docs, eq_kinds, check_equivalent),
    ]
    write_batches(batches, workdir)

    # direct calls on nonsingular curves of the same classes
    objs = [sp.SuperellipticCurve(2, sp.Poly(sp.QQ, c)) for kind, c in curves()
            if kind != "singular"]

    def height_of(curve):
        return sp.weighted_height(sp.moduli_point(curve))

    def check_height_of(curve):
        return lambda h: h == sp.weighted_height(
            sp.moduli_point(_transform(rng, sp, curve.f.coeffs)))

    def invariants_of(form):
        if form.degree == 6:
            return sp.igusa_sextic(form)
        return sp.octavic_invariants(form)

    def check_invariants_of(curve):
        def check(inv):
            if curve.binary_form().degree == 6:
                point = sp.WeightedPoint(inv.tuple(), (2, 4, 6, 10))
            else:
                point = sp.WeightedPoint(inv.moduli_tuple(), (2, 3, 4, 5, 6, 7))
            return moves_with(curve.f.coeffs, point)
        return check

    kernel = [Call(height_of, (c,), check_height_of(c)) for c in objs]
    steps = [Call(invariants_of, (c.binary_form(),), check_invariants_of(c))
             for c in objs]
    cold = [["invariants", "--curve", json.dumps(batches[0].docs[0]["curve"])]]
    inputs = {
        "degrees": list(degrees),
        "coefficient_bounds": list(bounds),
        "lines_per_cycle": sum(len(b.docs) for b in batches),
        "singular_share": round(1 / singular_every, 4),
        "prescaled_minimal_lines": sum(k == "prescaled" for k, _ in mins),
        "equivalent_pairs": eq_kinds.count("equivalent"),
        "kernel": "weighted_height(moduli_point(curve))",
        "step": "igusa_sextic / octavic_invariants",
    }
    # the line percentiles rest on each line's best time, so the batches
    # get the most cycles, and cold_call_ms on one command's; the kernel's
    # rate sums many calls and needs fewer
    shares = {"batches": 0.6, "kernel": 0.1, "steps": 0.1, "cold": 0.2}
    return Plan(batches, kernel, steps, cold, inputs, shares)


# ---------------------------------------------------------------------------
# curves over GF(p)


def _sqrt_mod(a, p):
    """A square root of a modulo the odd prime p, or None (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _next_prime(n, sp):
    while not sp.algebra.is_prime(n):
        n += 1
    return n


def _hyper_curve(rng, sp, p, genus):
    """y^2 = f, f monic of degree 2g + 1 and squarefree."""
    while True:
        f = [rng.randrange(p) for _ in range(2 * genus + 1)] + [1]
        try:
            return sp.HyperCurve.make(sp.GF(p), f)
        except sp.SingularCurveError:
            continue


def _points(rng, curve, count):
    """count affine points with distinct x-coordinates and y != 0, or
    None if the curve has fewer (only possible for small p)."""
    p = curve.field.p
    fc = [c.value for c in curve.f.coeffs]

    def point_at(x):
        val = 0
        for c in reversed(fc):
            val = (val * x + c) % p
        y = _sqrt_mod(val, p)
        return (x, y if rng.random() < 0.5 else p - y) if y else None

    if p < 10**4:
        pts = [pt for pt in map(point_at, range(p)) if pt]
        return rng.sample(pts, count) if len(pts) >= count else None
    seen, out = set(), []
    while len(out) < count:
        x = rng.randrange(p)
        pt = None if x in seen else point_at(x)
        if pt:
            seen.add(x)
            out.append(pt)
    return out


def _pairs(rng, sp, curve, per_kind):
    """Divisor pairs by kind: generic, doubling, degree-1 and shared (u1
    and u2 share a root).  All but generic force the interpolation
    adder's fallback to Cantor."""
    g = curve.genus
    out = []
    for _ in range(per_kind):
        pts = _points(rng, curve, 3 * g)
        a = sp.divisor_from_points(curve, pts[:g])
        b = sp.divisor_from_points(curve, pts[g:2 * g])
        one = sp.divisor_from_points(curve, pts[2 * g:2 * g + 1])
        shared = sp.divisor_from_points(curve, [pts[0]] + pts[2 * g:3 * g - 1])
        out += [("generic", a, b), ("doubling", a, a),
                ("degree-1", one, b), ("shared", a, shared)]
    return out


def _div_doc(d):
    return {"u": _s(c.value for c in d.u.coeffs), "v": _s(c.value for c in d.v.coeffs)}


def _hyper_doc(curve):
    return {"f": _s(c.value for c in curve.f.coeffs), "field": f"GF({curve.field.p})"}


def _valid(sp, d):
    """mumford_validate raises MumfordError on an invalid divisor."""
    sp.mumford_validate(d.u, d.v, d.curve)
    return True


def build_jacobian_gfp(rng, workdir, sp, scale):
    primes = [_next_prime(rng.randrange(900, 1100), sp), 65521, 2**61 - 1]
    curves = [_hyper_curve(rng, sp, p, g) for g in (2, 3) for p in primes]
    pairs = [(c, kind, a, b) for c in curves
             for kind, a, b in _pairs(rng, sp, c, max(1, round(2 * scale)))]

    def check_add(a, b):
        # a valid divisor, equal to Cantor's sum
        def check(res):
            d = getattr(res, "divisor", res)
            return _valid(sp, d) and d == sp.cantor_add(a, b)
        return check

    steps, docs, metas = [], [], []
    for c, kind, a, b in pairs:
        methods = (None, "interpolation") if c.genus == 2 else (None,)
        for method in methods:
            fn = sp.interpolation_add_g2 if method else sp.cantor_add
            steps.append(Call(fn, (a, b), check_add(a, b)))
            doc = {"curve": _hyper_doc(c), "d1": _div_doc(a), "d2": _div_doc(b)}
            if method:
                doc["method"] = method
            docs.append(doc)
            metas.append((a, b))

    def check_line(doc, pair, out):
        want = _div_doc(sp.cantor_add(*pair))
        return (out["u"], out["v"]) == (want["u"], want["v"]) and (
            "method" not in doc or out["fallback"] in (True, False))

    batch = Batch("jac-add", docs, metas, check_line)
    write_batches([batch], workdir)

    def check_mul(k, d):
        # a valid divisor, and kD = (k - 1)D + D
        return lambda res: _valid(sp, res) and res == sp.cantor_add(
            sp.scalar_mul(k - 1, d), d)

    kernel = []
    for c in curves:
        d = sp.divisor_from_points(c, _points(rng, c, c.genus))
        # 64 bits, half of them set: every k costs 63 doublings + 31 adds
        k = (1 << 63) | sum(1 << b for b in rng.sample(range(63), 31))
        kernel.append(Call(sp.scalar_mul, (k, d), check_mul(k, d)))
    c, _, a, b = pairs[len(pairs) // 3]
    cold = [["jac-add", "--curve", json.dumps(_hyper_doc(c)),
             "--d1", json.dumps(_div_doc(a)), "--d2", json.dumps(_div_doc(b))]]
    kinds = {}
    for _, kind, _, _ in pairs:
        kinds[kind] = kinds.get(kind, 0) + 1
    inputs = {"primes": primes, "genera": [2, 3], "pair_kinds": kinds,
              "scalar_bits": 64, "lines_per_cycle": len(docs),
              "kernel": "scalar_mul(k, D), k of 64 bits",
              "step": "cantor_add / interpolation_add_g2"}
    # each kernel call takes 30-100 ms, and cold_call_ms is one command's
    # best time: both need many cycles, while the batch lines are short
    shares = {"batches": 0.2, "kernel": 0.45, "steps": 0.1, "cold": 0.25}
    return Plan([batch], kernel, steps, cold, inputs, shares)


def _hasse_ok(q, n):
    """(sqrt(q) - 1)^4 <= n <= (sqrt(q) + 1)^4, decided exactly: both ends
    are q^2 + 6q + 1 -/+ 4 (q + 1) sqrt(q)."""
    dev = abs(n - (q * q + 6 * q + 1))
    return dev * dev <= 16 * q * (q + 1) ** 2


# jac-order primes, fixed: the count's cost depends on p alone and grows as
# p^2 log p (19 ms at p = 43, 90 ms at p = 127 on a 2-CPU x86 container),
# so every seed times the same cost mix and varies only the curves.  The
# primes stay small, one curve each, so that a batch cycle takes about a
# quarter of a second and each line repeats about fifty times in one run,
# which its best time needs on a shared machine; larger p is a cost item
# (bench/NOTES.md).
GROUP_ORDER_PRIMES = (43, 61, 83, 101, 127)


def build_group_order(rng, workdir, sp, scale):
    primes = GROUP_ORDER_PRIMES[:max(1, round(len(GROUP_ORDER_PRIMES) * scale))]
    curves = [_hyper_curve(rng, sp, p, 2) for p in primes]
    probes = [[sp.divisor_from_points(c, _points(rng, c, k)) for k in (1, 2)]
              for c in curves]

    def order_ok(i, order):
        # in the Hasse-Weil interval, and [N]D = 0 for random divisors D
        return _hasse_ok(primes[i], order) and all(
            sp.scalar_mul(order, d).is_identity for d in probes[i])

    def check_line(doc, i, out):
        p = primes[i]
        return out["q"] == p and out["a"] == p + 1 - out["N1"] and order_ok(i, out["order"])

    batch = Batch("jac-order", [{"curve": _hyper_doc(c)} for c in curves],
                  list(range(len(curves))), check_line)
    write_batches([batch], workdir)
    # the two smallest primes, so the kernel's cycles are short enough to
    # repeat many times within one run
    kernel = [Call(sp.weil_data_g2, (c,), lambda w, i=i: order_ok(i, w.order))
              for i, c in enumerate(curves[:2])]
    steps = [Call(sp.cantor_add, (a, b), lambda d: _valid(sp, d))
             for c in curves for kind, a, b in _pairs(rng, sp, c, 1)
             if kind in ("generic", "doubling")]
    cold = [["jac-order", "--curve", json.dumps(_hyper_doc(curves[0]))]]
    inputs = {"primes": primes, "genus": 2, "lines_per_cycle": len(curves),
              "kernel": "weil_data_g2 at the two smallest primes",
              "step": "cantor_add on the same curves"}
    # the p50 line is one line's best time, and a cold call is one command's:
    # both need many cycles, while the steps are many and short
    shares = {"batches": 0.6, "kernel": 0.2, "steps": 0.05, "cold": 0.15}
    return Plan([batch], kernel, steps, cold, inputs, shares)


# ---------------------------------------------------------------------------
# cli-light


def _genus_formula(n, d):
    return (n * d - n - d - gcd(n, d) + 2) // 2


def _gopel_formula(g, r):
    num = math.prod(2 ** (2 * g - 2 * j) - 1 for j in range(r))
    return num // math.prod(2 ** j - 1 for j in range(1, r + 1))


def _wgcd_brute(xs, ws):
    return max(m for m in range(1, 64) if all(x % m ** w == 0 for x, w in zip(xs, ws)))


def build_cli_light(rng, workdir, sp, scale):
    # Costly kinds (theta genus, atlas genus, family row, Laska scaling)
    # take fixed turns, so every seed times the same cost mix.
    n_lines = max(2, round(20 * scale))
    at, th = sp.atlas, sp.theta

    genus_docs = []
    for k in range(n_lines):
        n = rng.randint(2, 6)
        if k % 10 == 9:                  # a documented domain error: d <= n
            genus_docs.append({"n": n, "d": rng.randint(1, n)})
        else:
            genus_docs.append({"n": n, "d": rng.randint(n + 1, 12)})

    def check_genus(doc, _, out):
        if doc["d"] <= doc["n"]:
            return _domain_error(out)
        return out == {"g": _genus_formula(doc["n"], doc["d"])}

    # every (n, d) with d <= 9 and genus >= 2, each with its own q, in a
    # drawn order: the line costs near the batch median do not depend on
    # the seed, so neither does line_p50_ms
    pairs = [(n, d) for n in range(2, 6) for d in range(n + 1, 10)
             if _genus_formula(n, d) >= 2]
    gap_docs = [{"n": n, "d": d, "q": 1 + i % 3} for i, (n, d) in enumerate(pairs)]
    gap_docs = (gap_docs * (n_lines // len(gap_docs) + 1))[:n_lines]
    rng.shuffle(gap_docs)

    def check_gap(doc, _, out):
        g = _genus_formula(doc["n"], doc["d"])
        dq = g if doc["q"] == 1 else (g - 1) * (2 * doc["q"] - 1)
        return out["d_q"] == dq == len(out["S"]) and out["weight"] >= 0

    # the atlas cache is filled here, in set-up, for every genus queried
    # g and n take turns, over the (g, n) the atlas has records for
    aut_docs = []
    for k in range(n_lines):
        doc = {"g": 2 + k % 3}
        if k % 2:
            ns = [n for n in (2, 3, 4) if at.aut_lookup(doc["g"], n=n)]
            doc["n"] = ns[k // 2 % len(ns)]
        at.aut_lookup(doc["g"], n=doc.get("n"))
        aut_docs.append(doc)

    def check_aut(doc, _, out):
        recs = out["records"]
        return bool(recs) and all(
            r["genus"] == doc["g"] and r["n"] == doc.get("n", r["n"]) for r in recs)

    # row, n, m and the number of parameters take fixed turns (rows 4 and
    # 10 need their parameter); only the parameter values are drawn
    fam_docs, cases = [], (1, 2, 3, 4, 10, 13, 15)
    while len(fam_docs) < n_lines:
        k = len(fam_docs)
        case = cases[k % len(cases)]
        n_params = 1 if case in (4, 10) else k // len(cases) % 2
        doc = {"case": case, "n": 2 + k % 3,
               "params": [str(rng.randint(-9, 9)) for _ in range(n_params)]}
        if case <= 9:
            doc["m"] = 2 + k // 2 % 2
        try:  # keep separable members only; degenerate ones are domain errors
            at.family_equation(doc["case"], doc["n"], doc["params"], m=doc.get("m"))
        except sp.DomainError:
            continue
        fam_docs.append(doc)

    def check_fam(doc, _, out):
        f = out["curve"]["f"]
        return out["curve"]["n"] == doc["n"] and out["genus"] == _genus_formula(
            doc["n"], sp.SuperellipticCurve(
                doc["n"], sp.Poly(sp.QQ, f)).form_degree())

    split_docs = [{"n": rng.randint(2, 9), "m": rng.randint(2, 9),
                   "delta": rng.randint(1, 9)} for _ in range(n_lines)]

    def check_split(doc, _, out):
        n, m, de = doc["n"], doc["m"], doc["delta"]
        lhs = de * (n - 1) * (m - 2)
        rhs = 1 - (gcd(de + 1, n) + gcd(de, n) - gcd(de * m, n))
        return out == {"decomposes": lhs == rhs, "lhs": lhs, "rhs": rhs}

    laska_docs, laska_u = [], []
    while len(laska_docs) < n_lines:
        a = [rng.randint(-20, 20) for _ in range(5)]
        u = (1, 1, 2, 3)[len(laska_docs) % 4]   # u > 1: a non-minimal model
        model = [a[0] * u, a[1] * u**2, a[2] * u**3, a[3] * u**4, a[4] * u**6]
        if sp.EllipticModel(*model).discriminant():
            laska_docs.append({"model": model})
            laska_u.append(u)

    def check_laska(doc, u, out):
        disc_out = sp.EllipticModel(*out["model"]).discriminant()
        return (out["discriminant_in"] == disc_out * out["u"] ** 12
                and out["discriminant_out"] == disc_out and out["u"] % u == 0)

    jv_docs, jv_valid = [], []
    small = []
    for p in (7, 11, 13, 101):
        c = _hyper_curve(rng, sp, p, 2)
        while _points(rng, c, 2) is None:
            c = _hyper_curve(rng, sp, p, 2)
        small.append(c)
    for k in range(n_lines):
        c = small[k % len(small)]
        pts = _points(rng, c, rng.randint(1, 2))
        d = sp.divisor_from_points(c, pts)
        v = [x.value for x in d.v.coeffs]
        valid = k % 3 != 2
        if not valid:
            # v + s passes through (x, y + s); u no longer divides v^2 - f
            # unless (y + s)^2 = y^2 at every point, i.e. s = -2y everywhere
            p = c.field.p
            s = 1 if any((2 * y + 1) % p for _, y in pts) else 2
            v[0] = (v[0] + s) % p
        jv_docs.append({"curve": _hyper_doc(c), "u": _s(x.value for x in d.u.coeffs),
                        "v": _s(v)})
        jv_valid.append(valid)

    def check_jv(doc, valid, out):
        if valid:
            return out["valid"] is True and out["divisor"]["u"] == doc["u"]
        return out["valid"] is False and out["condition"] == "divisibility"

    theta_docs = [{"g": 1 + k % 3} for k in range(n_lines)]

    def check_theta(doc, _, out):
        g = doc["g"]
        even = 2 ** (g - 1) * (2 ** g + 1)
        return (out["even"] == even and out["odd"] == 4 ** g - even
                and out["vanishing_even"] == even - comb(2 * g + 1, g))

    gopel_docs = []
    for _ in range(n_lines):
        g = rng.randint(1, 6)
        gopel_docs.append({"g": g, "r": rng.randint(0, g)})

    def check_gopel(doc, _, out):
        return out == {"count": _gopel_formula(doc["g"], doc["r"])}

    ws = [2, 4, 6, 10]
    wgcd_docs = []
    for k in range(n_lines):
        m = (1, 2, 3, 5, 6)[k % 5]
        xs = [rng.choice((-1, 1)) * rng.randint(1, 7) * m ** w for w in ws]
        wgcd_docs.append({"point": {"coords": _s(xs), "weights": ws}})

    def check_wgcd(doc, _, out):
        return out == {"wgcd": _wgcd_brute([int(x) for x in doc["point"]["coords"]], ws)}

    none = [None] * n_lines
    batches = [
        Batch("genus", genus_docs, none, check_genus),
        Batch("gap-basis", gap_docs, none, check_gap),
        Batch("aut-lookup", aut_docs, none, check_aut),
        Batch("family-eq", fam_docs, none, check_fam),
        Batch("split", split_docs, none, check_split),
        Batch("laska", laska_docs, laska_u, check_laska),
        Batch("jac-validate", jv_docs, jv_valid, check_jv),
        Batch("theta-census", theta_docs, none, check_theta),
        Batch("gopel", gopel_docs, none, check_gopel),
        Batch("wgcd", wgcd_docs, none, check_wgcd),
    ]
    write_batches(batches, workdir)

    # direct calls behind the same commands: the heavier ones are the
    # kernel, the cheap ones the timed steps
    kernel = (
        [Call(at.family_equation, (d["case"], d["n"], d["params"], d.get("m")),
              lambda c, n=d["n"]: c.n == n) for d in fam_docs]
        + [Call(at.aut_lookup, (d["g"], d.get("n")), bool) for d in aut_docs]
        + [Call(sp.laska_reduce, (sp.EllipticModel(*d["model"]),),
                lambda r, u=u: r.u % u == 0) for d, u in zip(laska_docs, laska_u)]
        + [Call(th.vanishing_even_thetanulls, (d["g"],),
                lambda v, g=d["g"]: len(v) == 2 ** (g - 1) * (2 ** g + 1) - comb(2 * g + 1, g))
           for d in theta_docs]
    )
    steps = (
        [Call(at.genus, (d["n"], d["d"]), lambda g, d=d: g == _genus_formula(d["n"], d["d"]))
         for d in genus_docs if d["d"] > d["n"]]
        + [Call(at.weierstrass_gap_basis, (d["n"], d["d"], d["q"]),
                lambda b: len(b.S) == b.d_q) for d in gap_docs]
        + [Call(at.split_jacobian, (d["n"], d["m"], d["delta"]),
                lambda r: r.decomposes == (r.lhs == r.rhs)) for d in split_docs]
        + [Call(th.gopel_count, (d["g"], d["r"]),
                lambda c, d=d: c == _gopel_formula(d["g"], d["r"])) for d in gopel_docs]
        + [Call(th.parity_census, (d["g"],), lambda c, g=d["g"]: sum(c) == 4 ** g)
           for d in theta_docs]
    )
    cold = [["genus", "--n", "2", "--d", "5"]]
    inputs = {
        "commands": [b.cmd for b in batches],
        "lines_per_cycle": sum(len(b.docs) for b in batches),
        "error_lines": sum(d["d"] <= d["n"] for d in genus_docs) + jv_valid.count(False),
        "theta_genera": sorted({d["g"] for d in theta_docs}),
        "laska_nonminimal": sum(u > 1 for u in laska_u),
        "kernel": "family_equation, aut_lookup, laska_reduce, vanishing_even_thetanulls",
        "step": "genus, weierstrass_gap_basis, split_jacobian, gopel_count, parity_census",
    }
    # cold_call_ms is one command's best time, so it gets more cycles
    shares = {"batches": 0.4, "kernel": 0.2, "steps": 0.1, "cold": 0.3}
    return Plan(batches, kernel, steps, cold, inputs, shares)


WORKLOADS = {
    "moduli-q": build_moduli_q,
    "jacobian-gfp": build_jacobian_gfp,
    "group-order": build_group_order,
    "cli-light": build_cli_light,
}
