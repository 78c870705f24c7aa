import io
import json

import pytest

from superelliptic.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    main,
    parse_curve,
    curve_out,
)


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines() if line]
    return code, lines


def run_one(argv):
    code, lines = run(argv)
    assert len(lines) == 1
    return code, lines[0]


SEXTIC = json.dumps({"n": 2, "f": ["1", "0", "0", "0", "0", "0", "1"], "field": "Q"})
GF7_CURVE = json.dumps({"f": ["1", "0", "0", "0", "0", "1"], "field": "GF(7)"})


def test_genus():
    code, out = run_one(["genus", "--n", "2", "--d", "5"])
    assert code == EXIT_OK
    assert out == {"g": 2}


def test_genus_domain_error_exit_code():
    code, out = run_one(["genus", "--n", "2", "--d", "2"])
    assert code == EXIT_DOMAIN
    assert out["error"]["kind"] == "domain"


def test_usage_error_exit_code(capsys):
    code = main(["genus", "--bogus", "1"], out=io.StringIO())
    assert code == EXIT_USAGE
    capsys.readouterr()


def test_invariants_sextic():
    code, out = run_one(["invariants", "--curve", SEXTIC])
    assert code == EXIT_OK
    assert out["kind"] == "sextic"
    assert out["J2"] == "-120"
    assert out["J10"] == "-46656"
    # frak relations on the serialized values
    from fractions import Fraction
    J2, J4, J6, J10 = (Fraction(out[k]) for k in ("J2", "J4", "J6", "J10"))
    assert Fraction(out["Afrak"]) == 8 * J2
    assert Fraction(out["Dfrak"]) == 4096 * J10


def test_invariants_parse_error():
    code, out = run_one(["invariants", "--curve", '{"n": 2, "f": "zap"}'])
    assert code == EXIT_PARSE
    assert out["error"]["kind"] == "parse"


def test_invariants_accepts_singular_but_moduli_rejects():
    doc = json.dumps({"n": 2, "f": ["0", "0", "1", "0", "0", "0", "1"], "field": "Q"})
    code, out = run_one(["invariants", "--curve", doc])
    assert code == EXIT_OK and out["J10"] == "0"
    code, out = run_one(["moduli-point", "--curve", doc])
    assert code == EXIT_DOMAIN


def test_equivalent_round_trip():
    other = json.dumps(
        {"n": 2, "f": ["1", "6", "15", "20", "15", "6", "2"], "field": "Q"}
    )  # f(x+1) of x^6+1
    code, out = run_one(["equivalent", "--curve1", SEXTIC, "--curve2", other])
    assert code == EXIT_OK
    assert out["equivalent"] is True


def test_moduli_point_and_height():
    code, out = run_one(["moduli-point", "--curve", SEXTIC])
    assert code == EXIT_OK
    assert out["weights"] == [2, 4, 6, 10]
    point = json.dumps({"coords": ["3", "1", "1", "1"], "weights": [2, 4, 6, 10]})
    code, out = run_one(["height", "--point", point])
    assert out["height"]["radicand"] == "3"
    assert out["height"]["root"] == 2
    assert abs(out["height"]["approx"] - 3**0.5) < 1e-12


def test_wgcd():
    point = json.dumps({"coords": ["4", "16", "64", "1024"], "weights": [2, 4, 6, 10]})
    code, out = run_one(["wgcd", "--point", point])
    assert out == {"wgcd": 2}


def test_minimal():
    # x-direction planting with lambda = 2 on x^6 + ... + 1
    from fractions import Fraction
    g = [1, 2, -1, 3, 1, -2, 1]
    f = [str(c * Fraction(2) ** (6 - j)) for j, c in enumerate(g)]
    doc = json.dumps({"n": 2, "f": f, "field": "Q"})
    code, out = run_one(["minimal", "--curve", doc])
    assert code == EXIT_OK
    assert out["lambda"] == 2
    assert out["curve"]["f"] == [str(c) for c in g]
    assert out["fully_minimal"] is True


def test_laska():
    code, out = run_one(["laska", "--model", "[0,-1,1,0,0]"])
    assert code == EXIT_OK
    assert out["u"] == 1 and out["discriminant_out"] == -11


def test_aut_lookup():
    code, out = run_one(
        ["aut-lookup", "--g", "3", "--n", "4", "--reduced-group", "V4",
         "--dimension", "1"]
    )
    assert code == EXIT_OK
    assert out["records"][0]["group"] == "V4 x C4"


def test_family_eq():
    code, out = run_one(["family-eq", "--case", "10", "--n", "2",
                          "--params", "[0]"])
    assert code == EXIT_OK
    assert out["curve"]["f"] == ["1", "0", "0", "0", "-33", "0", "0", "0",
                                  "-33", "0", "0", "0", "1"]


def test_family_eq_out_of_scope():
    code, out = run_one(["family-eq", "--case", "40", "--n", "2", "--params", "[]"])
    assert code == EXIT_DOMAIN


def test_split():
    code, out = run_one(["split", "--n", "2", "--m", "2", "--delta", "7"])
    assert out == {"decomposes": True, "lhs": 0, "rhs": 0}


def test_jac_validate_valid_and_invalid():
    code, out = run_one(["jac-validate", "--curve", GF7_CURVE,
                          "--u", '["0","1"]', "--v", '["1"]'])
    assert code == EXIT_OK and out["valid"] is True
    code, out = run_one(["jac-validate", "--curve", GF7_CURVE,
                          "--u", '["0","1"]', "--v", '["3"]'])
    assert code == EXIT_OK and out["valid"] is False
    assert out["condition"] == "divisibility"


def test_jac_add_identity():
    code, out = run_one(["jac-add", "--curve", GF7_CURVE,
                          "--d1", '{"u":["0","1"],"v":["1"]}',
                          "--d2", '{"u":["1"],"v":[]}'])
    assert code == EXIT_OK
    assert out == {"u": ["0", "1"], "v": ["1"]}


def test_jac_add_interpolation_method():
    code, out = run_one(["jac-add", "--curve", GF7_CURVE,
                          "--d1", '{"u":["0","1"],"v":["1"]}',
                          "--d2", '{"u":["0","1"],"v":["1"]}',
                          "--method", "interpolation"])
    assert code == EXIT_OK
    assert out["fallback"] is True
    assert out["u"] == ["0", "0", "1"]


def test_jac_order():
    code, out = run_one(["jac-order", "--curve", GF7_CURVE])
    assert out["order"] == 50 and out["N1"] == 8 and out["N2"] == 50


def test_jac_order_with_h_exact_output():
    curve = '{"f":["1","0","0","0","0","1"],"field":"GF(7)","h":["1","1","1"]}'
    buf = io.StringIO()
    assert main(["jac-order", "--curve", curve], out=buf) == EXIT_OK
    assert buf.getvalue() == '{"N1":7,"N2":69,"a":1,"b":-4,"order":52,"q":7}\n'


def test_jac_order_refuses_large_p():
    curve = json.dumps({"f": ["1", "1", "0", "0", "0", "1"], "field": "GF(10007)"})
    code, out = run_one(["jac-order", "--curve", curve])
    assert code == EXIT_DOMAIN
    assert out["error"]["kind"] == "domain"
    assert "50070024 evaluations" in out["error"]["message"]


def test_theta_census():
    code, out = run_one(["theta-census", "--g", "2"])
    assert out["even"] == 10 and out["odd"] == 6 and out["vanishing_even"] == 0


def test_gopel():
    code, out = run_one(["gopel", "--g", "2", "--r", "2"])
    assert out == {"count": 15}


def test_round_trip_curve_document():
    doc = json.loads(SEXTIC)
    curve = parse_curve(doc)
    assert curve_out(curve) == doc


def test_batch_mode(tmp_path):
    batch = tmp_path / "batch.jsonl"
    batch.write_text(
        '{"n": 2, "d": 5}\n'
        '{"n": 2, "d": 2}\n'
        '{"n": 3, "d": 4}\n'
        'not json\n'
    )
    code, lines = run(["genus", "--input", str(batch)])
    assert code == EXIT_OK
    assert len(lines) == 4
    assert lines[0] == {"g": 2}
    assert lines[1]["error"]["kind"] == "domain"
    assert lines[2] == {"g": 3}
    assert lines[3]["error"]["kind"] == "parse"


def test_pretty_format():
    buf = io.StringIO()
    code = main(["--format", "pretty", "genus", "--n", "2", "--d", "5"], out=buf)
    assert code == EXIT_OK
    assert json.loads(buf.getvalue()) == {"g": 2}
    assert "\n" in buf.getvalue().strip()
