import io
import json
import os
import subprocess
import sys

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
    curve = json.dumps({"f": ["1", "1", "0", "0", "0", "1"], "field": "GF(1000003)"})
    code, out = run_one(["jac-order", "--curve", curve])
    assert code == EXIT_DOMAIN
    assert out["error"]["kind"] == "domain"
    assert "4000012 table and recurrence steps" in out["error"]["message"]


def test_gap_basis_refuses_past_its_cap():
    # d_q = (g - 1)(2q - 1) = 19999999 at genus 2: refused before any work
    code, out = run_one(["gap-basis", "--n", "2", "--d", "5", "--q", "10000000"])
    assert code == EXIT_DOMAIN
    assert out == {"error": {"kind": "domain", "message":
                             "the gap basis at (n, d, q) = (2, 5, 10000000) has "
                             "d_q = 19999999 pairs; supported up to 250000"}}


def test_family_eq_refuses_past_its_cap():
    # row 4 has degree 2 m delta = 2 * 10^9: refused before any product
    code, out = run_one(["family-eq", "--case", "4", "--n", "2", "--m", "1000000000",
                         "--params", '["3"]'])
    assert code == EXIT_DOMAIN
    assert out == {"error": {"kind": "domain", "message":
                             "the equation of family row 4 has degree 2000000000; "
                             "supported up to 1500"}}


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


def test_jac_add_bad_divisor_document_is_a_parse_error():
    for d1 in ('{"u":["1","1"]}', '{"v":[]}', '["0","1"]', '"x"'):
        code, out = run_one(["jac-add", "--curve", GF7_CURVE,
                              "--d1", d1, "--d2", '{"u":["1"],"v":[]}'])
        assert code == EXIT_PARSE
        assert out["error"]["kind"] == "parse"


def test_jac_validate_bad_polynomial_is_a_parse_error():
    code, out = run_one(["jac-validate", "--curve", GF7_CURVE,
                          "--u", '{"u":["0","1"]}', "--v", '["1"]'])
    assert code == EXIT_PARSE
    assert out["error"]["kind"] == "parse"


def test_jac_add_batch_survives_bad_divisor_documents(tmp_path):
    batch = tmp_path / "batch.jsonl"
    good = '{"u":["0","1"],"v":["1"]}'
    one = '{"u":["1"],"v":[]}'
    batch.write_text("".join(
        f'{{"curve":{GF7_CURVE},"d1":{d1},"d2":{one}}}\n'
        for d1 in ('{"u":["1","1"]}', '[1, 2]', good)))
    code, lines = run(["jac-add", "--input", str(batch)])
    assert code == EXIT_OK
    assert len(lines) == 3
    assert lines[0]["error"]["kind"] == "parse"
    assert lines[1]["error"]["kind"] == "parse"
    assert lines[2] == {"u": ["0", "1"], "v": ["1"]}


def test_batch_non_integer_parameter_is_a_parse_error(tmp_path):
    batch = tmp_path / "batch.jsonl"
    batch.write_text('{"n":"abc","d":5}\n{"n":2,"d":5}\n')
    buf = io.StringIO()
    assert main(["genus", "--input", str(batch)], out=buf) == EXIT_OK
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["error"]["kind"] == "parse"
    assert lines[1] == '{"g":2}'


def test_non_integer_parameters_exit_4():
    curve = json.dumps({"n": "two", "f": ["1", "0", "0", "0", "0", "0", "1"]})
    point = json.dumps({"coords": ["1", "1"], "weights": [2, "x"]})
    for argv in (["invariants", "--curve", curve], ["wgcd", "--point", point]):
        code, out = run_one(argv)
        assert code == EXIT_PARSE
        assert out["error"]["kind"] == "parse"


def test_jac_add_genus3_large_prime_exact_output():
    p = 2**61 - 1
    curve = json.dumps({"f": [
        "1489329878329068627", "2269205535523441385", "2274309302370876691",
        "779222883399882028", "1402210985913227600", "841759630796083490",
        "30675433304177377", "1"], "field": f"GF({p})"})
    d1 = json.dumps({"u": ["1665653921126696702", "1516049934625186647",
                           "1206641574776132989", "1"],
                     "v": ["972826591379888465", "795076882934527523",
                           "203590066424364849"]})
    d2 = json.dumps({"u": ["1792690025924275164", "1188048945743033454",
                           "764022712120607611", "1"],
                     "v": ["619974058466764963", "860448059198958561",
                           "2054454034614591682"]})
    buf = io.StringIO()
    assert main(["jac-add", "--curve", curve, "--d1", d1, "--d2", d2], out=buf) == EXIT_OK
    assert buf.getvalue() == (
        '{"u":["1612025396579653443","131134236925423489","212180211732050181","1"],'
        '"v":["476706756785300547","1624938643145361103","706324861615662845"]}\n')


def test_consecutive_calls_match_fresh_processes():
    calls = [
        ["genus", "--n", "2", "--d", "5"],
        ["--format", "pretty", "jac-order", "--curve", GF7_CURVE],
        ["gopel", "--format", "pretty", "--g", "2", "--r", "2"],
        ["invariants", "--curve", SEXTIC],
        ["genus", "--n", "2", "--d", "2"],
        ["theta-census", "--g", "2"],
    ]
    in_process = []
    for argv in calls:
        buf = io.StringIO()
        in_process.append((main(argv, out=buf), buf.getvalue()))
    src = os.path.dirname(os.path.dirname(os.path.abspath(main.__code__.co_filename)))
    env = dict(os.environ, PYTHONPATH=src)
    for argv, (code, text) in zip(calls, in_process):
        proc = subprocess.run([sys.executable, "-m", "superelliptic.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (code, text)
