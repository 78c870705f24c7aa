"""The CLI contract: a pinned transcript, regression tests for inputs that
used to be misread or to abort a batch, and a fuzz test over argument
documents for every subcommand."""

import io
import json
import os
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from superelliptic.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    HANDLERS,
    KINDS,
    PARAMS,
    main,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def _pinned(name="pinned_cli.jsonl"):
    with open(os.path.join(DATA, name)) as fh:
        return [json.loads(line) for line in fh]


def _call(argv, batch=None, tmp=None):
    """(exit code, stdout) of one in-process call; `batch` is the text of
    the file that replaces the argument "{input}"."""
    if batch is not None:
        path = os.path.join(str(tmp), "batch.jsonl")
        with open(path, "w") as fh:
            fh.write(batch)
        argv = [path if a == "{input}" else a for a in argv]
    buf = io.StringIO()
    return main(argv, out=buf), buf.getvalue()


@pytest.mark.parametrize("case", _pinned(), ids=lambda c: " ".join(c["argv"][:2]))
def test_pinned_transcript(case, tmp_path, capsys):
    assert _call(case["argv"], case["batch"], tmp_path) == (case["exit"], case["stdout"])
    capsys.readouterr()


# jac-add (both methods, every pair kind, h = 0 and h != 0) and jac-validate
# at the primes 1009, 65521 and 2^61 - 1 in genus 2 and 3, captured before
# Cantor's addition moved onto raw residue vectors
@pytest.mark.parametrize("case", _pinned("pinned_jacobian_cli.jsonl"),
                         ids=lambda c: " ".join(c["argv"][:2]))
def test_pinned_jacobian_transcript(case, tmp_path, capsys):
    assert _call(case["argv"], case["batch"], tmp_path) == (case["exit"], case["stdout"])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# regressions: each input was misread, or aborted the batch, before the
# single parse boundary


def _batch(cmd, docs, tmp_path):
    """Output objects of a batch of `docs`, with one good line after them."""
    good = {"genus": {"n": 2, "d": 5}, "laska": {"model": [0, -1, 1, 0, 0]},
            "wgcd": {"point": {"coords": ["4", "16"], "weights": [2, 4]}},
            "family-eq": {"case": 10, "n": 2, "params": ["0"]},
            "theta-census": {"g": 2}, "gopel": {"g": 2, "r": 2},
            "invariants": {"curve": {"n": 2, "f": ["1", "0", "0", "0", "0", "0", "1"]}}}[cmd]
    text = "".join(json.dumps(d) + "\n" for d in docs + [good])
    code, out = _call([cmd, "--input", "{input}"], text, tmp_path)
    assert code == EXIT_OK
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == len(docs) + 1
    assert "error" not in lines[-1]
    return lines[:-1]


def _kinds(lines):
    return [line.get("error", {}).get("kind") for line in lines]


def test_float_and_bool_integers_are_parse_errors(tmp_path):
    lines = _batch("genus", [{"n": 2.7, "d": 5}, {"n": True, "d": 5},
                             {"n": 2, "d": 5.0}], tmp_path)
    assert _kinds(lines) == ["parse"] * 3
    assert lines[0]["error"]["message"] == "n must be an integer, got 2.7"


def test_decimal_string_integers_are_accepted(tmp_path):
    assert _batch("genus", [{"n": "2", "d": "5"}], tmp_path) == [{"g": 2}]


def test_laska_float_coefficient_is_a_parse_error(tmp_path):
    lines = _batch("laska", [{"model": [1, 2, 3, 4, 5.5]},
                             {"model": [1, 2, 3, 4, False]},
                             {"model": "12345"}], tmp_path)
    assert _kinds(lines) == ["parse"] * 3


def test_string_coordinates_are_not_a_list(tmp_path):
    lines = _batch("wgcd", [{"point": {"coords": "12", "weights": [2, 4]}},
                            {"point": {"coords": ["1", "2"], "weights": "24"}}],
                   tmp_path)
    assert _kinds(lines) == ["parse"] * 2


def test_family_eq_bad_params_do_not_abort(tmp_path):
    lines = _batch("family-eq", [{"case": 10, "n": 2, "params": "ab"},
                                 {"case": 10, "n": 2, "params": {"a": 1}},
                                 {"case": 10, "n": 2, "params": ["ab"]}], tmp_path)
    assert _kinds(lines) == ["parse"] * 3


def test_theta_census_negative_and_huge_genus_do_not_abort(tmp_path):
    lines = _batch("theta-census", [{"g": -1}, {"g": 2**70}, {"g": 0}], tmp_path)
    assert _kinds(lines) == ["domain"] * 3
    assert lines[0]["error"]["message"] == "need g >= 1"
    assert "decimal digits" in lines[1]["error"]["message"]


def test_gopel_past_the_digit_limit_does_not_abort(tmp_path):
    lines = _batch("gopel", [{"g": 200, "r": 100}], tmp_path)
    assert _kinds(lines) == ["domain"]
    assert "about 7541 decimal digits" in lines[0]["error"]["message"]


def test_genus_past_the_digit_limit_does_not_abort(tmp_path):
    # two 2200-digit inputs make a genus of about 4400 digits
    n, d = "1" * 2200, "2" * 2200 + "1"
    lines = _batch("genus", [{"n": n, "d": d}], tmp_path)
    assert _kinds(lines) == ["domain"]
    assert lines[0]["error"]["message"] == "a result has more than 4300 digits and is not printed"
    code, out = _call(["genus", "--n", n, "--d", d])
    assert code == EXIT_DOMAIN
    assert json.loads(out)["error"]["kind"] == "domain"


def test_invariant_past_the_digit_limit_does_not_abort(tmp_path):
    # 451-digit coefficients: J10, of degree 10 in them, passes 4300 digits
    c = "1" + "0" * 450
    curve = {"n": 2, "f": [c, "3", "-" + c, "7", "1", c, "5"]}
    lines = _batch("invariants", [{"curve": curve}], tmp_path)
    assert _kinds(lines) == ["domain"]
    code, out = _call(["invariants", "--curve", json.dumps(curve)])
    assert code == EXIT_DOMAIN


def test_theta_census_large_genus_is_a_closed_form():
    code, out = _call(["theta-census", "--g", "30"])
    even = 2**29 * (2**30 + 1)
    assert code == EXIT_OK
    assert json.loads(out) == {"even": even, "odd": 4**30 - even,
                               "vanishing_even": even - comb(61, 30),
                               "vanishing_sets": None}


@pytest.mark.parametrize("argv", [
    ["invariants", "--curve", "not json"],
    ["genus", "--n", "abc", "--d", "5"],
    ["genus", "--n", "2.5", "--d", "5"],
    ["laska", "--model", "[0, -1"],
])
def test_bad_flag_values_exit_4_with_a_json_error(argv, capsys):
    code, out = _call(argv)
    assert code == EXIT_PARSE
    assert json.loads(out)["error"]["kind"] == "parse"
    assert capsys.readouterr().err == ""


def test_bad_json_flag_message():
    code, out = _call(["invariants", "--curve", "not json"])
    assert json.loads(out)["error"]["message"] == (
        "bad JSON argument: Expecting value: line 1 column 1 (char 0)")


def test_bad_field_name_type_is_a_parse_error():
    curve = json.dumps({"n": 2, "f": ["1", "0", "0", "0", "0", "0", "1"], "field": 7})
    code, out = _call(["invariants", "--curve", curve])
    assert code == EXIT_PARSE


def test_integer_past_the_digit_limit_in_a_line_is_a_parse_error(tmp_path):
    code, out = _call(["genus", "--input", "{input}"],
                      '{"n": %s, "d": 5}\n{"n": 2, "d": 5}\n' % ("1" * 5000), tmp_path)
    assert code == EXIT_OK
    first, second = out.splitlines()
    assert json.loads(first)["error"]["kind"] == "parse"
    assert second == '{"g":2}'


def test_undecodable_batch_file_is_an_io_error(tmp_path):
    path = tmp_path / "batch.jsonl"
    path.write_bytes(b'{"n": 2, "d": 5}\n\xff\xfe\n')
    code, out = _call(["genus", "--input", str(path)])
    assert code == EXIT_USAGE
    assert json.loads(out)["error"]["kind"] == "io"


# ---------------------------------------------------------------------------
# regressions: numbers past float range, roots over every GF(p), and
# factoring that stops; each ended in a traceback or a refusal before


def _curve(f, field="Q"):
    return json.dumps({"n": 2, "f": [str(c) for c in f], "field": field})


def test_equivalent_with_invariants_past_float_range():
    # J2 = J4 = J6 = 0, so the scale is a 10th root of a 1200-digit ratio
    code, out = _call(["equivalent", "--curve1", _curve([1, 0, 0, 0, 0, 1]),
                       "--curve2", _curve([1, 0, 0, 0, 0, 10**200])])
    assert (code, json.loads(out)) == (EXIT_OK, {"equivalent": True, "scale": f"1/{10**120}"})


def test_equivalent_over_gf_65537():
    f = _curve([1, 2, 0, 3, 0, 5, 1], "GF(65537)")
    assert _call(["equivalent", "--curve1", f, "--curve2", f]) == (
        EXIT_OK, '{"equivalent":true,"scale":"1"}\n')


def test_laska_past_float_range():
    u = 2**300
    code, out = _call(["laska", "--model", json.dumps([u, 0, 0, -3 * u**4, -2 * u**6])])
    assert code == EXIT_OK
    assert (json.loads(out)["model"], json.loads(out)["u"]) == ([1, 0, 0, -3, -2], u)
    # a 992-digit discriminant with a cofactor rho cannot split in its budget
    code, out = _call(["laska", "--model", json.dumps([0, 0, 0, 10**330, 1])])
    assert code == EXIT_DOMAIN
    assert "decimal digits" in json.loads(out)["error"]["message"]


def test_height_past_float_range():
    big = str(10**400 + 1)
    code, out = _call(["height", "--point", json.dumps({"coords": [big, "1"], "weights": [2, 3]})])
    height = json.loads(out)["height"]
    assert (code, height["radicand"], height["root"]) == (EXIT_OK, big, 2)
    assert abs(height["approx"] / 1e200 - 1) < 1e-9
    code, out = _call(["height", "--point", json.dumps({"coords": [big, "1"], "weights": [1, 3]})])
    assert (code, json.loads(out)["height"]["approx"]) == (EXIT_OK, None)
    assert '"approx":null' in out


# ---------------------------------------------------------------------------
# fuzz: any argument document ends in a documented exit code and JSON


SMALL = st.integers(-4, 10)
SCALARS = st.one_of(st.none(), st.booleans(), SMALL, st.floats(width=16),
                    st.text(max_size=4), SMALL.map(str))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
COEFFS = st.lists(st.integers(-3, 3).map(str), min_size=5, max_size=7)
POLY = st.one_of(COEFFS, st.lists(st.one_of(SCALARS, st.just("1")), max_size=7))
# documents shaped like curves, points and divisors, with noisy values
DOCS = st.one_of(
    VALUES, POLY,
    st.fixed_dictionaries(
        {"n": st.one_of(st.just(2), st.integers(1, 4), SCALARS), "f": POLY},
        optional={"h": POLY, "field": st.one_of(
            st.sampled_from(["Q", "GF(7)", "GF(11)", "GF(9)", "GF(x"]), SCALARS)}),
    st.fixed_dictionaries({"coords": POLY, "weights": st.one_of(
        st.lists(st.integers(0, 6), max_size=5), st.lists(SCALARS, max_size=5))}),
    st.fixed_dictionaries({"u": POLY, "v": POLY}),
)
NEAR = {  # a value near each kind, by its check
    KINDS["int"][0]: SMALL, KINDS["str"][0]: st.sampled_from(["interpolation", "V4", ""]),
    KINDS["doc"][0]: DOCS, KINDS["list"][0]: POLY}


GF7 = {"f": ["1", "0", "0", "0", "0", "1"], "field": "GF(7)"}
SEXTIC = {"n": 2, "f": ["1", "0", "0", "0", "0", "0", "1"], "field": "Q"}
POINT = {"coords": ["4", "16", "64", "1024"], "weights": [2, 4, 6, 10]}
DIVISOR = {"u": ["0", "1"], "v": ["1"]}
GOOD = {  # one good document per subcommand, for the fuzz to disturb
    "genus": {"n": 2, "d": 5}, "gap-basis": {"n": 2, "d": 6, "q": 2},
    "invariants": {"curve": SEXTIC}, "moduli-point": {"curve": SEXTIC},
    "equivalent": {"curve1": SEXTIC, "curve2": SEXTIC}, "minimal": {"curve": SEXTIC},
    "height": {"point": POINT}, "wgcd": {"point": POINT},
    "laska": {"model": [0, -1, 1, 0, 0]},
    "aut-lookup": {"g": 3, "n": 4, "reduced_group": "V4"},
    "family-eq": {"case": 1, "n": 3, "m": 2, "params": ["1", "-2"]},
    "split": {"n": 2, "m": 2, "delta": 7},
    "jac-validate": {"curve": GF7, **DIVISOR},
    "jac-add": {"curve": GF7, "d1": DIVISOR, "d2": DIVISOR, "method": "interpolation"},
    "jac-order": {"curve": GF7}, "theta-census": {"g": 3}, "gopel": {"g": 4, "r": 2},
}


def _documents(cmd):
    """Lists of argument documents for cmd: the good one with some values
    replaced by values near their kind or by any values, or any keys with
    any values."""
    kinds, good = PARAMS[cmd], GOOD[cmd]
    value = {k: st.one_of(st.just(good.get(k)), NEAR[check], VALUES)
             for k, (check, _, _) in kinds.items()}
    disturbed = st.fixed_dictionaries(value, optional={"extra": VALUES})
    loose = st.dictionaries(st.sampled_from(list(kinds) + ["extra"]), VALUES)
    return st.lists(st.one_of(disturbed, loose), min_size=1, max_size=3)


def _flag(value):
    return value if isinstance(value, str) else json.dumps(value)


@pytest.fixture(scope="module")
def batch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("cmd", sorted(HANDLERS))
def test_fuzz_argument_documents(cmd, batch_dir):
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_documents(cmd))
    def run(docs):
        for doc in docs:
            argv = [cmd] + [f"--{k.replace('_', '-')}={_flag(v)}"
                            for k, v in doc.items() if k in PARAMS[cmd] and v is not None]
            code, out = _call(argv)
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_DOMAIN, EXIT_PARSE)
            json.loads(out)
        text = "".join(json.dumps(doc) + "\n" for doc in docs)
        code, out = _call([cmd, "--input", "{input}"], text, batch_dir)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == len(docs)
        for line in lines:
            json.loads(line)

    run()
