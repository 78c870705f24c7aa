"""Cold start: the package resolves its public names on first use, and a
CLI call imports only the library modules its command runs.

The in-process suite has every module loaded long before these tests run,
so each check that depends on what is loaded runs in a fresh interpreter."""

import io
import json
import os
import subprocess
import sys

import pytest

import superelliptic
from superelliptic.cli import HANDLERS, main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(superelliptic.__file__)))
DATA = os.path.join(os.path.dirname(__file__), "data")
ENV = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))

# every name `superelliptic/__init__.py` bound when it imported its modules
# eagerly, then the version and the submodules
PUBLIC = """
    GF QQ BinaryForm GFElement Mat2 Poly discriminant resultant transvectant
    SuperellipticCurve
    CharacteristicError DomainError NotInAtlasError ParseError
    SingularCurveError UnsupportedCaseError
    DihedralInvariants OctavicInvariants SexticInvariants clebsch_sextic
    dihedral_invariants igusa_sextic multiplicity_profile octavic_equivalent
    octavic_invariants sextic_equivalent
    WeightedHeight WeightedPoint enumerate_bounded_height moduli_point normalize
    normalized_height star_act weighted_height wgcd wpoint_equal
    EllipticModel LaskaReport c4c6 is_minimal_tuple laska_reduce
    superelliptic_minimal
    HyperCurve JacobiTriple MumfordDivisor MumfordError cantor_add
    divisor_from_points enumerate_divisors identity interpolation_add_g2
    jacobi_polynomials jacobian_order_g2 mumford_validate negate scalar_mul
    weil_data_g2
    AutRecord GapBasis aut_lookup branch_weight family_equation genus
    quotient_equations split_jacobian weierstrass_gap_basis
    HalfIntChar branch_characteristic gopel_count parity parity_census
    syzygetic triple_syzygetic vanishing_even_thetanulls
    __version__
    algebra atlas cli curves errors invariants jacobian minimal theta weighted
""".split()


def _fresh(code, *args):
    """stdout of `python -c code args...` in a fresh interpreter that
    imports this package."""
    proc = subprocess.run([sys.executable, "-c", code, *args], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# ---------------------------------------------------------------------------
# the public-name contract


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(superelliptic, name) is not None, name
    assert superelliptic.Poly is superelliptic.algebra.Poly
    assert superelliptic.cli is sys.modules["superelliptic.cli"]


# in a fresh interpreter, where no name has been resolved yet


def test_star_import_binds_every_public_name():
    bound = json.loads(_fresh("import json\nfrom superelliptic import *\n"
                              "print(json.dumps(sorted(globals())))"))
    assert set(PUBLIC) <= set(bound)


def test_dir_lists_every_public_name():
    listed = json.loads(_fresh("import json, superelliptic; "
                               "print(json.dumps(dir(superelliptic)))"))
    assert set(PUBLIC) <= set(listed)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        superelliptic.no_such_name
    with pytest.raises(ImportError):
        exec("from superelliptic import no_such_name", {})


def test_importing_the_package_loads_no_module():
    loaded = json.loads(_fresh(
        "import json, sys, superelliptic; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('superelliptic'))))"))
    assert loaded == ["superelliptic"]


# ---------------------------------------------------------------------------
# a CLI call loads only its command's modules

SEXTIC = json.dumps({"n": 2, "f": ["1", "2", "0", "3", "0", "-1", "1"]})
HYPER = json.dumps({"f": ["3", "1", "4", "1", "5", "1"], "field": "GF(43)"})
POINT = json.dumps({"u": ["1"], "v": []})

LOADS = """
import io, json, sys
from superelliptic.cli import main
code = main(sys.argv[1:], out=io.StringIO())
print(json.dumps([code, [m.split(".", 1)[1] for m in sys.modules
                         if m.startswith("superelliptic.")]]))
"""


@pytest.mark.parametrize("argv, unused", [
    (["genus", "--n", "2", "--d", "5"],
     {"jacobian", "invariants", "weighted", "minimal", "theta"}),
    (["jac-add", "--curve", HYPER, "--d1", POINT, "--d2", POINT],
     {"invariants", "weighted", "minimal", "atlas", "theta", "curves"}),
    (["jac-order", "--curve", HYPER],
     {"invariants", "weighted", "minimal", "atlas", "theta", "curves"}),
    (["invariants", "--curve", SEXTIC],
     {"jacobian", "atlas", "minimal", "theta", "weighted"}),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_a_command_loads_only_its_modules(argv, unused):
    code, loaded = json.loads(_fresh(LOADS, *argv))
    assert code == 0
    assert "cli" in loaded and not unused & set(loaded), loaded


# ---------------------------------------------------------------------------
# every subcommand runs in a fresh interpreter, as it runs in-process


def _first_answer(command):
    """argv of the first pinned one-shot call of `command` that exits 0."""
    for name in ("pinned_cli.jsonl", "pinned_invariants_cli.jsonl",
                 "pinned_jacobian_cli.jsonl"):
        with open(os.path.join(DATA, name)) as fh:
            for line in fh:
                if line.startswith("#"):
                    continue
                case = json.loads(line)
                if case["argv"][:1] == [command] and not case.get("batch") \
                        and case["exit"] == 0:
                    return case["argv"]
    raise LookupError(f"no pinned call of {command}")


# a genus past CPython's int-to-str digit limit reaches `_run`'s error map
DIGIT_LIMIT = ["genus", "--n", "1" * 2200, "--d", "2" * 2200 + "1"]


@pytest.mark.parametrize("argv", [
    *(pytest.param(_first_answer(c), id=c) for c in sorted(HANDLERS)),
    pytest.param(DIGIT_LIMIT, id="genus-past-the-digit-limit"),
])
def test_every_subcommand_runs_in_a_fresh_interpreter(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    proc = subprocess.run([sys.executable, "-m", "superelliptic.cli", *argv],
                          env=ENV, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, buf.getvalue()), proc.stderr
