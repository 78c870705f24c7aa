"""The Python example in README.md runs and gives the results its comments
state."""

import os
import re

from superelliptic.algebra import GF, Poly

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_python_example_runs():
    with open(README) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    ns = {}
    exec(blocks[0], ns)
    F = GF(7)
    twice = ns["cantor_add"](ns["D"], ns["D"])
    assert (twice.u, twice.v) == (Poly(F, [0, 0, 1]), Poly(F, [1]))  # (x^2, 1)
    assert ns["jacobian_order_g2"](ns["H"]) == 50
