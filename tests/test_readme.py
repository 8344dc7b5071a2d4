"""The README's example runs as printed, and every public name has a use
outside the tests."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

import pqbalance

ROOT = Path(__file__).resolve().parents[1]

# Reference routes that the tests compare the package's own routes against:
# a sample average of an oracle signal, and Q of one sinusoid from stored
# energies.  Nothing outside the tests calls them, by design.
REFERENCE_ROUTES = {"numeric_mean", "q_from_stored_energy"}


def readme_blocks(language=r"\w*"):
    """The fenced code blocks of README.md in the given language."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.S | re.M)


def test_readme_quick_start_prints_the_flicker_powers():
    (block,) = readme_blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    p_line, q_line, relatives = out.getvalue().splitlines()
    assert float(p_line) == pytest.approx(10.05, rel=1e-6)
    assert float(q_line) == pytest.approx(-30.15, rel=1e-6)
    assert all(float(r) <= 1e-9 for r in relatives.split())


def references(path):
    """The identifiers a module reads: loaded names, attributes, and the
    parts of dotted names written as strings (``"oracle.ode_transient"``)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"\w+(\.\w+)+", node.value)):
            found.update(node.value.split("."))
    return found


def test_every_public_name_is_used_outside_the_tests():
    # a use in src/ other than the definition and the package's export, in
    # the benchmark harness, or in a README code block
    modules = [path for path in sorted((ROOT / "src" / "pqbalance").glob("*.py"))
               if path.name != "__init__.py"]
    modules += [path for path in sorted((ROOT / "perfbench").glob("*.py"))
                if not path.name.startswith("test_")]
    used = set().union(*map(references, modules))
    used |= set(re.findall(r"\w+", "\n".join(readme_blocks())))
    unused = sorted(set(pqbalance.__all__) - used - REFERENCE_ROUTES)
    assert unused == []
    assert REFERENCE_ROUTES <= set(pqbalance.__all__) - used
