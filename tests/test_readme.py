"""The README's example runs as printed, and every public name has a use
outside the tests."""

import ast
import contextlib
import inspect
import io
import re
import types
from pathlib import Path

import pytest

import pqbalance

ROOT = Path(__file__).resolve().parents[1]

# Reference routes that the tests compare the package's own routes against:
# a sample average of an oracle signal, and Q of one sinusoid from stored
# energies.  Nothing outside the tests calls them, by design.
REFERENCE_ROUTES = {"numeric_mean", "q_from_stored_energy"}

# Members of exported classes that only the tests read, one reason each.
TEST_MEMBERS = {
    "zero",  # LineSpectrum constructor the tests build sources with
    "dc",  # LineSpectrum constructor the tests build sources with
    "tone",  # LineSpectrum constructor the tests build sources with
    "derivative",  # the exact spectrum of dW/dt that tests/test_power.py holds scaled to
    "is_zero",  # the tests' check that a solved spectrum holds no line at all
}


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
    """The identifiers a module reads, as (names, attributes): its loaded
    names, and its attributes with the parts of dotted names written as
    strings (``"oracle.ode_transient"``)."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"\w+(\.\w+)+", node.value)):
            attributes.update(node.value.split("."))
    return names, attributes


def test_every_public_name_is_used_outside_the_tests():
    # a use in src/ other than the definition and the package's export, in
    # the benchmark harness, or in a README code block; a method or
    # property of an exported class is used where it is read as an attribute
    modules = [path for path in sorted((ROOT / "src" / "pqbalance").glob("*.py"))
               if path.name != "__init__.py"]
    modules += [path for path in sorted((ROOT / "perfbench").glob("*.py"))
                if not path.name.startswith("test_")]
    names, attributes = set(), set()
    for found_names, found_attributes in map(references, modules):
        names |= found_names
        attributes |= found_attributes
    code = "\n".join(readme_blocks())
    names |= set(re.findall(r"\w+", code))
    attributes |= set(re.findall(r"\.(\w+)", code))
    used = names | attributes
    unused = sorted(set(pqbalance.__all__) - used - REFERENCE_ROUTES)
    assert unused == []
    assert REFERENCE_ROUTES <= set(pqbalance.__all__) - used
    members = {member
               for cls in map(vars(pqbalance).get, pqbalance.__all__) if inspect.isclass(cls)
               for member, value in vars(cls).items()
               if not member.startswith("_") and isinstance(
                   value, (types.FunctionType, property, classmethod, staticmethod))}
    assert sorted(members - attributes - TEST_MEMBERS) == []
    assert TEST_MEMBERS <= members - attributes
