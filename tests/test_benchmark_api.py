"""The library surface that perfbench/child.py calls still exists.

The benchmark child is read as source, never run or imported, so a renamed
export or constructor keyword fails here instead of in a benchmark run.
"""

import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import theta_tails
from theta_tails import MuAbSampler, TailCurve, enumerate_orbit, normalize_pair, sampling_law

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
TREE = ast.parse(CHILD.read_text())


def _uses_of_the_package() -> set[str]:
    """Names taken from theta_tails by `from theta_tails import ...` or
    `theta_tails.<name>`."""
    names = set()
    for node in ast.walk(TREE):
        if isinstance(node, ast.ImportFrom) and node.module == "theta_tails":
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "theta_tails"
        ):
            names.add(node.attr)
    return names


def _keywords_of(callee: str) -> set[str]:
    """Keyword names child.py passes to calls of `callee`, by any spelling."""
    keywords = set()
    for node in ast.walk(TREE):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == callee:
                keywords.update(k.arg for k in node.keywords)
    return keywords


def test_every_name_the_child_uses_exists():
    names = _uses_of_the_package()
    assert {"MuAbSampler", "TailCurve", "cli"} <= names  # the parse found the imports
    missing = [
        name
        for name in sorted(names)
        if not hasattr(theta_tails, name)
        and importlib.util.find_spec(f"theta_tails.{name}") is None
    ]
    assert missing == []


@pytest.mark.parametrize("callee", ["MuAbSampler", "TailCurve"])
def test_the_child_constructors_still_construct(callee):
    pair = normalize_pair(1, 6)
    samples = {
        "MuAbSampler": (MuAbSampler, (pair,), {"seed": 3, "orbit": enumerate_orbit(pair)}),
        "TailCurve": (
            TailCurve,
            (),
            {
                "kind": "theta",
                "thresholds": np.array([2.0, 3.0]),
                "counts": np.array([5, 1]),
                "n_samples": 100,
                "seed": 3,
                "predicted_constant": 0.5,
            },
        ),
    }
    cls, args, known = samples[callee]
    used = _keywords_of(callee)
    assert used and used <= set(known), f"child.py passes {sorted(used)}"
    cls(*args, **{k: known[k] for k in used})


def _read_off(variable: str) -> set[str]:
    """Attributes child.py reads off the local name `variable`."""
    return {
        node.attr
        for node in ast.walk(TREE)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == variable
    }


def test_the_child_reads_only_fields_an_enumerated_orbit_has():
    read = _read_off("orbit")
    assert {"size_S", "size_U", "size_V", "pair"} <= read  # the parse found them
    orbit = enumerate_orbit(normalize_pair(1, 6))
    assert [name for name in sorted(read) if not hasattr(orbit, name)] == []


@pytest.mark.parametrize("name", ["normal", "uniform01"])
def test_the_child_reads_only_what_a_sampling_law_has(name):
    read = _read_off("law")
    assert "transform" in read  # the parse found it
    law = sampling_law(name)
    assert [attr for attr in sorted(read) if not hasattr(law, attr)] == []
    u = np.array([0.25, 0.5, 0.75])
    assert law.transform(u).shape == u.shape


def test_the_child_reads_only_what_a_sampler_and_its_draw_have():
    read = _read_off("sampler")
    assert "draw" in read  # the parse found it
    sampler = MuAbSampler(normalize_pair(1, 6), seed=3)
    assert [attr for attr in sorted(read) if not hasattr(sampler, attr)] == []
    keys = {
        node.slice.value
        for node in ast.walk(TREE)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "data"
        and isinstance(node.slice, ast.Constant)
    }
    assert {"x", "y", "xi1", "xi2"} <= keys  # the parse found them
    data = sampler.draw(5)
    assert keys <= set(data) and all(data[k].shape == (5,) for k in keys)
