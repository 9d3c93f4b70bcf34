"""Design rules of the package source that no behaviour test would notice."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "theta_tails"
# the Weyl kernel's exact phasor, which theta's transforms and Gaussian batch share
PHASE_KERNEL = {"_QUARTER_TURNS", "_unit_phasor"}


def _underscore_imports(root: Path = SRC) -> set[tuple[str, str, str]]:
    """(importing module, imported module, name) for each underscore name a
    module in root takes from another module of the package, by
    `from .m import _x` or by `from . import m` and then `m._x`."""
    found = set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("theta_tails"):
                continue
            source = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if not source:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.add((path.stem, source, alias.name))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_")
            ):
                found.add((path.stem, modules[node.value.id], node.attr))
    return found


def test_no_module_imports_another_modules_underscore_name():
    found = _underscore_imports()
    assert ("theta", "weylsum", "_unit_phasor") in found  # the scan sees imports
    assert found - {("theta", "weylsum", name) for name in PHASE_KERNEL} == set()


def test_the_scan_sees_both_import_forms(tmp_path):
    (tmp_path / "probe.py").write_text(
        "from .theta import _batch_args, theta_f\n"
        "from theta_tails.weylsum import _terms\n"
        "from numpy import _core\n"
        "from . import homog\n"
        "homog._BELOW_ONE, homog.run_chunks\n"
    )
    assert _underscore_imports(tmp_path) == {
        ("probe", "theta", "_batch_args"), ("probe", "weylsum", "_terms"), ("probe", "homog", "_BELOW_ONE"),
    }


def _check_functions(root: Path = SRC) -> set[tuple[str, str]]:
    """(module, name) for each top-level function of a module in root
    whose name starts with check_."""
    return {
        (path.stem, node.name)
        for path in sorted(root.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")
    }


def test_only_errors_defines_scalar_checks():
    # every scalar argument is checked by errors.check_integer or
    # errors.check_real; weylsum.check_x_range is the array range of the
    # phase paths
    found = _check_functions()
    assert {("errors", "check_integer"), ("errors", "check_real")} <= found
    assert {(module, name) for module, name in found if module != "errors"} == {
        ("weylsum", "check_x_range")
    }


def test_theta_defines_one_gaussian_bound():
    # the sample screen reads B at each shift t and the height screen reads
    # it at t = 0; a second, looser closed form once served the height screen
    tree = ast.parse((SRC / "theta.py").read_text())
    bounds = {
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and re.fullmatch(r"theta_pair_gaussian_\w*bound", node.name)
    }
    assert bounds == {"theta_pair_gaussian_bound"}


def _thread_importers(root: Path = SRC) -> set[str]:
    """The modules in root that import concurrent.futures or threading, in
    any import form."""
    found = set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == "threading" or name.startswith("concurrent.futures")
                   for name in names):
                found.add(path.stem)
    return found


def test_only_the_chunk_runner_starts_threads():
    # homog.run_chunks gives each chunk a thread and a kernel call runs on
    # its chunk's; the Weyl kernel once kept a pool of its own
    assert _thread_importers() == {"homog"}


def test_the_thread_scan_sees_every_import_form(tmp_path):
    for stem, line in [("a", "import threading"), ("b", "from concurrent.futures import ThreadPoolExecutor"),
                       ("c", "from concurrent import futures"), ("d", "import concurrent.futures as cf"),
                       ("e", "from threading import Lock"), ("f", "from . import homog")]:
        (tmp_path / f"{stem}.py").write_text(line + "\n")
    assert _thread_importers(tmp_path) == {"a", "b", "c", "d", "e"}
