"""Import layering of the package, read from its source with ``ast``.

``model`` is the base layer: it may import ``errors`` and nothing else of
the package.  ``lp_core`` is the leaf engine, which an external solver may
replace: it imports ``errors`` alone.  ``structure`` works on predictors
and the agent's envelope from ``model``; it must not reach into the
solvers.  The library is single-process: only ``cli`` starts worker
processes, and it imports the pool modules inside the function that uses
them, so that importing ``caldesign.cli`` does not load them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "caldesign"


def package_imports(module):
    """The ``caldesign`` modules that ``module``'s source imports, at any
    depth of its syntax tree (function-level imports count too)."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                name = node.module
            elif (node.module or "").split(".")[0] == "caldesign":
                name = node.module.partition(".")[2]
            else:
                continue
            if name:
                found.add(name.split(".")[0])
            else:   # from . import x / from caldesign import x
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "caldesign" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_the_reader_sees_every_import_form():
    assert package_imports("fptas") >= {"lp_core", "errors", "exact",
                                        "model"}
    assert package_imports("cli") >= {"exact", "fptas", "model",
                                      "structure", "errors"}


def test_model_imports_only_errors():
    assert package_imports("model") <= {"errors"}


def test_lp_core_imports_only_errors():
    assert package_imports("lp_core") <= {"errors"}


def test_structure_imports_no_solver():
    assert not package_imports("structure") & {"fptas", "exact", "lp_core"}


POOL_MODULES = {"concurrent", "multiprocessing"}


def pool_imports(module):
    """``module``'s imports of the process-pool modules, as two sets of
    line numbers: at module level, and inside functions."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))

    def imports_pool(node):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            return False
        return any(name.split(".")[0] in POOL_MODULES for name in names)

    everywhere = {node.lineno for node in ast.walk(tree) if imports_pool(node)}
    inside = {node.lineno
              for func in ast.walk(tree)
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(func) if imports_pool(node)}
    return everywhere - inside, inside


def test_only_cli_imports_the_pool_modules_and_only_in_functions():
    assert pool_imports("cli")[1]     # the reader sees cli's own imports
    for path in sorted(SRC.glob("*.py")):
        top, inside = pool_imports(path.stem)
        assert not top, f"{path.stem} imports a pool module at lines {top}"
        assert path.stem == "cli" or not inside, path.stem
