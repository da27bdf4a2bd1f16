"""Import layering of the package, read from its source with ``ast``.

``model`` is the base layer: it may import ``errors`` and nothing else of
the package.  ``lp_core`` is the leaf engine, which an external solver may
replace: it imports ``errors`` alone.  ``structure`` works on predictors
and the agent's envelope from ``model``; it must not reach into the
solvers.  ``fptas`` builds on ``model`` and ``lp_core`` alone, not on the
exact solver or ``structure``.  ``cli`` calls ``exact`` through its public
names only, and opens files for writing only in its one writer,
``_write_text``.  The solvers take what they build as built (``_built``) and
never call the checking constructors of ``Predictor`` or
``SenderStrategy``.  Only ``cli.cmd_grid`` calls ``build_grid``: the
approximation scheme prices its plan LP over the continuum of q, and the
grid serves the ``caldesign grid`` dump.  The library is single-process: only ``cli`` starts processes,
by ``os.fork`` inside a function, so that importing a module starts none,
and no module imports a process pool.  Outside the package, a module
imports numpy and the standard library alone: scipy stays a test
dependency, since importing ``scipy.optimize`` costs about half a second
and 49 MB.  Every name that the benchmark's tracer (``perfbench/tracer.py``)
wraps exists, and each but ``cli.main`` is called inside the package.
"""

import ast
import importlib
import sys
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
    # from . import x, and from .x import y
    assert package_imports("fptas") >= {"lp_core", "errors", "model"}
    assert package_imports("cli") >= {"exact", "fptas", "model",
                                      "structure", "errors"}


def test_model_imports_only_errors():
    assert package_imports("model") <= {"errors"}


def test_lp_core_imports_only_errors():
    assert package_imports("lp_core") <= {"errors"}


def test_structure_imports_no_solver():
    assert not package_imports("structure") & {"fptas", "exact", "lp_core"}


def test_fptas_imports_no_other_solver():
    assert not package_imports("fptas") & {"exact", "structure"}


def private_reads(source, of):
    """The private names (``_x``) of the package module ``of`` that
    ``source`` reads: as ``of._x``, or imported by ``from .of import _x``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id == of):
            found.add(node.attr)
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[-1] == of):
            found.update(alias.name for alias in node.names
                         if alias.name.startswith("_"))
    return found


def test_the_private_reader_sees_both_forms():
    source = ("from .exact import _set_budget, solve_exact\n"
              "from caldesign.exact import _separate\n"
              "exact._truthful_basis(exact.build_actrec_lp(inst))\n")
    assert private_reads(source, "exact") == {"_set_budget", "_separate",
                                              "_truthful_basis"}


def test_cli_reads_no_private_name_of_exact():
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert private_reads(source, "exact") == set()


def file_writes(source):
    """``(line, innermost enclosing function or None)`` of each call in
    ``source`` that opens a file for writing: ``open`` or ``x.open`` with a
    mode that writes (or one not written out), ``x.write_text`` and
    ``x.write_bytes``.  The descriptor calls of ``os`` are not counted:
    ``cli`` writes a forked sweep child's rows to a pipe by ``os.fdopen``,
    and points a closed stdout at ``os.devnull`` by ``os.open``."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = func
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call):
                call = child.func
                name = getattr(call, "id", None)
                if isinstance(call, ast.Attribute) and not (
                        isinstance(call.value, ast.Name)
                        and call.value.id == "os"):
                    name = call.attr
                mode = child.args[1] if len(child.args) > 1 else next(
                    (kw.value for kw in child.keywords if kw.arg == "mode"),
                    None)
                writing = mode is not None and not (
                    isinstance(mode, ast.Constant)
                    and not set(str(mode.value)) & set("wax+"))
                if name in ("write_text", "write_bytes") or (
                        name == "open" and writing):
                    found.append((child.lineno, func))
            visit(child, inner)

    visit(ast.parse(source), None)
    return sorted(found)


def test_the_write_reader_sees_every_form():
    source = ("def f(path, fd, mode):\n"
              "    open(path, 'w')\n"
              "    io.open(path, mode='ab')\n"
              "    open(path)\n"
              "    open(path, 'rb')\n"
              "    Path(path).write_text('x')\n"
              "    os.fdopen(fd, 'wb')\n"
              "    os.open(path, os.O_WRONLY)\n"
              "    def g():\n"
              "        open(path, mode)\n"
              "open(path, 'r+')\n")
    assert file_writes(source) == [(2, "f"), (3, "f"), (6, "f"), (10, "g"),
                                   (11, None)]


def test_cli_opens_files_for_writing_only_in_its_writer():
    found = file_writes((SRC / "cli.py").read_text(encoding="utf-8"))
    assert found and {func for _, func in found} == {"_write_text"}, found


def checked_constructions(source, classes=("Predictor", "SenderStrategy")):
    """Line numbers of ``source``'s calls of the public constructor of one
    of ``classes``, by its name or as an attribute (``model.Predictor(``)."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name in classes:
                lines.add(node.lineno)
    return lines


def test_the_constructor_reader_sees_both_forms():
    source = ("Predictor(s, m)\n"
              "model.SenderStrategy(pi, b)\n"
              "Predictor._built(s, m)\n"
              "SenderStrategy._built(pi, b)\n")
    assert checked_constructions(source) == {1, 2}


def test_solvers_build_their_output():
    for module in ("exact", "fptas"):
        source = (SRC / f"{module}.py").read_text(encoding="utf-8")
        assert checked_constructions(source) == set(), module


def callers(source, name):
    """``(line, innermost enclosing function or None)`` of each call in
    ``source`` of ``name``, by its name or as an attribute
    (``fptas.build_grid(``)."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = func
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call):
                call = child.func
                called = call.attr if isinstance(call, ast.Attribute) else \
                    getattr(call, "id", None)
                if called == name:
                    found.append((child.lineno, func))
            visit(child, inner)

    visit(ast.parse(source), None)
    return sorted(found)


def test_the_caller_reader_sees_both_forms():
    source = ("def f(inst):\n"
              "    build_grid(inst, 0.1)\n"
              "    def g():\n"
              "        fptas.build_grid(inst, 0.1)\n"
              "    build_grid_of(inst)\n"
              "build_grid(inst, 0.2)\n")
    assert callers(source, "build_grid") == [(2, "f"), (4, "g"), (6, None)]


def test_only_the_grid_command_builds_a_grid():
    found = {module: callers(source, "build_grid")
             for module, source in package_sources()}
    assert [func for _, func in found.pop("cli")] == ["cmd_grid"]
    assert not any(found.values()), found


TRACER = SRC.parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    """The ``(module path, attribute)`` pairs that the benchmark's tracer
    wraps, read from its ``LAYERS`` and ``ENTRY_SPANS`` literals."""
    found = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("LAYERS", "ENTRY_SPANS"):
                found[name] = ast.literal_eval(node.value)
    return ([pair for pairs in found["LAYERS"].values() for pair in pairs]
            + list(found["ENTRY_SPANS"].values()))


def test_every_name_the_tracer_wraps_is_defined_and_called():
    # the tracer replaces each attribute in its owner's namespace; a name
    # that is renamed away breaks the benchmark, and one the package no
    # longer calls leaves its layer reading 0.  cli.main is the entry that
    # the command line and the benchmark call from outside
    targets = tracer_targets()
    assert ("fptas", "build_disc_lp") in targets
    sources = dict(package_sources())
    for path, attr in targets:
        module, _, owner = path.partition(".")
        namespace = vars(importlib.import_module(f"caldesign.{module}"))
        if owner:
            namespace = vars(namespace[owner])
        assert attr in namespace, f"{path}.{attr}"
        if (path, attr) != ("cli", "main"):
            assert any(callers(source, attr) for source in sources.values()), \
                f"nothing in the package calls {path}.{attr}"


def forks(module):
    """``module``'s calls of ``os.fork``, as two sets of line numbers: at
    module level, and inside functions."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))

    def is_fork(node):
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "fork"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "os")

    everywhere = {node.lineno for node in ast.walk(tree) if is_fork(node)}
    inside = {node.lineno
              for func in ast.walk(tree)
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(func) if is_fork(node)}
    return everywhere - inside, inside


def test_only_cli_forks_and_only_inside_a_function():
    assert forks("cli")[1]     # the reader sees cli's own fork
    for path in sorted(SRC.glob("*.py")):
        top, inside = forks(path.stem)
        assert not top, f"{path.stem} forks at module level, lines {top}"
        assert path.stem == "cli" or not inside, path.stem


def absolute_imports(source):
    """``(line, top-level module)`` of each absolute import in ``source``,
    at any depth of its syntax tree."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            yield node.lineno, name.split(".")[0]


def package_sources():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, path.read_text(encoding="utf-8")


def test_the_absolute_reader_sees_both_forms():
    source = ("import scipy.optimize\n"
              "def f():\n"
              "    from numpy import linalg\n"
              "from . import model\n")
    assert sorted(absolute_imports(source)) == [(1, "scipy"), (3, "numpy")]


def test_no_module_imports_a_process_pool():
    for module, source in package_sources():
        for line, name in absolute_imports(source):
            assert name not in {"concurrent", "multiprocessing"}, \
                f"{module} line {line}"


def test_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy", "caldesign"}
    for module, source in package_sources():
        for line, name in absolute_imports(source):
            assert name in allowed, f"{module} line {line} imports {name}"
