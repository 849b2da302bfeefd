"""Package hygiene: exported names exist, no private helper or import is left
unused, every config field, state field and command-line option is read, and
quadratic structure has one home."""

import argparse
import ast
import dataclasses
import sys
from pathlib import Path

import numpy as np

import apd
from apd import ddo, flow, oracles, schedule, solvers
from apd.cli import build_parser
from apd.solvers import SolverConfig


def test_every_exported_name_resolves():
    assert [name for name in apd.__all__ if not hasattr(apd, name)] == []


def _definitions(tree):
    """Module-level functions, classes and assigned names."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _private_definitions(tree):
    """Module-level ``_private`` functions, classes and assigned names."""
    return {name for name in _definitions(tree)
            if name.startswith("_") and not name.startswith("__")}


def _uses(tree):
    """Names read, attributes accessed and names imported; a definition is not a use."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _package_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(Path(apd.__file__).parent.glob("*.py"))}


def test_every_private_module_name_is_used_in_the_package():
    trees = _package_trees()
    used = set().union(*(_uses(tree) for tree in trees.values()))
    unused = sorted(f"{module}:{name}" for module, tree in trees.items()
                    for name in _private_definitions(tree) if name not in used)
    assert unused == []


def _traced_names(tree):
    """The string constants of ``targets()`` in the tracer: the attribute
    names it wraps by name."""
    (targets,) = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "targets"]
    return {node.value for node in ast.walk(targets)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


# public names with no caller in the package or the benchmark, each kept for a reason
NO_CALLER = {
    "model.py:save_problem": "writes the problem-file format that load_problem reads",
    "ddo.py:graph_laplacian": "perfbench/tests read a graph's Laplacian through it",
}


def test_every_public_module_name_has_a_caller():
    # a public name that only tests call is a helper with no caller; the
    # imports of apd/__init__.py export names and do not count as calls
    bench = Path(__file__).parents[1] / "perfbench"
    bench_trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
                   for path in sorted(bench.glob("*.py"))}
    trees = _package_trees()
    callers = [tree for name, tree in trees.items() if name != "__init__.py"]
    used = set().union(*(_uses(tree) for tree in [*callers, *bench_trees.values()]))
    used |= _traced_names(bench_trees["tracer.py"])
    unused = sorted(f"{module}:{name}" for module, tree in trees.items()
                    for name in _definitions(tree)
                    if not name.startswith("_") and name not in used)
    assert unused == sorted(NO_CALLER)


def _attributes_read(tree, owner):
    """Attributes read as ``owner.<name>`` in a module."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == owner}


def _module_tree(name):
    return ast.parse((Path(apd.__file__).parent / name).read_text(encoding="utf-8"))


def test_every_config_field_is_read():
    # a setting the run never reads is a dead knob: it takes a value and changes nothing
    fields = {field.name for field in dataclasses.fields(SolverConfig)}
    assert sorted(fields - _attributes_read(_module_tree("solvers.py"), "config")) == []


STATE_CLASSES = (solvers.IterateState, schedule.ScalingState, ddo.ExtraState, flow.FlowState)


def _carried_reads():
    """``(file, line, field)`` of each ``.field`` read inside the argument that
    builds the same field of a state class: such a read only hands the value
    on to the next state."""
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)] for cls in STATE_CLASSES}
    carried = set()
    for path in Path(apd.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in fields:
                continue
            slots = list(zip(fields[name], node.args))
            slots += [(kw.arg, kw.value) for kw in node.keywords]
            carried |= {(str(path), attr.lineno, field) for field, value in slots
                        for attr in ast.walk(value)
                        if isinstance(attr, ast.Attribute) and attr.attr == field}
    return carried


def _state_workload(qp1):
    """Every scheme through a restart, each DDO algorithm on both kinds, and
    the flow with its records."""
    for scheme in schedule.SCHEMES:
        run = solvers.run_solver(qp1, SolverConfig(scheme, max_iter=200))
        assert run.records[-1].epoch > 0
    for kind in ("least_squares", "logistic"):
        problem = ddo.build_ddo_problem(ddo.path_graph(4), 2, kind, seed=0)
        for algo in ddo.ALGORITHMS:
            ddo.run_ddo(problem, algo, 30)
    start = flow.FlowState(np.zeros(2), np.zeros(2), np.zeros(1), 1.0, 1.0)
    flow.flow_records(flow.integrate_flow(start, qp1, 0.01, 0.05), qp1,
                      apd.solve_reference_saddle(qp1))


def test_every_state_field_is_read(monkeypatch, qp1):
    # a field that no code of the package reads, other than to carry it into
    # the next state or to validate it, is dead weight every step copies
    package, carried, read = str(Path(apd.__file__).parent), _carried_reads(), set()

    def watch(cls, names):
        def getattribute(self, name):
            if name in names:
                frame = sys._getframe(1)
                code = frame.f_code
                if (code.co_filename.startswith(package) and not code.co_name.startswith("__")
                        and (code.co_filename, frame.f_lineno, name) not in carried):
                    read.add(f"{cls.__name__}.{name}")
            return object.__getattribute__(self, name)
        monkeypatch.setattr(cls, "__getattribute__", getattribute)

    for cls in STATE_CLASSES:
        watch(cls, {f.name for f in dataclasses.fields(cls)})
    _state_workload(qp1)
    every = {f"{cls.__name__}.{f.name}" for cls in STATE_CLASSES for f in dataclasses.fields(cls)}
    assert sorted(every - read) == []


def test_every_cli_option_is_read():
    # an option no command reads is a dead flag: it parses a value and changes nothing
    read = _attributes_read(_module_tree("cli.py"), "args")
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    unread = [f"{name} --{action.dest}" for name, sub in commands.choices.items()
              for action in sub._actions
              if action.dest not in ("help", "func") and action.dest not in read]
    assert sorted(commands.choices) == ["audit", "compare", "ddo", "flow", "solve"]
    assert unread == []


def _imported_names(tree, lines):
    """``(line, name)`` of each name a module imports; ``__future__`` imports
    and imports on a ``# noqa: F401`` line are left out."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            names.append((node.lineno, bound))
    return names


def _exported(tree):
    """The string entries of a module's ``__all__``."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)
            and target.id == "__all__" for elt in node.value.elts}


def test_every_module_import_is_used():
    unused = []
    for path in sorted(Path(apd.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= _exported(tree)
        unused += [f"{path.name}:{line}:{name}"
                   for line, name in _imported_names(tree, source.splitlines())
                   if name not in read]
    assert unused == []


def test_every_quadratic_oracle_is_a_quadratic_objective():
    # the routes read Q and c off a QuadraticObjective, so no other class may
    # claim quadratic structure or set the flags the routes test
    classes = [cls for cls in vars(oracles).values()
               if isinstance(cls, type) and issubclass(cls, oracles.SmoothOracle)]
    quadratic = [cls.__name__ for cls in classes if cls.is_quadratic]
    assert "ZeroObjective" in quadratic
    assert [name for name in quadratic
            if not issubclass(getattr(oracles, name), oracles.QuadraticObjective)] == []
    flags = sorted(f"{cls.__name__}.{flag}" for cls in classes
                   for flag in ("is_quadratic", "is_zero") if flag in vars(cls))
    assert flags == ["QuadraticObjective.is_quadratic", "SmoothOracle.is_quadratic",
                     "SmoothOracle.is_zero"]


_ROOT = Path(__file__).resolve().parent.parent


def test_every_source_file_parses_as_python_3_10():
    """Syntax only: ``pyproject.toml`` allows Python 3.10, so every file must
    parse with ``feature_version=(3, 10)``, which rejects ``except*``, for
    one. It checks no library API or call that a newer Python adds; only
    running the suite on 3.10 does that."""
    files = [_ROOT / "conftest.py"] + [path for folder in ("src", "tests", "perfbench", "tools")
                                       for path in sorted((_ROOT / folder).rglob("*.py"))]
    rejected = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            rejected.append(f"{path.relative_to(_ROOT)}:{exc.lineno}: {exc.msg}")
    assert len(files) > 20 and rejected == []
