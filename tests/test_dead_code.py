"""No dead code in the package: every top-level function and class in
src/uer, and every method of such a class, is referenced by some module
of the package, or is allowlisted below with the reason it stays.

A name counts as referenced where a module loads it (a call, a read, a
decorator or a base class); an import alone does not count, so a name
that a module only re-imports is unreferenced. __init__.py's exports do
not count either. A method (or property), named Class.method here, counts
as referenced where a module loads an attribute of its name; dunder
methods are exempt, since Python calls them.

An entry kept for the benchmark's tracer names the (module, attribute)
it is wrapped as, and that pair must be one of the tracer's TARGETS, so
the entry goes when the tracer stops wrapping the name.
"""

import ast
from pathlib import Path

import uer

SPANTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "spantrace.py"

ALLOWED = {
    # wrapped by the benchmark's tracer (perfbench/spantrace.py TARGETS),
    # whose self-tests expect every wrapped name to exist
    "loss_dot": "tracer target uer.trainer.loss_dot",
    "loss_current": "tracer target uer.trainer.loss_current",
    "loss_replay": "tracer target uer.trainer.loss_replay",
    "accuracy": "tracer target uer.trainer.accuracy",
    "average_posterior": "tracer target uer.trainer.average_posterior",
    "run_experiment": "tracer target uer.cli.run_experiment",
    # used outside the package
    "read_metrics": "reads the metrics files back: tests",
    "serialize_config": "round-trips a parsed config: tests",
    "save_csv_dataset": "writes CSV datasets: tests and perfbench workloads",
    "init_state": "builds one run on a stream of its own: the exported step-level API",
}


def _defs(body: list) -> list:
    return [node for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def unreferenced(package: Path) -> set[str]:
    defined, loaded, methods, attributes = set(), set(), {}, set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _defs(tree.body):
            defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                methods.update((f"{node.name}.{m.name}", m.name) for m in _defs(node.body)
                               if not (m.name.startswith("__") and m.name.endswith("__")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return (defined - loaded) | {qual for qual, name in methods.items()
                                 if name not in attributes}


def test_every_unreferenced_definition_is_allowlisted():
    found = unreferenced(Path(uer.__file__).parent)
    assert found == set(ALLOWED), (
        f"unreferenced and not allowlisted: {sorted(found - set(ALLOWED))}; "
        f"allowlisted but referenced or gone: {sorted(set(ALLOWED) - found)}")


def tracer_targets(path: Path) -> set[tuple[str, str]]:
    """The (module, attribute) pair of every Target in the TARGETS tuple
    of the tracer's source, read without importing it."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return {(call.args[0].value, call.args[1].value) for call in node.value.elts}
    raise AssertionError(f"no TARGETS tuple in {path}")


def test_every_tracer_entry_names_a_tracer_target():
    targets = tracer_targets(SPANTRACE)
    for name, reason in ALLOWED.items():
        if "tracer target" in reason:
            module, _, attr = reason.rpartition(" ")[2].rpartition(".")
            assert attr == name and (module, attr) in targets, \
                f"{name}: {reason!r} is not among the tracer's targets"


def test_the_guard_sees_a_definition_that_nothing_loads(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used, unused\n")
    (tmp_path / "a.py").write_text("def used():\n    pass\n\n\ndef unused():\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import used, unused\n\nused()\n")
    assert unreferenced(tmp_path) == {"unused"}


def test_the_guard_sees_a_method_that_nothing_loads(tmp_path):
    (tmp_path / "a.py").write_text(
        "class A:\n"
        "    def __init__(self):\n        self.used()\n\n"
        "    def used(self):\n        pass\n\n"
        "    def unused(self):\n        pass\n\n\n"
        "A()\n")
    assert unreferenced(tmp_path) == {"A.unused"}
