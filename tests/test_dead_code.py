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

No dead state either: every attribute a class of src/uer declares (an
annotation in its body, as a dataclass field is, or a self.x = in its
__init__) is loaded by some module of the package. A load that is only
the target of a subscript store (buf.x[j] = ...) does not count: it
writes the attribute's contents, and nothing reads them back. The classes
in WHOLE_RECORDS are exempt, with the reason stated.
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
    "init_run": "builds one run on a stream of its own: the exported step-level API",
}


# records whose fields reach the metrics file without being named one by
# one, so a field that no module loads by name is still written
WHOLE_RECORDS = {
    "StageMetrics": "written field by field through fields() (stage_metrics_to_dict)",
    "DiagnosticsRecord": "spread into StageMetrics through vars() (_collect_stage_metrics)",
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


def _self_targets(node) -> list[str]:
    """The attribute names of self.x targets in an assignment target."""
    if isinstance(node, (ast.Tuple, ast.List)):
        return [name for elt in node.elts for name in _self_targets(elt)]
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return [node.attr]
    return []


def _declared(cls: ast.ClassDef) -> set[str]:
    """The attributes a class declares: its body's annotated names and the
    self.x targets of its __init__."""
    names = {node.target.id for node in cls.body
             if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
    for method in _defs(cls.body):
        if method.name == "__init__":
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    names.update(n for t in node.targets for n in _self_targets(t))
                elif isinstance(node, ast.AnnAssign):
                    names.update(_self_targets(node.target))
    return names


def unread_fields(package: Path) -> set[str]:
    declared, read = set(), set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _defs(tree.body):
            if isinstance(node, ast.ClassDef):
                declared.update((node.name, name) for name in _declared(node))
        stored_into = {id(node.value) for node in ast.walk(tree)
                       if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)}
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and id(node) not in stored_into)
    return {f"{cls}.{name}" for cls, name in declared if name not in read}


def test_every_declared_field_is_read():
    found = unread_fields(Path(uer.__file__).parent)
    unread = sorted(f for f in found if f.partition(".")[0] not in WHOLE_RECORDS)
    assert not unread, f"declared but never read in the package: {unread}"


def test_every_whole_record_is_a_class_with_unread_fields():
    # an exemption goes when its class goes or every field is read by name
    found = unread_fields(Path(uer.__file__).parent)
    assert {f.partition(".")[0] for f in found} >= set(WHOLE_RECORDS)


def test_the_guard_sees_a_field_that_is_only_written(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass R:\n    read: int\n    unread: int\n\n\n"
        "class B:\n"
        "    def __init__(self):\n"
        "        self.rows, self.pos = [0], [0]\n"
        "        self.size: int = 0\n\n"
        "    def put(self, j):\n"
        "        self.rows[j] = self.pos[j] = j\n"
        "        self.size += 1\n\n\n"
        "def get(r, b):\n    return r.read + b.rows[0]\n")
    assert unread_fields(tmp_path) == {"R.unread", "B.pos", "B.size"}
