"""The package exports only names that a live path reaches, its
dataclasses hold only fields that a live path reads, and its classes
define only methods and properties that a live path loads.

A name in ``gaugeproj/__init__.py`` must be referenced, as code, by the
library itself, by perfbench, or be imported by the acceptance suite.
Only ``ast.Name`` and ``ast.Attribute`` nodes count: docstrings, comments
and dict-key strings do not, so a name that appears only in prose or as
a payload key is still reported as unreached.

Every field of a dataclass defined in the package must be read, as an
``ast.Attribute`` in load context, by the library, by perfbench or by
the acceptance suite.  The scan matches by attribute name, not by the
type of the object read: a field that shares its name with any other
attribute read there (``theta``, ``level``, ``s``) counts as read.

Every method or property (dunder methods aside) of a class defined in the
package must be loaded the same way, as an ``ast.Attribute``, by the
library, by perfbench or by the acceptance suite.  The same caveat holds:
the scan matches by name, so a method that shares its name with any
attribute loaded there (``to_dict``, ``radius``) counts as loaded.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gaugeproj"

# exported ahead of their first caller, with the roadmap item that adds it
ALLOWED_UNREACHED = {
    "estimate_log_dimension",  # ROADMAP item 3: the log-dimension run stage
}

# dataclass fields kept ahead of their first reader, with the roadmap item
# that reads them
ALLOWED_UNREAD = {
    "LogDimensionEstimate.trends",  # ROADMAP item 3: the log-dimension run stage
}

# methods and properties kept ahead of their first caller, with the roadmap
# item that calls them
ALLOWED_UNLOADED: set[str] = set()


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def exported_names() -> set[str]:
    tree = _parse(PACKAGE / "__init__.py")
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def code_references(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def acceptance_imports() -> set[str]:
    tree = _parse(ROOT / "tests" / "test_acceptance.py")
    return {alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("gaugeproj")
            for alias in node.names}


def _library() -> list[Path]:
    return [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def _perfbench() -> list[Path]:
    return sorted((ROOT / "perfbench").glob("*.py"))


def unreached_exports() -> set[str]:
    reached = code_references(_library() + _perfbench()) | acceptance_imports()
    return exported_names() - reached - ALLOWED_UNREACHED


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        fn = dec.func if isinstance(dec, ast.Call) else dec
        if "dataclass" in (getattr(fn, "id", None), getattr(fn, "attr", None)):
            return True
    return False


def dataclass_fields(paths) -> set[str]:
    """"Class.field" for every annotated field of the dataclasses defined
    in ``paths``."""
    out = set()
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                out |= {f"{node.name}.{st.target.id}" for st in node.body
                        if isinstance(st, ast.AnnAssign)
                        and isinstance(st.target, ast.Name)}
    return out


def attribute_reads(paths) -> set[str]:
    """Names of the attributes loaded in ``paths``; stores do not count."""
    return {node.attr for path in paths for node in ast.walk(_parse(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _live_reads() -> set[str]:
    return attribute_reads(_library() + _perfbench()
                           + [ROOT / "tests" / "test_acceptance.py"])


def unread_fields() -> set[str]:
    reads = _live_reads()
    return {f for f in dataclass_fields(_library())
            if f.split(".")[1] not in reads} - ALLOWED_UNREAD


def class_methods(paths) -> set[str]:
    """"Class.method" for every method and property, dunders aside, of
    the classes defined in ``paths``."""
    out = set()
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                out |= {f"{node.name}.{st.name}" for st in node.body
                        if isinstance(st, ast.FunctionDef)
                        and not (st.name.startswith("__")
                                 and st.name.endswith("__"))}
    return out


def unloaded_methods() -> set[str]:
    reads = _live_reads()
    return {m for m in class_methods(_library())
            if m.split(".")[1] not in reads} - ALLOWED_UNLOADED


def test_every_export_has_a_live_caller():
    assert unreached_exports() == set()


def test_allowlist_names_real_exports():
    assert ALLOWED_UNREACHED <= exported_names()


def test_strings_are_not_references(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text('"""Use evaluate."""\n'
                   'payload = {"capacity_lower_bound": 1.0 / est.mean}\n')
    assert code_references([src]) == {"payload", "est", "mean"}


def test_every_dataclass_field_has_a_live_reader():
    assert unread_fields() == set()


def test_field_allowlist_names_real_fields():
    assert ALLOWED_UNREAD <= dataclass_fields(_library())


def test_field_scan_counts_only_loads(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from dataclasses import dataclass\n"
                   "@dataclass(frozen=True)\n"
                   "class Row:\n"
                   "    read: int\n"
                   "    stored: int\n"
                   "row = Row(1, 2)\n"
                   "row.stored = row.read\n")
    assert dataclass_fields([src]) == {"Row.read", "Row.stored"}
    assert attribute_reads([src]) == {"read"}


def test_every_method_has_a_live_caller():
    assert unloaded_methods() == set()


def test_method_allowlist_names_real_methods():
    assert ALLOWED_UNLOADED <= class_methods(_library())


def test_method_scan_skips_dunders_and_counts_properties(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("class Measure:\n"
                   "    def __post_init__(self):\n"
                   "        pass\n"
                   "    @property\n"
                   "    def mass(self):\n"
                   "        return 1.0\n"
                   "    def unused(self):\n"
                   "        return self.mass\n")
    assert class_methods([src]) == {"Measure.mass", "Measure.unused"}
    assert attribute_reads([src]) == {"mass"}
