"""The package exports only names that a live path reaches.

A name in ``gaugeproj/__init__.py`` must be referenced, as code, by the
library itself, by perfbench, or be imported by the acceptance suite.
Only ``ast.Name`` and ``ast.Attribute`` nodes count: docstrings, comments
and dict-key strings do not, so a name that appears only in prose or as
a payload key is still reported as unreached.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gaugeproj"

# exported ahead of their first caller, with the roadmap item that adds it
ALLOWED_UNREACHED = {
    "estimate_log_dimension",  # ROADMAP item 3: the log-dimension run stage
}


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


def unreached_exports() -> set[str]:
    library = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    perfbench = sorted((ROOT / "perfbench").glob("*.py"))
    reached = code_references(library + perfbench) | acceptance_imports()
    return exported_names() - reached - ALLOWED_UNREACHED


def test_every_export_has_a_live_caller():
    assert unreached_exports() == set()


def test_allowlist_names_real_exports():
    assert ALLOWED_UNREACHED <= exported_names()


def test_strings_are_not_references(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text('"""Use evaluate."""\n'
                   'payload = {"capacity_lower_bound": 1.0 / est.mean}\n')
    assert code_references([src]) == {"payload", "est", "mean"}
