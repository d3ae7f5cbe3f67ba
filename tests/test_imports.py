import ast
from pathlib import Path

import multiwp

SRC = Path(multiwp.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by a module-level import that the module never reads;
    names listed in __all__ and __future__ imports are exempt."""
    bound = {}
    exempt = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exempt.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in used and name not in exempt]


def test_every_module_level_import_is_used():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    unused = {path.name: _unused_imports(ast.parse(path.read_text())) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}
