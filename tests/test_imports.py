"""Every module in the package and the tests reads each name it imports,
and the package reads or exports each name it defines.

An import that nothing reads is a dependency that no longer exists; it
keeps a module loaded and misleads a reader.  The check parses each file
with ``ast``: a name bound by an import counts as read when the file loads
it anywhere or lists it in ``__all__``, and ``__future__`` imports are
skipped.  Likewise a top-level definition in ``src/descents/`` that no
module of the package reads, as a name, an attribute or an imported name,
and that ``descents.__all__`` does not list, is code left behind.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def exported(node):
    """The names an ``__all__ = [...]`` assignment lists, else none."""
    if (isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)):
        return ast.literal_eval(node.value)
    return ()


def unread_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        else:
            read.update(exported(node))
    return sorted(f"{path.relative_to(ROOT)}:{line}: {name}"
                  for name, line in imported.items() if name not in read)


def test_every_imported_name_is_read():
    paths = sorted([*(ROOT / "src" / "descents").glob("*.py"),
                    *(ROOT / "tests").glob("*.py")])
    assert len(paths) > 10
    assert [hit for path in paths for hit in unread_imports(path)] == []


def top_level_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def test_every_package_definition_is_read_or_exported():
    paths = sorted((ROOT / "src" / "descents").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            else:
                read.update(exported(node))
    assert {"Composition", "solomon_multiply", "_solomon"} <= read
    dead = [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path, tree in trees.items()
            for name, line in top_level_definitions(tree)
            if not (name.startswith("__") and name.endswith("__"))
            and name not in read]
    assert dead == []
