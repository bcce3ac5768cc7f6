"""Every module in the package and the tests reads each name it imports,
the package reads or exports each name it defines, and the tests read each
helper they define.

An import that nothing reads is a dependency that no longer exists; it
keeps a module loaded and misleads a reader.  The check parses each file
with ``ast``: a name bound by an import counts as read when the file loads
it anywhere or lists it in ``__all__``, and ``__future__`` imports are
skipped.  Likewise a top-level definition in ``src/descents/`` that no
module of the package reads, as a name, an attribute or an imported name,
and that ``descents.__all__`` does not list, is code left behind.  So is a
top-level definition in ``tests/`` that no test module reads, as a name,
an attribute, an imported name or a fixture parameter; the tests
themselves (``test_*``) and pytest's hooks (``pytest_*``) are exempt.
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


def names_read(tree):
    """The names a module reads: loaded names and attributes, names it
    imports from another module, and names it lists in ``__all__``."""
    read = set()
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
    return read


def parse_all(directory):
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(directory.glob("*.py"))}


def unread_definitions(trees, read, exempt=()):
    """Top-level names defined in ``trees`` and missing from ``read``;
    dunders and names starting with an ``exempt`` prefix are skipped."""
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path, tree in trees.items()
            for name, line in top_level_definitions(tree)
            if not (name.startswith("__") and name.endswith("__"))
            and not name.startswith(exempt) and name not in read]


def test_every_package_definition_is_read_or_exported():
    trees = parse_all(ROOT / "src" / "descents")
    read = set().union(*map(names_read, trees.values()))
    assert {"Composition", "solomon_multiply", "_solomon"} <= read
    assert unread_definitions(trees, read) == []


def test_every_test_helper_is_read():
    # a fixture is read where a test or another fixture names it as a
    # parameter
    trees = parse_all(ROOT / "tests")
    read = set().union(*map(names_read, trees.values()))
    read.update(node.arg for tree in trees.values()
                for node in ast.walk(tree) if isinstance(node, ast.arg))
    assert {"parts", "patch_kernel", "double_set_images"} <= read
    assert unread_definitions(trees, read, exempt=("test_", "pytest_")) == []
