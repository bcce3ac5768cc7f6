"""Every module in the package and the tests reads each name it imports.

An import that nothing reads is a dependency that no longer exists; it
keeps a module loaded and misleads a reader.  The check parses each file
with ``ast``: a name bound by an import counts as read when the file loads
it anywhere or lists it in ``__all__``, and ``__future__`` imports are
skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{path.relative_to(ROOT)}:{line}: {name}"
                  for name, line in imported.items() if name not in read)


def test_every_imported_name_is_read():
    paths = sorted([*(ROOT / "src" / "descents").glob("*.py"),
                    *(ROOT / "tests").glob("*.py")])
    assert len(paths) > 10
    assert [hit for path in paths for hit in unread_imports(path)] == []
