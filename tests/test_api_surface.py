"""Every top-level function and class in the package has a reader in src/:
no public API that nothing calls."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "srrealize"

# Read only by tests and by the benchmark's tracer, which wraps them by name;
# they leave this list when the tracer is aimed at today's code (ROADMAP
# item 4).
ALLOWED_UNREAD = {"all_faces", "sr_hilbert"}


def _trees():
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def test_every_top_level_definition_is_read_in_src():
    trees = _trees()
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    defined = {
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert len(defined) > 50
    unread = sorted(d for d in defined if d[1] not in read | ALLOWED_UNREAD)
    assert unread == []
