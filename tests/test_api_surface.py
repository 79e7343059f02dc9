"""Every top-level function, class and assigned name in the package has a
reader in src/: no public API that nothing calls, and no constant or
template left behind.  In tests/, only helpers.run_child starts a process."""
import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "srrealize"

# Read only by tests and by the benchmark's tracer, which wraps them by name;
# they leave this list when the tracer is aimed at today's code (ROADMAP
# item 4).
ALLOWED_UNREAD = {"all_faces", "sr_hilbert"}

# The package version, read by packaging and users, not by the package.
ALLOWED_UNREAD_ASSIGNED = {"__version__"}


def _trees():
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _read_names(trees):
    """Every name src/ reads: as a name, an attribute or an import."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def _assigned_names(target):
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _assigned_names(elt)


def test_every_top_level_definition_is_read_in_src():
    trees = _trees()
    read = _read_names(trees)
    defined = {
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert len(defined) > 50
    unread = sorted(d for d in defined if d[1] not in read | ALLOWED_UNREAD)
    assert unread == []


def test_every_top_level_assignment_is_read_in_src():
    trees = _trees()
    read = _read_names(trees)
    assigned = set()
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            assigned.update(
                (name, n) for t in targets for n in _assigned_names(t)
            )
    assert len(assigned) > 20
    unread = sorted(
        a for a in assigned if a[1] not in read | ALLOWED_UNREAD_ASSIGNED
    )
    assert unread == []


def test_verify_reads_none_of_the_construction():
    # verify checks a diagram against facts it spells out itself, so a fault
    # in the code that builds the diagram cannot vouch for itself
    read = _read_names({"verify.py": _trees()["verify.py"]})
    builders = {"label_node", "build_diagram", "classify", "find_partition"}
    assert read & builders == set()


def test_no_json_dumps_in_src_passes_indent():
    # every command's JSON goes through one writer, diagram's layout
    # helpers; json.dumps(obj, indent=2) stays in tests/ as their oracle
    calls = sorted(
        (name, node.lineno)
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        in ("dump", "dumps")
        and any(k.arg == "indent" for k in node.keywords)
    )
    assert calls == []


def _subprocess_uses(path):
    """(file, where) for each import of subprocess, where is its text, and
    each read of the name, where is the top-level definition around it."""
    for top in ast.parse(path.read_text(), str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id == "subprocess":
                yield path.name, getattr(top, "name", None)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and "subprocess" in (
                getattr(node, "module", None), *(alias.name for alias in node.names)
            ):
                yield path.name, ast.unparse(node)


def test_only_the_child_helper_uses_subprocess():
    # a child interpreter costs about 0.1 s, cli.main in-process a few ms:
    # only a test whose subject is the process itself may start one
    uses = {use for path in sorted(TESTS.glob("*.py")) for use in _subprocess_uses(path)}
    assert uses == {("helpers.py", "import subprocess"), ("helpers.py", "run_child")}
