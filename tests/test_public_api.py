import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "depolqfi"


def _definitions(tree: ast.Module):
    """(name, node) for each top-level def, class or assignment target."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _unused_public_names() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    public = [
        (f"{module}.{name}", name, node)
        for module, tree in trees.items()
        for name, node in _definitions(tree)
        if not name.startswith("_")
    ]
    # every node that reads a name, mapped to the names it reads; import
    # aliases are neither Name nor Attribute nodes, so they do not count
    uses = [
        (node, node.id if isinstance(node, ast.Name) else node.attr)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    unused = []
    for qualified, name, definition in public:
        own = {id(node) for node in ast.walk(definition)}
        if not any(used == name and id(node) not in own for node, used in uses):
            unused.append(qualified)
    return sorted(unused)


def test_every_public_name_has_a_caller_in_the_package():
    # a public function, class or constant that no package code uses is API
    # kept alive only by tests; references the tests compare against belong
    # in tests/paper_formulas.py
    unused = _unused_public_names()
    assert not unused, f"public names with no caller in src/depolqfi: {unused}"
