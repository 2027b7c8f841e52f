"""Every public function, class and method of clembed is reached from
somewhere else.

A module-level `def` or `class` of `src/clembed/<module>.py` whose name does
not start with "_", and a method or property of such a class whose name
does not start with "_" (so no dunder), must be referenced outside its own
definition: elsewhere in `src/clembed/`, or from `demos/` or `bench/`. A
reference is a `Name` or an `Attribute` node (a call, a read, a base class,
an annotation); an import, a `__init__` export or a word in a docstring is
not one. Tests do not count, so a name that only tests reach fails here: it
is surface that no command, demo or benchmark runs. Matching is by name, so a same-named variable
elsewhere also counts as a reference.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "clembed"
SOURCES = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "bench").glob("*.py"))]

# name -> why it may stay unreached
ALLOWED = {
    "vecmap_postprocess": "ROADMAP item 4: VecMap's post-processing preset "
                          "stays until `align --method vecmap` runs it"}


def used_names(node) -> Counter:
    """How often each name is read as a `Name` or an `Attribute` in `node`."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
USES = sum((used_names(tree) for tree in TREES.values()), Counter())


def public_definitions(module: str):
    tree = TREES[PACKAGE / f"{module}.py"]
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def public_surface(module: str) -> list[tuple[str, ast.AST]]:
    """(label, node) for each public definition of `module`, and for each
    public method or property of its public classes as "Class.member"."""
    out = []
    for node in public_definitions(module):
        out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{member.name}", member)
                    for member in node.body
                    if isinstance(member, ast.FunctionDef)
                    and not member.name.startswith("_")]
    return out


def unreached(module: str) -> list[str]:
    """Labels of `module`'s public surface with no use outside their own
    definition."""
    return [label for label, node in public_surface(module)
            if USES[node.name] - used_names(node)[node.name] == 0]


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_every_public_name_is_reached(module):
    missing = [name for name in unreached(module) if name not in ALLOWED]
    assert not missing, (f"clembed.{module} defines {missing}, which nothing "
                         "in src/clembed, demos/ or bench/ references")


def test_allowed_names_are_defined():
    """A deleted name leaves the list."""
    defined = {label for p in PACKAGE.glob("*.py")
               for label, _ in public_surface(p.stem)}
    assert set(ALLOWED) <= defined
