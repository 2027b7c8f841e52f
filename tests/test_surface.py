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
import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "clembed"
SOURCES = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "bench").glob("*.py"))]

# name -> why it may stay unreached
ALLOWED: dict[str, str] = {}


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


# the sweep's private machinery, which only `similarity` may name
SWEEP_INTERNALS = {"_sweep", "_threads", "similarity_sweep"}


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")
                                          if p.stem != "similarity"))
def test_only_similarity_knows_the_sweep(module):
    """Blocks, stripes and threads stay inside `similarity`: every other
    module reaches the sweep through one of its reductions
    (`mutual_argmax_pairs`, `_gold_ranks`, `_row_argmax`), and names
    neither the sweep, nor its thread runner, nor a sweep generator."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = set(used_names(tree)) | {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not names & SWEEP_INTERNALS, f"clembed.{module} names " \
        f"{sorted(names & SWEEP_INTERNALS)}"


# benchmark per-layer metric -> why it may name no function of clembed
DEAD_METRICS = {
    name: "ROADMAP item 1: the benchmark change renames this metric"
    for name in ("similarity.csls_scores", "similarity.similarity_matrix",
                 "clir.aggregate_text")}


def per_layer_functions() -> list[str]:
    """`<module>.<function>` of each `BENCHMARK.json` per-layer metric named
    `<module>.<function>.<counter>` (module totals such as `cli.self_s`
    have two parts and name no function)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return sorted({m["name"].rsplit(".", 1)[0] for m in bench["per_layer"]
                   if m["name"].count(".") == 2})


def is_public_function(qualified: str) -> bool:
    module, function = qualified.split(".")
    if not (PACKAGE / f"{module}.py").exists():
        return False
    return any(isinstance(node, ast.FunctionDef) and node.name == function
               for node in public_definitions(module))


def test_per_layer_metrics_name_public_functions():
    """The tracer times public functions by name: a metric naming a
    function that is gone reads 0 and shows nothing."""
    dead = [name for name in per_layer_functions()
            if not is_public_function(name) and name not in DEAD_METRICS]
    assert not dead, f"BENCHMARK.json times {dead}, which clembed does not define"


def test_dead_metrics_are_listed_and_dead():
    """An allowed dead metric leaves the list once the benchmark drops it
    or the function exists again."""
    listed = set(per_layer_functions())
    assert set(DEAD_METRICS) <= listed
    assert not [name for name in DEAD_METRICS if is_public_function(name)]
