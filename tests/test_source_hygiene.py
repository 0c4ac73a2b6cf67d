"""Source hygiene of src/lacunary, checked on the syntax tree.

Five rules keep dead or repeated code out:

- every imported name is used in its module.  A package `__init__.py`
  re-exports names, `from __future__` imports switch on features, and a
  line marked `noqa` keeps an import on purpose, so those are exempt;
- every module-level `_private` name is referenced somewhere in `src/`
  outside its own definition;
- every module-level public name outside a package `__init__.py` is read
  somewhere in `src/` outside its own definition.  The package's
  re-export of a name is no read, and neither is a test's:
  `READ_OUTSIDE_SRC` gives each name that only code outside `src/` reads,
  with its reason;
- likewise every public non-dunder method or property of a module-level
  class, keyed `Class.name` in `READ_OUTSIDE_SRC`;
- a function imports `from M` only when its module does not already do so
  at module level.  A lazy import of a module the file does not import at
  the top stays allowed.

Two more keep the packages' lazy export tables (`_LAZY`, name -> defining
submodule) honest: every entry names a module-level definition of its
submodule, and `__all__` is the eagerly imported names plus the table's.
A table entry is no read of its name, so the third rule still flags a
public name that only a table lists.

One more keeps start-up cheap: no module imports `dataclasses`, whose import
pulls in `inspect`, `ast`, `dis` and `tokenize` in every process that
loads it; the records are `typing.NamedTuple`s.

And one keeps series from paying for terms they never read: no call to a
`*_sequence` table kernel takes an argument that reads `.max_terms`, the
summation budget.  A series that stops after a few terms reads its values
from an iterator instead; a `range(ctrl.max_terms + 1)` that bounds a lazy
generator builds nothing and stays allowed.

And one keeps the engines pure functions of their case parameters: no
function in `ENGINE_MODULES` subscripts one of its own parameters with a
string constant.  The drivers (`pointwise._engine`, `exact._tupled`) pass
each grid point or tuple as keyword arguments, so an engine names what it
reads in its signature.

And one keeps a single owner for the range of an order argument: no
function raises `DomainError` under an `if` that orders (`<`, `<=`, `>`,
`>=`) one of its parameters named in `ORDER_PARAMS` against an int constant.
`scalars.check_order` makes that check, and rejects a bool or a non-int too.
An equality rule such as family 'q' taking only m = 1 stays allowed.
"""

import ast
import importlib
import itertools
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lacunary"
SOURCES = {
    path.relative_to(SRC).as_posix(): path.read_text() for path in sorted(SRC.rglob("*.py"))
}
TREES = {name: ast.parse(source) for name, source in SOURCES.items()}

#: Public names that no code in `src/` reads, and who reads them instead.
READ_OUTSIDE_SRC = {
    "laguerre": "perfbench's tracer wraps it (polys.laguerre)",
    "lambda_poly": "perfbench's tracer wraps it (polys.lambda_poly)",
    "hermite_coeff_sequence": "perfbench's tracer wraps it (polys.sequence)",
    "hermite_h_sequence": "perfbench's tracer wraps it (polys.sequence)",
    "laguerre_xpoly": "perfbench's tracer wraps it (polys.xpoly)",
    "tricomi": "perfbench's tracer wraps it (specialfns)",
    "h_bessel_j": "perfbench's tracer wraps it (specialfns)",
    "eq2_12_block": "tests/test_acceptance.py reads it",
    "UmbralSeries.reduce": "tests/test_acceptance.py reads it",
    "FormalPowerSeries.compose": "perfbench's tracer wraps it (fps.compose)",
}


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level __all__."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _unused_imports(name: str, lines: list[str], tree: ast.Module) -> list[str]:
    """`module:line name` for each imported name the module never reads."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.module == "__future__" or (name.endswith("__init__.py") and node.level)
        ):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and "noqa" not in lines[alias.lineno - 1]:
                    found.append(f"{name}:{alias.lineno} {bound}")
    return found


def _sources(node: ast.ImportFrom) -> set:
    """(module, level) of each module an import reads: M for `from M import`,
    and each named submodule for `from . import a, b`."""
    if node.module is None:
        return {(alias.name, node.level) for alias in node.names}
    return {(node.module, node.level)}


def _redundant_local_imports(name: str, tree: ast.Module) -> list[str]:
    """`module:line M` for each function-level `from M import` of a module
    that the same file already imports from at module level."""
    top = set().union(*(_sources(n) for n in tree.body if isinstance(n, ast.ImportFrom)))
    local = {
        id(node): node
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and _sources(node) & top
    }
    return sorted(
        f"{name}:{node.lineno} {'.' * node.level}{node.module or ''}"
        for node in local.values()
    )


def _imports_of(name: str, tree: ast.Module, banned: str) -> list[str]:
    """`module:line` for each import, at any depth, of module `banned`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        if any(m == banned or m.startswith(banned + ".") for m in modules):
            found.append(f"{name}:{node.lineno}")
    return found


def _budget_sized_tables(name: str, tree: ast.Module) -> list[str]:
    """`module:line f` for each call to a function f named `*_sequence`
    with an argument that reads `.max_terms`."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = getattr(node.func, "id", None) or getattr(node.func, "attr", "")
        args = [*node.args, *(k.value for k in node.keywords)]
        if func.endswith("_sequence") and any(
            isinstance(n, ast.Attribute) and n.attr == "max_terms"
            for arg in args
            for n in ast.walk(arg)
        ):
            found.append(f"{name}:{node.lineno} {func}")
    return found


#: Modules whose engines take their bindings as keyword arguments.
ENGINE_MODULES = ("identities/exact.py", "identities/pointwise.py")


def _keyed_parameter_reads(name: str, tree: ast.Module) -> list[str]:
    """`module:line f` for each subscript p["key"], with a string constant,
    of a parameter p of function f."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
        params |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id in params
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)
            ):
                found.append(f"{name}:{node.lineno} {fn.name}")
    return found


#: Parameter names whose range only `scalars.check_order` checks.
ORDER_PARAMS = {"n", "nmax", "kmax", "m", "step", "order", "x_degree"}


def _raises_domain_error(statements: list[ast.stmt]) -> bool:
    """Whether a `raise DomainError(...)` sits anywhere in `statements`."""
    for node in (n for stmt in statements for n in ast.walk(stmt)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if (getattr(exc, "id", None) or getattr(exc, "attr", None)) == "DomainError":
                return True
    return False


def _hand_rolled_order_checks(name: str, tree: ast.Module) -> list[str]:
    """`module:line f` for each `if` in function f whose body raises
    DomainError and whose test orders a parameter of f in ORDER_PARAMS
    against an int constant."""
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
        params &= ORDER_PARAMS
        for node in ast.walk(fn):
            if not isinstance(node, ast.If) or not _raises_domain_error(node.body):
                continue
            for cmp in (n for n in ast.walk(node.test) if isinstance(n, ast.Compare)):
                operands = [cmp.left, *cmp.comparators]
                if (
                    any(isinstance(op, ordering) for op in cmp.ops)
                    and any(isinstance(o, ast.Name) and o.id in params for o in operands)
                    and any(
                        isinstance(o, ast.Constant) and type(o.value) is int for o in operands
                    )
                ):
                    found.append(f"{name}:{node.lineno} {fn.name}")
                    break
    return found


def _definitions(tree: ast.Module, public: bool):
    """(name, defining node) for each module-level binding, the public ones
    or the _private ones; dunder names are neither."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__") and name.startswith("_") != public:
                yield name, node


def _members(tree: ast.Module):
    """(`Class.name`, defining node) for each public non-dunder method or
    property of a module-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield f"{cls.name}.{node.name}", node


def _unreferenced(
    trees: dict[str, ast.Module], public: bool = False, members: bool = False
) -> list[str]:
    """`module:line name` for each module-level name of `trees` that no code
    in `trees` reads, by name, attribute or import.

    With `public`, the names checked are the public ones outside package
    `__init__.py` files, and a package's relative import (a re-export) is
    no read; with `members`, they are the `_members` of every class, read
    by their own name; otherwise they are the _private ones.
    """
    refs = defaultdict(list)
    for module, tree in trees.items():
        reexports = public and module.endswith("__init__.py")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                refs[node.id].append(id(node))
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                refs[node.attr].append(id(node))
            elif isinstance(node, ast.ImportFrom) and not (reexports and node.level):
                for alias in node.names:
                    refs[alias.name].append(id(alias))
    found = []
    for module, tree in trees.items():
        if public and module.endswith("__init__.py"):
            continue
        for name, node in _members(tree) if members else _definitions(tree, public):
            own = {id(n) for n in ast.walk(node)}
            if not any(ref not in own for ref in refs[name.rpartition(".")[2]]):
                found.append(f"{module}:{node.lineno} {name}")
    return found


def test_every_import_is_used():
    found = [
        entry
        for name, tree in TREES.items()
        for entry in _unused_imports(name, SOURCES[name].splitlines(), tree)
    ]
    assert found == []


def test_no_function_repeats_a_module_level_import():
    found = [
        entry for name, tree in TREES.items() for entry in _redundant_local_imports(name, tree)
    ]
    assert found == []


def test_no_module_imports_dataclasses():
    found = [
        entry for name, tree in TREES.items() for entry in _imports_of(name, tree, "dataclasses")
    ]
    assert found == []


def test_no_table_is_sized_to_the_summation_budget():
    found = [entry for name, tree in TREES.items() for entry in _budget_sized_tables(name, tree)]
    assert found == []


def test_no_function_checks_an_order_range_by_hand():
    found = [
        entry for name, tree in TREES.items() for entry in _hand_rolled_order_checks(name, tree)
    ]
    assert found == []


def test_no_engine_reads_its_binding_by_key():
    found = [entry for name in ENGINE_MODULES for entry in _keyed_parameter_reads(name, TREES[name])]
    assert found == []


def test_every_private_name_is_referenced():
    assert _unreferenced(TREES) == []


def test_every_public_name_is_read():
    unread = _unreferenced(TREES, public=True)
    assert [entry for entry in unread if entry.split()[-1] not in READ_OUTSIDE_SRC] == []


def test_every_public_member_is_read():
    unread = _unreferenced(TREES, members=True)
    assert [entry for entry in unread if entry.split()[-1] not in READ_OUTSIDE_SRC] == []


def test_every_name_read_outside_src_is_still_defined():
    defined = {
        name
        for tree in TREES.values()
        for name, _ in itertools.chain(_definitions(tree, public=True), _members(tree))
    }
    assert sorted(set(READ_OUTSIDE_SRC) - defined) == []


def _lazy_tables() -> dict[str, dict]:
    """{package __init__ path: its `_LAZY` table}, read from the syntax tree."""
    return {
        name: ast.literal_eval(node.value)
        for name, tree in TREES.items()
        if name.endswith("__init__.py")
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "_LAZY" for t in node.targets)
    }


def test_every_lazy_export_names_a_definition():
    tables = _lazy_tables()
    assert set(tables) == {"__init__.py", "identities/__init__.py"}
    found = []
    for package, table in tables.items():
        base = package.removesuffix("__init__.py")
        for name, module in table.items():
            path = base + module.replace(".", "/")
            tree = TREES.get(f"{path}.py") or TREES.get(f"{path}/__init__.py")
            defined = {n for n, _ in _definitions(tree, public=True)} if tree else set()
            if name not in defined:
                found.append(f"{package} {name} -> {module}")
    assert found == []


def test_all_is_the_eager_names_plus_the_lazy_table():
    for package, table in _lazy_tables().items():
        eager = {
            alias.asname or alias.name
            for node in TREES[package].body
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if not alias.name.startswith("_")
        }
        assert not eager & set(table), package
        dotted = ".".join(["lacunary", *package.split("/")[:-1]])
        exported = importlib.import_module(dotted).__all__
        assert sorted(exported) == sorted(eager | set(table)), package


TOY = """\
from __future__ import annotations
import os
import sys  # noqa
from typing import Any


def _dead():
    return _dead()


_LIVE = 1
x: Any = _LIVE


def lazy():
    from typing import Optional
    from json import dumps

    return Optional, dumps
"""


def test_the_checks_catch_dead_code():
    tree = ast.parse(TOY)
    assert _unused_imports("toy.py", TOY.splitlines(), tree) == ["toy.py:2 os"]
    assert _unreferenced({"toy.py": tree}) == ["toy.py:7 _dead"]
    assert _redundant_local_imports("toy.py", tree) == ["toy.py:16 typing"]
    # `from . import m` reads submodule m: a repeated m is flagged, a new one is lazy.
    siblings = ast.parse("from . import a\n\n\ndef f():\n    from . import a\n    from . import b\n")
    assert _redundant_local_imports("toy.py", siblings) == ["toy.py:5 ."]
    # The package re-export of `lazy` is no read; a sibling's import is one,
    # and a sibling's assignment to `x` is not.
    package = {"toy.py": tree, "__init__.py": ast.parse("from .toy import lazy\n")}
    assert _unreferenced(package, public=True) == ["toy.py:12 x", "toy.py:15 lazy"]
    package["use.py"] = ast.parse("from .toy import lazy\nx = 1\n")
    assert _unreferenced(package, public=True) == ["toy.py:12 x", "use.py:2 x"]
    # A class member read only by itself is flagged; dunder and _private
    # members are not checked.
    members = ast.parse(
        "class A:\n    @property\n    def size(self):\n        return 1\n\n"
        "    def grow(self):\n        return self.size + self.grow()\n\n"
        "    def __add__(self, other):\n        return other\n\n"
        "    def _hidden(self):\n        return 0\n"
    )
    assert _unreferenced({"toy.py": members}, members=True) == ["toy.py:6 A.grow"]
    # Every spelling of a dataclasses import is found, a lazy one included;
    # a relative import of a sibling that shares the name is not.
    records = ast.parse(
        "import dataclasses\nfrom dataclasses import replace\nfrom . import dataclasses\n\n\n"
        "def f():\n    import os, dataclasses as dc\n"
    )
    found = _imports_of("toy.py", records, "dataclasses")
    assert found == ["toy.py:1", "toy.py:2", "toy.py:7"]
    # A table sized to the budget is flagged, by keyword and through a
    # module too; a lazy generator's range over the budget is not.
    tables = ast.parse(
        "hs = hermite_h_sequence(ctrl.max_terms, u)\n"
        "c = polys.hermite_coeff_sequence(2, n + 2 * ctrl.max_terms, xs)\n"
        "c = hermite_coeff_sequence(2, nmax=control.max_terms, xs=xs)\n"
        "seq = laguerre_sequence(2 * top, x)\n"
        "terms = (w**r for r in range(ctrl.max_terms + 1))\n"
    )
    assert _budget_sized_tables("toy.py", tables) == [
        "toy.py:1 hermite_h_sequence",
        "toy.py:2 hermite_coeff_sequence",
        "toy.py:3 hermite_coeff_sequence",
    ]
    # A range check of an order parameter against an int constant is
    # flagged, either way round and inside a larger test; an equality rule,
    # a check of another name, a float bound and an `if` that raises
    # nothing are not.
    orders = ast.parse(
        "def kernel(n, x, step=1, *, m=2):\n"
        "    if n < 0:\n"
        "        raise DomainError('degree must be >= 0')\n"
        "    if x < 0 or 1 > step:\n"
        "        raise errors.DomainError('step must be >= 1')\n"
        "    if m != 1:\n"
        "        raise DomainError('only m = 1')\n"
        "    if x < 0:\n"
        "        raise DomainError('x must be >= 0')\n"
        "    if n < 0.5:\n"
        "        raise DomainError('n must be >= 0.5')\n"
        "    if n > 5:\n"
        "        return x\n"
        "    check_order(n)\n"
        "    return x\n"
    )
    assert _hand_rolled_order_checks("toy.py", orders) == [
        "toy.py:2 kernel",
        "toy.py:4 kernel",
    ]
    # A parameter read by a string key is flagged, in a nested function too;
    # a keyword parameter, a local dict, an int index and a variable key are not.
    keyed = ast.parse(
        "def point(g, t, top, **kw):\n"
        "    x = g['x']\n"
        "    params = {**g, 't': t}\n"
        "    y = params['t'] + top[0] + g[key]\n"
        "    def inner(row):\n"
        "        return row['y'] + kw['z']\n"
        "    return x, y, inner\n"
    )
    assert _keyed_parameter_reads("toy.py", keyed) == [
        "toy.py:2 point",
        "toy.py:6 point",
        "toy.py:6 inner",
    ]
