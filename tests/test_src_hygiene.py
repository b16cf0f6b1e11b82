"""Static hygiene of the package source: no unused imports, no dead locals.

Walks ``src/arquiver`` with ``ast``.  An import is unused when its bound
name is never read in the module; ``__init__.py`` re-exports, so it is
exempt.  A local is dead when a function assigns it (by ``=``, augmented
assignment, a ``for`` or ``with`` target or tuple unpacking) and neither
the function nor any function nested in it reads it.  Names that start
with ``_`` are exempt from both checks, which is how an ignored value is
marked.  A module-level function or class whose name starts with ``_`` is
private to the package, so some module in it must read it (as a name or an
attribute); one that none reads is a helper left behind.

A public module-level function or class, and a public method of a
module-level class (dunders are exempt, being private by name), is what the
package ships, so something outside its own body must read it: a name, an
attribute or an imported name, in the package (``__init__`` re-exports
count) or in ``perfbench``.  Tests do not count; a routine that only tests
read belongs under ``tests``.

A parameter with a default is a knob: some call in ``src``, ``tests`` or
``perfbench`` must pass it, by keyword or by position, or its value is a
constant.  Calls are matched to definitions by bare or attribute name, a
class name calls ``__init__``, and ``*args`` or ``**kwargs`` at a call
counts as passing every parameter.

A quotient by a reduced span is read one way, by ``RowSpace.complement``
and ``RowSpace.project``, whose non-pivot rule ``kernel_basis`` shares, so
no module builds ``set(pivots)`` or ``set(<expr>.pivots)`` to pick the
non-pivot coordinates itself.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "arquiver"


def _reads(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(func):
    """The nodes of ``func``'s body, not descending into nested scopes."""
    stack = [node for node in func.body if not isinstance(node, _SCOPES)]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node) if not isinstance(child, _SCOPES))


def unused_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                bound[name] = node.lineno
    reads = _reads(tree)
    return [(line, name) for name, line in bound.items() if name not in reads and not name.startswith("_")]


def dead_locals(tree):
    out = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        shared = set()
        stores = {}
        for node in _own_nodes(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stores.setdefault(node.id, node.lineno)
        reads = _reads(func)
        out.extend(
            (line, name)
            for name, line in stores.items()
            if name not in reads and name not in shared and not name.startswith("_")
        )
    return out


def unread_private_definitions(trees):
    """(module, line, name) of each module-level ``_name`` function or class
    that no module of ``trees`` (a dict name -> ast) reads."""
    reads = set()
    for tree in trees.values():
        reads |= _reads(tree)
        reads |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return [
        (module, node.lineno, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, _SCOPES) and node.name.startswith("_")
        and not node.name.startswith("__") and node.name not in reads
    ]


def public_definitions(tree):
    """(first line, last line, name) of each public module-level function or
    class and each public method of a module-level class."""
    out = []
    for node in tree.body:
        if not isinstance(node, _SCOPES):
            continue
        members = node.body if isinstance(node, ast.ClassDef) else []
        out.extend(
            (child.lineno, child.end_lineno, child.name)
            for child in [node] + members
            if isinstance(child, _SCOPES) and not child.name.startswith("_")
        )
    return out


def read_sites(tree):
    """(name, line) of each read in ``tree``: a loaded name or attribute, or
    a name imported from a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def unread_public_definitions(defining, reading):
    """(module, line, name) of each public definition of ``defining`` (a dict
    name -> ast) that no tree of ``reading`` (the same kind of dict) reads
    outside the definition's own lines."""
    sites = {}
    for module, tree in reading.items():
        for name, line in read_sites(tree):
            sites.setdefault(name, []).append((module, line))
    return [
        (module, first, name)
        for module, tree in defining.items()
        for first, last, name in public_definitions(tree)
        if all(m == module and first <= line <= last for m, line in sites.get(name, []))
    ]


def defaulted_parameters(tree):
    """(line, callee, parameter, position) of each parameter with a default.
    The callee is the name a call uses (the class for ``__init__``) and the
    position the index of a positional argument that fills the parameter,
    ``self`` not counted, or None for a keyword-only parameter."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)
                continue
            bound = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list
            )
            callee = cls if cls is not None and child.name == "__init__" else child.name
            args = child.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            out.extend(
                (a.lineno, callee, a.arg, i - bound)
                for i, a in enumerate(positional[first:], first)
            )
            out.extend(
                (a.lineno, callee, a.arg, None)
                for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            )
            visit(child, None)

    visit(tree, None)
    return out


def calls_by_name(trees):
    """Every call in ``trees``, keyed by the bare or attribute name called."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call, parameter, position):
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    if any(k.arg == parameter for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def unset_knobs(tree, calls):
    """(line, "callee(parameter)") of each defaulted parameter of ``tree``
    that no call of ``calls`` passes."""
    return [
        (line, f"{callee}({parameter})")
        for line, callee, parameter, position in defaulted_parameters(tree)
        if not any(_passes(c, parameter, position) for c in calls.get(callee, []))
    ]


def _names_pivots(node):
    return (isinstance(node, ast.Name) and node.id == "pivots") or (
        isinstance(node, ast.Attribute) and node.attr == "pivots"
    )


def pivot_sets(tree):
    """(line, source) of each call ``set(pivots)`` or ``set(<expr>.pivots)``."""
    return [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "set"
        and len(node.args) == 1 and _names_pivots(node.args[0])
    ]


def _findings(check, skip_init):
    found = []
    for path in sorted(SRC.glob("*.py")):
        if skip_init and path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{line}: {name}" for line, name in sorted(check(tree)))
    return found


def test_no_unused_imports():
    assert _findings(unused_imports, skip_init=True) == []


def test_no_dead_locals():
    assert _findings(dead_locals, skip_init=False) == []


def test_no_unread_private_definitions():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    assert unread_private_definitions(trees) == []


def test_every_public_definition_is_read_outside_tests():
    package = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    bench = {
        str(path.relative_to(ROOT)): ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted((ROOT / "perfbench").rglob("*.py"))
    }
    assert unread_public_definitions(package, {**package, **bench}) == []


def test_every_knob_is_set_somewhere():
    calls = calls_by_name(
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for part in ("src", "tests", "perfbench")
        for path in sorted((ROOT / part).rglob("*.py"))
    )
    assert _findings(lambda tree: unset_knobs(tree, calls), skip_init=False) == []


def test_quotients_read_the_rowspace_rule():
    assert _findings(pivot_sets, skip_init=False) == []


def test_the_checks_see_what_they_look_for():
    tree = ast.parse(
        "import os\n"
        "from x import y as z, _w\n"
        "def f(a):\n"
        "    b, _c = a\n"
        "    for i, j in a:\n"
        "        print(j)\n"
        "    def g():\n"
        "        nonlocal b\n"
        "        b = 1\n"
        "    k = [m for m in a]\n"
        "    return z\n"
    )
    assert sorted(unused_imports(tree)) == [(1, "os")]
    assert sorted(dead_locals(tree)) == [(4, "b"), (5, "i"), (10, "k")]
    trees = {
        "a.py": ast.parse(
            "def _used(): pass\n"
            "def _left(): pass\n"
            "class _Attr: pass\n"
            "class _Dead: pass\n"
            "def __dunder__(): pass\n"
            "def f():\n"
            "    def _nested(): pass\n"
        ),
        "b.py": ast.parse("from a import _left\n_used()\nx = m._Attr\n"),
    }
    assert unread_private_definitions(trees) == [("a.py", 2, "_left"), ("a.py", 4, "_Dead")]
    public = {
        "a.py": ast.parse(
            "def used(): pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "class K:\n"
            "    def method(self): pass\n"
            "    def calls(self):\n"
            "        return self.method()\n"
            "    def __len__(self): return 0\n"
            "    def _own(self): pass\n"
            "def _private(): pass\n"
            "def stored(): pass\n"
        ),
    }
    reader = {"b.py": ast.parse("from a import used\nK.x = 1\nobj.stored = 2\n")}
    assert unread_public_definitions(public, {**public, **reader}) == [
        ("a.py", 2, "recursive"),
        ("a.py", 6, "calls"),
        ("a.py", 11, "stored"),
    ]
    knobs = ast.parse(
        "def f(a, b=1, *, c=2, d=3): pass\n"
        "def g(x=0): pass\n"
        "def h(y=0): pass\n"
        "class K:\n"
        "    def __init__(self, size=1): pass\n"
        "    def m(self, depth=1): pass\n"
        "    @staticmethod\n"
        "    def s(width=1): pass\n"
    )
    calls = calls_by_name([ast.parse("f(0, c=1)\ng(*xs)\nK()\nk.m(2)\nK.s(3)\nh(**kw)\n")])
    assert unset_knobs(knobs, calls) == [(1, "f(b)"), (1, "f(d)"), (5, "K(size)")]
    quotients = ast.parse(
        "reps = [i for i in range(n) if i not in set(span.pivots)]\n"
        "a = set(pivots)\n"
        "b = frozenset(span.pivots)\n"
        "c = set(span.rows)\n"
        "d = set(spaces[v].pivots)\n"
        "e = set(pivot)\n"
        "f = set(pivots, extra)\n"
    )
    assert sorted(pivot_sets(quotients)) == [
        (1, "set(span.pivots)"),
        (2, "set(pivots)"),
        (5, "set(spaces[v].pivots)"),
    ]
