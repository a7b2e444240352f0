"""No code that nothing calls: every function in ``src/curvelab`` has a
caller there, every module-level constant a reader, and every import a
reader in its own module; no code writes into a window's ``__dict__`` but
the one per-window table helper and the builders' hand-overs; and no code
is made from text.

Every module-level function, every method of a class, and every function
nested in one of them, defined in ``src/curvelab``, must be referenced
somewhere else in ``src/curvelab``: by an ``ast.Name`` or an
``ast.Attribute`` with its name that reads it.  Exempt are dunders, which
Python calls; the click commands and groups, which the command line calls;
the click hooks that ``cli`` overrides (``CLICK_HOOKS``), which click calls
by name on each command; and the functions the benchmark's layer tracer wraps
(``test_layer_names.TARGETS``), which it finds by name even where only the
tests call them.  Likewise every name that a module-level assignment binds
must be read somewhere in ``src/curvelab``; dunders such as ``__version__``
are exempt.  And every name that an import statement in a module binds,
at any depth, must be read in that same module; ``from __future__``
imports are exempt.

A write into a ``__dict__`` is any use of one but reading an item
(``d[k]``, ``d.get(k)``, ``k in d``): an item assignment, a method such as
``update`` or ``setdefault``, or an alias through which either could be
made.  Only ``window.per_window`` and the hand-overs of
``farey.farey_window`` (its index) and ``s5windows.build_window`` (its
tables) may make one, so that a per-window table is kept one way.

No module calls ``exec``, ``eval`` or ``compile``: code made from text at
run time is compiled anew in every process, where code written out is
compiled with its module, or read from cached bytecode.

The gate matches by name only, not by binding.  A function that shares its
name with another function or attribute escapes it: an uncalled
``farey.adjacent`` would pass it because ``s5windows.adjacent`` is called
(the Farey one, which only the tests call, lives in ``tests/oracles.py``).
A reference in the function's own body counts too, so that an override
calling ``super().invoke`` passes, and so does a helper that only calls
itself.
"""

import ast
from pathlib import Path

from test_layer_names import TARGETS

SRC = Path(__file__).resolve().parent.parent / "src" / "curvelab"
CLICK_DECORATORS = {"command", "group"}
# methods of click's Command that click itself calls; cli overrides them
CLICK_HOOKS = {"get_help_option"}
# builtins that turn text into code, which every process would pay for
CODE_MAKERS = {"exec", "eval", "compile"}
DICT_WRITERS = {"curvelab.window.per_window.table", "curvelab.farey.farey_window",
                "curvelab.s5windows.build_window"}


def referenced_names(tree: ast.Module) -> set[str]:
    """The names that a Name or an Attribute in the tree reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def is_click_command(fn: ast.FunctionDef) -> bool:
    for dec in fn.decorator_list:
        call = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(call, ast.Attribute) and call.attr in CLICK_DECORATORS:
            return True
    return False


def definitions(tree: ast.Module):
    """(qualified name, node) for each function defined in the tree."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def constants(tree: ast.Module):
    """Each name that an assignment in the module's body binds."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    yield node.id


def imports(tree: ast.Module):
    """Each name that an import statement in the tree binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]


def parse(src: Path) -> dict[str, ast.Module]:
    return {f"curvelab.{path.stem}": ast.parse(path.read_text(), str(path))
            for path in sorted(src.glob("*.py"))}


def uncalled(src: Path) -> list[str]:
    """The functions under src that no code under src refers to by name."""
    trees = parse(src)
    names = set().union(*map(referenced_names, trees.values()))
    exempt = set(TARGETS)
    out = []
    for module, tree in trees.items():
        for qualname, fn in definitions(tree):
            if is_dunder(fn.name) or is_click_command(fn) or fn.name in CLICK_HOOKS:
                continue
            if fn.name not in names and (module, qualname) not in exempt:
                out.append(f"{module}.{qualname}")
    return out


def unread(src: Path) -> list[str]:
    """The module-level constants under src that no code under src reads."""
    trees = parse(src)
    names = set().union(*map(referenced_names, trees.values()))
    return [f"{module}.{name}" for module, tree in trees.items()
            for name in constants(tree) if not is_dunder(name) and name not in names]


def unused_imports(src: Path) -> list[str]:
    """The imported names under src that their own module never reads."""
    return [f"{module}.{name}" for module, tree in parse(src).items()
            for name in imports(tree) if name not in referenced_names(tree)]


def reads_an_item(node: ast.Attribute, parent: ast.AST) -> bool:
    """Whether the use of ``node`` (a ``__dict__``) in ``parent`` only reads."""
    if isinstance(parent, ast.Subscript):
        return parent.value is node and isinstance(parent.ctx, ast.Load)
    if isinstance(parent, ast.Attribute):
        return parent.attr == "get"
    return (isinstance(parent, ast.Compare) and node is not parent.left
            and all(isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops))


def dict_writers(src: Path) -> list[str]:
    """The functions under src, innermost first, that may write into a
    ``__dict__``, apart from ``DICT_WRITERS``."""
    out = []

    def walk(node, scope, parent):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if (isinstance(node, ast.Attribute) and node.attr == "__dict__"
                and not reads_an_item(node, parent) and scope not in DICT_WRITERS):
            out.append(scope)
        for child in ast.iter_child_nodes(node):
            walk(child, scope, node)

    for module, tree in parse(src).items():
        walk(tree, module, None)
    return out


def code_makers(src: Path) -> list[str]:
    """The modules under src that call ``exec``, ``eval`` or ``compile``."""
    return [f"{module}.{node.func.id}" for module, tree in parse(src).items()
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id in CODE_MAKERS]


def test_every_function_has_a_caller_in_src():
    assert uncalled(SRC) == []


def test_an_uncalled_helper_is_flagged(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "farey.py", "a") as f:
        f.write("\n\ndef _nobody_calls_me(x):\n    return x\n")
    with open(tmp_path / "window.py", "a") as f:
        f.write("\n\nclass _Unused:\n    def lonely(self):\n        return 0\n")
    assert uncalled(tmp_path) == ["curvelab.farey._nobody_calls_me",
                                  "curvelab.window._Unused.lonely"]


def test_every_constant_is_read_in_src():
    assert unread(SRC) == []


def test_an_unread_constant_is_flagged(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "triangulation.py", "a") as f:
        f.write("\n\nNOBODY_READS_ME: tuple = (0,) * NUM_EDGES\n")
    with open(tmp_path / "window.py", "a") as f:
        f.write("\n\n_LEFT, _RIGHT = 1, 2\nprint(_RIGHT)\n__hidden__ = 3\n")
    assert unread(tmp_path) == ["curvelab.triangulation.NOBODY_READS_ME",
                                "curvelab.window._LEFT"]


def test_every_import_is_read_in_its_module():
    assert unused_imports(SRC) == []


def test_an_unused_import_is_flagged(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "window.py", "a") as f:
        f.write("\n\nimport os.path\nfrom math import gcd as _gcd, lcm\nprint(lcm)\n")
    with open(tmp_path / "farey.py", "a") as f:
        f.write("\n\ndef _later():\n    import fractions\n    return 0\n")
    assert unused_imports(tmp_path) == ["curvelab.farey.fractions",
                                        "curvelab.window.os", "curvelab.window._gcd"]


def test_only_the_table_helper_and_hand_overs_write_a_window_dict():
    assert dict_writers(SRC) == []


def test_a_hand_written_table_is_flagged(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "arc2.py", "a") as f:
        f.write("\n\ndef _memo(w):\n"
                "    if '_t' not in w.__dict__:\n"
                "        w.__dict__['_t'] = w.__dict__.get('_u')\n"
                "    return w.__dict__.setdefault('_t', {})\n"
                "\n\nclass _Keeper:\n    def keep(self, w):\n"
                "        tables = w.__dict__\n        tables['_t'] = 0\n")
    assert dict_writers(tmp_path) == ["curvelab.arc2._memo", "curvelab.arc2._memo",
                                      "curvelab.arc2._Keeper.keep"]


def test_no_module_makes_code_from_text():
    assert code_makers(SRC) == []


def test_code_made_from_text_is_flagged(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "mcg.py", "a") as f:
        f.write("\n\nnamespace: dict = {}\nexec('x = 1', namespace)\n")
    with open(tmp_path / "window.py", "a") as f:
        f.write("\n\ndef _later(text):\n    return eval(compile(text, '', 'eval'))\n")
    assert sorted(code_makers(tmp_path)) == [
        "curvelab.mcg.exec", "curvelab.window.compile", "curvelab.window.eval"]
