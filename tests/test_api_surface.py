"""Static scan of the public surface of every hkq module (AST only).

Keeps ten kinds of drift from coming back: an `__all__` entry whose name
the module does not define itself (gone, or only imported, which gives a
name defined elsewhere a second public home), an `__all__` entry that no
hkq module reads outside its own definition (a public name that no route,
verb or check needs; the known ones are pinned in KNOWN_UNREAD, so a name
that loses its last reader leaves `__all__` or joins the set), a public
method or property of a public class that no hkq module reads by its
attribute name outside its own body, a private
top-level name (a leading underscore, not a dunder) that no hkq module
reads outside its own definition (a dead helper), a name that the package
`__init__` imports from a module but that module's `__all__` does not list
(so a name removed from the public surface cannot linger in the package
namespace), an import nothing uses, a
call that mutates the process-global warning filters
(`warnings.catch_warnings`), which would make the library unsafe to call
concurrently, and a `json.dump`/`json.dumps` call passing `indent`, which
makes json fall back from its C encoder to the pure-Python one (about
twice as slow on the files the CLI writes), and a call that writes a file
(`open` with a write mode, `os.open`, `write_text`, `write_bytes`,
`np.save*`) anywhere but `jsonio._write`, the one writer, which rewrites
a file in place, and a memo entry keyed by anything but a string literal
(`_memo(obj, key, compute)`): an entry is a function of its value alone,
so no tolerance or other argument may enter its key.
"""

import ast
from pathlib import Path

import pytest

import hkq

MODULES = sorted(p for p in Path(hkq.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _imports(tree: ast.Module) -> list[str]:
    """Names bound by import statements anywhere in the module."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.append(alias.asname or alias.name.split(".")[0])
    return names


def _top_level_definitions(tree: ast.Module) -> set[str]:
    """Names the module binds itself at top level; imports do not count."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _reads(tree: ast.Module) -> set[tuple[str | None, str]]:
    """(enclosing top-level definition, name) for every name the module
    reads: a loaded bare name, or an attribute of a sibling module imported
    by `from . import m as alias`.  Imports and `__all__` strings are not
    reads."""
    aliases = {a.asname or a.name for n in ast.walk(tree)
               if isinstance(n, ast.ImportFrom) and n.level == 1 and n.module is None
               for a in n.names}
    reads = set()
    for stmt in tree.body:
        own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.add((own, n.id))
            elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                  and n.value.id in aliases):
                reads.add((own, n.attr))
    return reads


# public names that no hkq module reads, only tests and the benchmark:
#   herm_eig is the checked way to build act3's h from a matrix (act3 takes
#     a spectrum; the library factors only matrices it builds Hermitian);
#   load_cotangent reads the files that `hkq map --which psi1` writes, and
#     waits for a verb that reads them
KNOWN_UNREAD = {"matcore.herm_eig", "jsonio.load_cotangent"}


def test_every_module_is_scanned():
    assert {p.stem for p in MODULES} >= {
        "checks", "cli", "config", "errors", "grassmann", "hkspace",
        "jsonio", "matcore", "moment", "potentials", "quotient", "sampling"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_entries_are_defined(path):
    tree = _tree(path)
    missing = sorted(set(_exported(tree)) - _top_level_definitions(tree))
    assert missing == [], f"{path.name}: __all__ names not defined here {missing}"


def _unread(trees: dict[str, ast.Module], names) -> set[str]:
    """The "module.name" of each name in names(tree), over the modules in
    trees, that no module in trees reads outside the name's own definition."""
    reads = {module: _reads(tree) for module, tree in trees.items()}
    return {f"{stem}.{name}" for stem, tree in trees.items() for name in names(tree)
            if not any(read == name and not (module == stem and own == name)
                       for module, pairs in reads.items() for own, read in pairs)}


def _private_definitions(tree: ast.Module) -> set[str]:
    return {name for name in _top_level_definitions(tree)
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))}


def test_every_public_name_is_read_or_known_unread():
    assert _unread({p.stem: _tree(p) for p in MODULES}, _exported) == KNOWN_UNREAD


def test_every_private_name_is_read():
    assert _unread({p.stem: _tree(p) for p in MODULES}, _private_definitions) == set()


def _unread_methods(trees: dict[str, ast.Module]) -> set[str]:
    """"module.Class.name" of each public method or property (not a dunder)
    of a public top-level class that no module in trees reads as an
    attribute `.name` outside the method's own body.  A read is matched by
    name alone, so an unread method can hide behind a read one of the same
    name elsewhere; a read method is never reported."""
    methods = [(stem, cls.name, fn) for stem, tree in trees.items() for cls in tree.body
               if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
               for fn in cls.body
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not fn.name.startswith("_")]
    reads = [n for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
    unread = set()
    for stem, cls, fn in methods:
        own = {id(n) for n in ast.walk(fn)}
        if not any(n.attr == fn.name and id(n) not in own for n in reads):
            unread.add(f"{stem}.{cls}.{fn.name}")
    return unread


def test_every_public_method_is_read():
    assert _unread_methods({p.stem: _tree(p) for p in MODULES}) == set()


def test_an_unread_method_is_found():
    trees = {
        "a": ast.parse("class C:\n"
                       "    def used(self):\n"
                       "        return self.helper()\n"
                       "    def helper(self):\n"
                       "        return 1\n"
                       "    def recursive(self):\n"
                       "        return self.recursive()\n"
                       "    @property\n"
                       "    def size(self):\n"
                       "        return 2\n"
                       "    @staticmethod\n"
                       "    def zero():\n"
                       "        return C()\n"
                       "    def reconstruct(self):\n"
                       "        return self.size\n"
                       "    def __add__(self, other):\n"
                       "        return self\n"
                       "    def _private(self):\n"
                       "        return 0\n"
                       "class _Hidden:\n"
                       "    def never(self):\n"
                       "        return 0\n"),
        "b": ast.parse("from .a import C\n"
                       "def f(c):\n"
                       "    c.zero = None\n"
                       "    return c.used()\n"),
    }
    # `c.zero = None` stores, it does not read; helper and size are read
    # by other methods of C
    assert _unread_methods(trees) == {"a.C.recursive", "a.C.zero", "a.C.reconstruct"}


def test_a_private_name_read_only_by_itself_is_unread():
    trees = {
        "a": ast.parse("__version__ = '1'\n"
                       "_CONST = 1\n"
                       "def _used():\n"
                       "    return _CONST\n"
                       "def _dead():\n"
                       "    return _dead()\n"
                       "class _Own:\n"
                       "    me = _Own\n"),
        "b": ast.parse("from .a import _used, _dead\n"
                       "def f():\n"
                       "    return _used()\n"),
    }
    assert _unread(trees, _private_definitions) == {"a._dead", "a._Own"}


def test_imports_and_all_strings_are_not_reads():
    tree = ast.parse("from . import sibling as alias\n"
                     "from .other import f\n"
                     "__all__ = ['f', 'g']\n"
                     "def g():\n"
                     "    return g() + alias.h + np.linalg.svd\n")
    assert _reads(tree) == {("g", "g"), ("g", "alias"), ("g", "h"), ("g", "np")}


def test_package_reexports_only_public_names():
    package = Path(hkq.__file__)
    stray = []
    for node in _tree(package).body:
        if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module):
            continue
        exported = _exported(_tree(package.parent / f"{node.module}.py"))
        if not exported:  # a module without __all__ (config, errors)
            continue
        stray += [f"{node.module}.{a.name}" for a in node.names
                  if a.name != "*" and a.name not in exported]
    assert stray == [], f"hkq/__init__.py imports names outside __all__: {stray}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used_names(tree) | set(_exported(tree))
    unused = sorted(set(_imports(tree)) - used)
    assert unused == [], f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_warning_filter_juggling(path):
    calls = [n.lineno for n in ast.walk(_tree(path))
             if isinstance(n, ast.Attribute) and n.attr == "catch_warnings"
             or isinstance(n, ast.Name) and n.id == "catch_warnings"]
    assert calls == [], f"{path.name}: catch_warnings at lines {calls}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_json_writes_keep_the_c_encoder(path):
    def is_json_write(func):  # json.dump(s)(..), or dump(s)(..) imported from json
        if isinstance(func, ast.Attribute):
            return (func.attr in ("dump", "dumps") and isinstance(func.value, ast.Name)
                    and func.value.id == "json")
        return isinstance(func, ast.Name) and func.id in ("dump", "dumps")

    calls = [n.lineno for n in ast.walk(_tree(path))
             if isinstance(n, ast.Call) and is_json_write(n.func)
             and any(kw.arg == "indent" for kw in n.keywords)]
    assert calls == [], f"{path.name}: json.dump(s) with indent at lines {calls}"


WRITE_MODES = set("wax+")


def _file_writes(tree: ast.Module) -> list[tuple[str | None, str]]:
    """(top-level definition, call) of each call in tree that can write a
    file: `open` or an `.open` method with a write, append, create or
    update mode (or a mode that is not a literal), `os.open`, `.write_text`,
    `.write_bytes` and `np.save*` (`numpy.save*`)."""
    found = []
    for stmt in tree.body:
        own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for n in ast.walk(stmt):
            if not isinstance(n, ast.Call):
                continue
            func, name = n.func, ast.unparse(n.func)
            if name == "os.open" or (isinstance(func, ast.Attribute) and (
                    func.attr in ("write_text", "write_bytes")
                    or func.attr.startswith("save") and name.split(".")[0] in ("np", "numpy"))):
                found.append((own, name))
            elif name in ("open", "io.open") or (isinstance(func, ast.Attribute)
                                                 and func.attr == "open"):
                at = 1 if name in ("open", "io.open") else 0  # path.open(mode)
                mode = next((kw.value for kw in n.keywords if kw.arg == "mode"),
                            n.args[at] if len(n.args) > at else ast.Constant("r"))
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and not WRITE_MODES & set(mode.value)):
                    found.append((own, f"{name}(mode {ast.unparse(mode)})"))
    return found


def test_files_are_written_only_by_jsonio_write():
    # one write path: jsonio._write's in-place rewrite
    writes = {p.stem: _file_writes(_tree(p)) for p in MODULES}
    assert sorted(writes["jsonio"]) == [("_write", "open(mode 'w')"), ("_write", "os.open")]
    stray = [f"{stem}: {call} in {own}" for stem, found in writes.items()
             for own, call in found if (stem, own) != ("jsonio", "_write")]
    assert stray == [], stray


def test_every_kind_of_file_write_is_found():
    tree = ast.parse("import io, os\n"
                     "import numpy as np\n"
                     "from pathlib import Path\n"
                     "def reads(p):\n"
                     "    open(p); open(p, 'rb'); Path(p).open(); io.open(p, mode='r')\n"
                     "    return Path(p).read_text(), np.load(p)\n"
                     "def writes(p, m):\n"
                     "    open(p, 'w'); open(p, mode='ab'); open(p, 'r+'); open(p, m)\n"
                     "    Path(p).open('x'); io.open(p, 'wb'); os.open(p, os.O_RDONLY)\n"
                     "    Path(p).write_text(''); Path(p).write_bytes(b'')\n"
                     "    np.save(p, 0); np.savez(p); numpy.savetxt(p, 0)\n"
                     "class C:\n"
                     "    def f(self, p):\n"
                     "        self.path.write_text(p)\n")
    assert _file_writes(tree) == [
        ("writes", "open(mode 'w')"), ("writes", "open(mode 'ab')"),
        ("writes", "open(mode 'r+')"), ("writes", "open(mode m)"),
        ("writes", "Path(p).open(mode 'x')"), ("writes", "io.open(mode 'wb')"),
        ("writes", "os.open"), ("writes", "Path(p).write_text"),
        ("writes", "Path(p).write_bytes"), ("writes", "np.save"), ("writes", "np.savez"),
        ("writes", "numpy.savetxt"), ("C", "self.path.write_text")]


def _memo_keys(tree: ast.Module) -> list[tuple[str | None, str]]:
    """(top-level definition, key as written) of each `_memo(obj, key,
    compute)` call in tree, bare or as a module attribute, whose key is not
    a string literal."""
    found = []
    for stmt in tree.body:
        own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for n in ast.walk(stmt):
            if not (isinstance(n, ast.Call) and ast.unparse(n.func).split(".")[-1] == "_memo"):
                continue
            key = next((kw.value for kw in n.keywords if kw.arg == "key"),
                       n.args[1] if len(n.args) > 1 else None)
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                found.append((own, "missing" if key is None else ast.unparse(key)))
    return found


def test_every_memo_key_is_a_string_literal():
    # a tolerance decides a verdict, never a memoized value
    keyed = [f"{p.stem}.{own}: {key}" for p in MODULES for own, key in _memo_keys(_tree(p))]
    assert keyed == [], keyed


def test_a_memo_key_that_is_not_a_string_literal_is_found():
    tree = ast.parse("def fine(pt):\n"
                     "    _memo(pt, 'x factors', f)\n"
                     "    return hkspace._memo(pt, key='pair', compute=f)\n"
                     "def per_tol(pt, tol, name):\n"
                     "    _memo(pt, ('pair', tol), f); hkspace._memo(pt, name, f)\n"
                     "    _memo(pt, f'graph {tol}', f); _memo(pt, key=1, compute=f); _memo(pt)\n"
                     "    memo(pt, ('other', tol), f)\n")
    assert _memo_keys(tree) == [
        ("per_tol", "('pair', tol)"), ("per_tol", "name"), ("per_tol", "f'graph {tol}'"),
        ("per_tol", "1"), ("per_tol", "missing")]
