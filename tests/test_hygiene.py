"""Package hygiene: public names resolve, have a caller, class members
are read, and no import goes unused."""
import ast
import importlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "dyadlab"
ROOT = SRC.parents[1]
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")

# public names whose only callers are tests, kept as references there:
# the scalar kernel entry behind the dense almost-diagonal blocks, the
# explicit counterexample data behind the lattice cross-checks, and the
# matrix geometric mean behind the interpolation checks
REFERENCES = {"ad_entry", "generate", "geometric_mean"}


def _public(name):
    return getattr(importlib.import_module(f"dyadlab.{name}"), "__all__", ())


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(f"dyadlab.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ())
               if not hasattr(mod, attr)]
    assert not missing


def _loaded_names(path):
    """Names a file loads (as a Name, an Attribute or an import alias),
    leaving out each top-level definition's loads of its own name."""
    out = set()
    for top in ast.parse(path.read_text()).body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        out |= names - {getattr(top, "name", None)}
    return out


def test_every_public_name_has_a_caller():
    files = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    loaded = set().union(*map(_loaded_names, files))
    public = {(name, attr) for name in MODULES for attr in _public(name)}
    assert REFERENCES <= {attr for _, attr in public}
    uncalled = sorted(f"{name}.{attr}" for name, attr in public
                      if attr not in loaded | REFERENCES)
    assert not uncalled, f"no caller outside the tests: {uncalled}"


def _members(path):
    """(class, member) for each method, property and annotated field of
    the top-level classes of a file, dunder methods left out."""
    out = []
    for cls in ast.parse(path.read_text()).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                name = item.name
            elif (isinstance(item, ast.AnnAssign)
                  and isinstance(item.target, ast.Name)):
                name = item.target.id
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                out.append((cls.name, name))
    return out


def test_every_member_is_read():
    files = [p for d in ("src", "tests", "demos", "perfbench")
             for p in (ROOT / d).rglob("*.py")]
    read = {node.attr for path in files
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = sorted(f"{path.stem}.{cls}.{name}"
                    for path in SRC.glob("*.py")
                    for cls, name in _members(path) if name not in read)
    assert not unread, f"members never read as an attribute: {unread}"


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    tree = ast.parse((SRC / f"{name}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = sorted(imported - loaded)
    assert not unused, f"{name}: unused imports {unused}"
