"""Every backticked dotted name in README.md and in the docstrings and
comments of `src/dieumod` that starts with a `dieumod` module or with a
class defined there, such as `wittring.min_N` or `CoeffTower.teichmuller`,
resolves by getattr, so a rename or a deletion cannot leave a stale name in
the docs.  File names (`verify.py`) are skipped."""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dieumod"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
NAME = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)+)(?:\([^`]*\))?`")
FILE_SUFFIXES = ("py", "md", "json")


def doc_text(source):
    """The docstrings and comments of a module's source, as one string."""
    parts = [ast.get_docstring(node, clean=False) or "" for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
    parts += [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type == tokenize.COMMENT]
    return "\n".join(parts)


def roots():
    """The objects a dotted name may start with: each `dieumod` module, and
    each class defined in one, by its bare name."""
    out = {}
    for name in MODULES:
        module = importlib.import_module(f"dieumod.{name}")
        out[name] = module
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                out[attr] = value
    return out


def dotted_names(text, starts):
    """The backticked dotted names of `text` whose first part is in
    `starts`, file names skipped, in order of first appearance."""
    names = [m[1] for m in NAME.finditer(text)]
    return list(dict.fromkeys(n for n in names
                              if n.split(".")[0] in starts
                              and n.rsplit(".", 1)[1] not in FILE_SUFFIXES))


def unresolved(names, starts):
    """The names of `names` that getattr cannot follow from their start."""
    out = []
    for name in names:
        first, *rest = name.split(".")
        obj = starts[first]
        for part in rest:
            if not hasattr(obj, part):
                out.append(name)
                break
            obj = getattr(obj, part)
    return out


def all_doc_names():
    starts = roots()
    texts = [(ROOT / "README.md").read_text()]
    texts += [doc_text((PACKAGE / f"{name}.py").read_text()) for name in ["__init__"] + MODULES]
    names = []
    for text in texts:
        names += dotted_names(text, starts)
    return list(dict.fromkeys(names)), starts


def test_every_doc_name_resolves():
    names, starts = all_doc_names()
    assert len(names) >= 30  # the check reads the docs it is meant to guard
    assert "CoeffTower.teichmuller" in names and "fppoly.teichmuller_point" in names
    assert unresolved(names, starts) == []


@pytest.mark.parametrize("text,stale", [
    ('"""Lifts by `CoeffTower.lift_by_window`."""\n', ["CoeffTower.lift_by_window"]),
    ("x = 1  # see `modp.FqElem.log` and `verify.py`\n", ["modp.FqElem.log"]),
    ('"""`fppoly.power(x, k)` and `RamElem.div_pi`."""\n', []),
])
def test_a_deleted_name_is_found(text, stale):
    starts = roots()
    assert unresolved(dotted_names(doc_text(text), starts), starts) == stale
