"""Line counts of the `src/dieumod` modules: code, docstrings and comments,
and blank lines, for the working tree and for a git revision, and the
difference between the two.

    python3 tools/srclines.py [REVISION]      # REVISION defaults to HEAD

A line is code when it holds any token that is not a comment or a
docstring (a line with code and a comment is code); a docstring or
comment line otherwise, when it lies in a docstring or holds a comment;
blank otherwise, so the three counts of a file sum to its line count.
A docstring is the string statement that opens a module, class or
function body.  Standard library only.
"""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/dieumod"
KINDS = ("code", "doc", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _docstring_lines(source):
    """The line numbers that the docstrings of `source` span."""
    lines = set()
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source):
    """{"code": ..., "doc": ..., "blank": ...} for one module's source."""
    docs = _docstring_lines(source)
    code, doc = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        span = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT or (tok.type == tokenize.STRING and tok.start[0] in docs):
            doc.update(span)
        else:
            code.update(span)
    total = len(source.splitlines())
    doc -= code
    return {"code": len(code), "doc": len(doc), "blank": total - len(code) - len(doc)}


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def working_tree():
    """{module name: source} of the working tree."""
    return {path.name: path.read_text() for path in sorted((ROOT / PACKAGE).glob("*.py"))}


def revision(rev):
    """{module name: source} at a git revision, read with `git show`."""
    names = _git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {name: _git("show", f"{rev}:{PACKAGE}/{name}")
            for name in sorted(names) if name.endswith(".py")}


def table(modules):
    """{module name: counts}, with a "total" row."""
    rows = {name: count(source) for name, source in modules.items()}
    rows["total"] = {k: sum(r[k] for r in rows.values()) for k in KINDS}
    return rows


def main(argv):
    rev = argv[1] if len(argv) > 1 else "HEAD"
    new, old = table(working_tree()), table(revision(rev))
    zero = dict.fromkeys(KINDS, 0)
    cols = " ".join(f"{k:>6}" for k in (*KINDS, "total"))
    print(f"{'module':<16} {'working tree':^27} | {rev[:27]:^27} | {'difference':^27}")
    print(f"{'':<16} {cols} | {cols} | {cols}")
    names = [n for n in sorted(set(new) | set(old)) if n != "total"] + ["total"]
    for name in names:
        a, b = new.get(name, zero), old.get(name, zero)
        parts = []
        for row, signed in ((a, False), (b, False), ({k: a[k] - b[k] for k in KINDS}, True)):
            values = [row[k] for k in KINDS] + [sum(row.values())]
            parts.append(" ".join(f"{v:>+6}" if signed else f"{v:>6}" for v in values))
        print(f"{name:<16} " + " | ".join(parts))


if __name__ == "__main__":
    main(sys.argv)
