"""`tools/srclines.py`, the line counts of `src/dieumod`, partitions every
module's lines into code, docstring-and-comment and blank lines."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_srclines():
    spec = importlib.util.spec_from_file_location("srclines", ROOT / "tools" / "srclines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_at_head_sum_to_each_line_count():
    srclines = load_srclines()
    modules = srclines.revision("HEAD")
    assert "wittring.py" in modules and "__init__.py" in modules
    for name, source in modules.items():
        counts = srclines.count(source)
        assert all(counts[k] > 0 for k in srclines.KINDS), name
        assert sum(counts.values()) == len(source.splitlines()), name
    rows = srclines.table(modules)
    assert sum(rows["total"].values()) == sum(len(s.splitlines()) for s in modules.values())
    # a blank line inside a docstring is docstring; a code line with a
    # comment, and every line of a string that is not a docstring, is code
    assert srclines.count('"""doc"""\n# c\n\nx = """a\nb"""  # c\ndef f():\n'
                          '    """doc\n\n    more"""\n    return 1\n') == \
        {"code": 4, "doc": 5, "blank": 1}
