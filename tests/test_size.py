import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the tracked size of src/ plus scripts/: a change that grows either number
# raises its ceiling here, in its own diff, and says why in CHANGES.md
MAX_LINES = 3053
MAX_CODE_LINES = 1570


def tracked_size():
    """(lines, code lines) of src/rayform/*.py plus scripts/*.py, as `wc -l`
    counts them and without blank lines, comment lines and the docstrings of
    modules, classes and functions (their whole span, found by `ast`)."""
    files = sorted((ROOT / "src" / "rayform").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    lines = code = 0
    for path in files:
        text = path.read_text()
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if ast.get_docstring(node, clean=False) is not None:
                    docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        rows = text.splitlines()
        lines += len(rows)
        code += sum(
            1 for n, row in enumerate(rows, 1) if row.strip() and not row.lstrip().startswith("#") and n not in docs
        )
    return lines, code


def test_tracked_size_stays_under_its_ceiling():
    lines, code = tracked_size()
    assert lines <= MAX_LINES, f"{lines} lines, ceiling {MAX_LINES}"
    assert code <= MAX_CODE_LINES, f"{code} code lines, ceiling {MAX_CODE_LINES}"
