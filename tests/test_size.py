import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the tracked size of src/ plus scripts/: a change that grows either number
# raises its ceiling here, in its own diff, and says why in CHANGES.md
MAX_LINES = 3065
MAX_CODE_LINES = 1566


def tracked_size():
    """{path: (lines, code lines)} over src/rayform/*.py plus scripts/*.py,
    as `wc -l` counts them and without blank lines, comment lines and the
    docstrings of modules, classes and functions (their whole span, found
    by `ast`)."""
    files = sorted((ROOT / "src" / "rayform").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    sizes = {}
    for path in files:
        text = path.read_text()
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if ast.get_docstring(node, clean=False) is not None:
                    docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        rows = text.splitlines()
        code = sum(
            1 for n, row in enumerate(rows, 1) if row.strip() and not row.lstrip().startswith("#") and n not in docs
        )
        sizes[str(path.relative_to(ROOT))] = len(rows), code
    return sizes


def test_tracked_size_stays_under_its_ceiling():
    """Both totals at most their ceilings; a failure names every file's
    (lines, code lines), so the file that grew shows."""
    sizes = tracked_size()
    lines, code = (sum(counts) for counts in zip(*sizes.values()))
    per_file = "; (lines, code lines) per file:" + "".join(f"\n  {path}: {n}" for path, n in sizes.items())
    assert lines <= MAX_LINES, f"{lines} lines, ceiling {MAX_LINES}{per_file}"
    assert code <= MAX_CODE_LINES, f"{code} code lines, ceiling {MAX_CODE_LINES}{per_file}"
