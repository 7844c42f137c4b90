import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    """README's library sketch imports from the package root and from
    rayform.modular, and runs as printed."""
    section = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names = {}
    exec(compile(code, "README.md (library sketch)", "exec"), names)
    assert len(names["group"].classes) == 4
    assert names["alpha"] is None
    # the frozen value of class 7,-6,2 (tests/test_modular.py, X1_RE and X1_IM)
    assert abs(complex(names["value"]) - complex(-42.8551829051010684, 3.9408890232094801)) < 1e-12


ROOT = README.parent
# an identifier, possibly dotted, possibly with a call's argument list
_NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")
_FILE = re.compile(r"\.(py|toml|json|md|txt)$")


def _code_names(text):
    """Backticked code names outside fenced blocks: CamelCase, dotted or
    underscored identifiers; plain words, file names and commands are not."""
    for span in re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S)):
        match = _NAME.fullmatch(span)
        name = match.group(1) if match else ""
        if _FILE.search(name):
            continue
        if "." in name or "_" in name or re.fullmatch(r"[A-Z]+[a-z0-9]+[A-Z]\w*", name):
            yield name


def _defined_names():
    """Every name the package and the scripts define: modules, classes,
    functions, assignments and class members, bare and dotted from their
    module and class, plus the identifiers the code reads as strings
    (environment variables)."""
    names = {"rayform"}
    for path in sorted((ROOT / "src" / "rayform").glob("*.py")) + sorted(ROOT.glob("scripts/*.py")):
        module = path.stem
        prefixes = ["", f"{module}."]
        if path.parent.name == "rayform":
            names.add(f"rayform.{module}")
            prefixes.append(f"rayform.{module}.")
        names.add(module)
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        for node in tree.body:
            for name in _bound(node):
                names.update(p + name for p in prefixes)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    for name in _bound(member):
                        names.update(p + f"{node.name}.{name}" for p in prefixes)
                        names.add(name)
    return names


def _bound(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
            if isinstance(target, ast.Name):
                yield target.id


def test_readme_code_names_are_defined():
    """A code name the README mentions must exist in src/rayform or
    scripts/, so a rename or removal cannot leave the prose behind."""
    missing = sorted(set(_code_names(README.read_text())) - _defined_names())
    assert not missing, missing
