import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    """README's library sketch imports only from the package root and runs
    as printed."""
    section = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names = {}
    exec(compile(code, "README.md (library sketch)", "exec"), names)
    assert len(names["group"].classes) == 4
    assert names["alpha"] is None
    # the frozen value of class 7,-6,2 (tests/test_modular.py, X1_RE and X1_IM)
    assert abs(complex(names["value"]) - complex(-42.8551829051010684, 3.9408890232094801)) < 1e-12
