"""The README's "Library use" block runs and prints what its comments promise."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Library use\s+```python\n(.*?)```", text, re.S)
    assert match, "README has no python block under 'Library use'"
    return match.group(1)


def test_library_block_prints_its_comments():
    code = library_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    # one output line per print call, in order; a trailing comment states it
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    promised = {
        i: line.split("#", 1)[1].strip() for i, line in enumerate(prints) if "#" in line
    }
    assert promised == {0: "(Fraction(-1, 1), Fraction(0, 1), Fraction(1, 1))", 2: "True exp(y)"}
    for i, expected in promised.items():
        assert printed[i] == expected
