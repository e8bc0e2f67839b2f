"""The README's Python blocks run, and print what their comments say.

Each ``print(...)`` line of a block prints one line.  A comment after it,
``# <value> ...``, documents that line: ``inf``, or a number the printed
float must match to a relative 1e-12.
"""

import contextlib
import io
import math
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
PRINT = re.compile(r"^print\(.*\)(?:\s+#\s*(\S+))?", re.M)


def test_readme_documents_printed_values():
    assert any(m.group(1) for block in BLOCKS for m in PRINT.finditer(block))


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_prints_what_it_documents(index):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(BLOCKS[index], f"README block {index}", "exec"), {})
    printed = out.getvalue().splitlines()
    documented = [m.group(1) for m in PRINT.finditer(BLOCKS[index])]
    assert len(printed) == len(documented)
    for want, got in zip(documented, printed):
        if want is None:
            continue
        want = want.rstrip(":")
        if want == "inf":
            assert got == "inf"
        else:
            assert math.isfinite(float(got))
            assert float(got) == pytest.approx(float(want), rel=1e-12)
