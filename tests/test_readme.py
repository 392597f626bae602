"""The README's library quickstart runs as written against the package."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs():
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, str(README), "exec"), namespace)
    assert abs(namespace["fit"].slope - 2.0) <= 0.2
