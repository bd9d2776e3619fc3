"""The documented public API: every exported name resolves, and README's
library sketch runs as written."""

import contextlib
import io
import re
from pathlib import Path

import ruinwalk

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in ruinwalk.__all__ if not hasattr(ruinwalk, name)]
    assert missing == []


def test_readme_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    sketch = re.search(r"^## Library sketch\n+```python\n(.*?)^```", text, re.S | re.M)
    assert sketch, "README has no Library sketch code block"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(sketch.group(1), str(README), "exec"), {})
    assert out.getvalue()
