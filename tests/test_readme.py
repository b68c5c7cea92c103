"""The README's library example runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for i, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python block {i}", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
