"""The README's library example runs, and the output it quotes is current."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_example_output_is_quoted():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", blocks[0]], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    lines = out.stdout.splitlines()
    assert lines
    for line in lines:
        assert line in readme, f"printed line not quoted in README.md: {line!r}"
