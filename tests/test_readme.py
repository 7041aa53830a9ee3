"""The README's fenced ``python`` examples run as they are written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qracsim.config import RunConfig, config_from_mapping, config_to_mapping, parse_config_text

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(code):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_config_block_names_every_key():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Configuration files\n.*?^```\n(.*?)^```", readme, re.M | re.S).group(1)
    mapping = parse_config_text(block)
    assert set(mapping) == set(config_to_mapping(RunConfig()))   # every key but run.out
    config_from_mapping(mapping)
