"""The CLI reports on the fixed config corpus match the committed digest.

`tools/cli_digest.txt` holds one `name exit sha256` line per config of
`tools/cli_digest.py`, under a header naming the NumPy and SciPy versions
that produced it.  Report bytes can move with those versions, so the check
runs only where they match; a change that moves a line on purpose
regenerates the file and explains the line.
"""
import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _digest_module():
    spec = importlib.util.spec_from_file_location("cli_digest", TOOLS / "cli_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_reports_match_the_committed_digest():
    digest = _digest_module()
    lines = (TOOLS / "cli_digest.txt").read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.startswith("#")]
    if header != digest.header():
        pytest.skip(f"digest recorded under {header}, installed {digest.header()}")
    expected = [line for line in lines if not line.startswith("#")]
    got = list(digest.digest_lines())
    assert [line.split()[0] for line in got] == [line.split()[0] for line in expected]
    moved = [f"{old}  ->  {new}" for old, new in zip(expected, got) if old != new]
    assert moved == []
