"""The benchmark's tracer (``perfbench/run.py``) wraps library names by
attribute at run time, so a renamed or removed name would show only in a
slow traced run.  This reads the script and checks each wrapped name."""

import importlib
import re
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
WRAP = re.compile(r'tr\.wrap\(lib\.(\w+), "(\w+)"')


def test_every_wrapped_name_exists():
    hooks = WRAP.findall(RUN.read_text())
    assert hooks, "no tr.wrap(lib.<module>, \"<name>\" call found"
    missing = [
        f"cfaudit.{module}.{name}"
        for module, name in hooks
        if not hasattr(importlib.import_module(f"cfaudit.{module}"), name)
    ]
    assert missing == []
