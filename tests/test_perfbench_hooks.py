"""The benchmark (``perfbench/run.py``) reads library names by attribute
at run time, so a renamed or removed name would show only in a run, and
only in the rounds that read it: the tracer wraps names in traced runs
alone, and the output checks run on every few rounds.  This reads the
script and checks each name it wraps or reads."""

import importlib
import re
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
WRAP = re.compile(r'tr\.wrap\(lib\.(\w+), "(\w+)"')
CHAIN = re.compile(r"\blib\.(\w+)((?:\.\w+)*)")  # lib.<module>[.<name>[.<member>]]


def missing(chains) -> list[str]:
    """The ``(module, names)`` chains that do not resolve in ``cfaudit``."""
    out = []
    for module, names in chains:
        try:
            obj = importlib.import_module(f"cfaudit.{module}")
            for name in names:
                obj = getattr(obj, name)
        except (ImportError, AttributeError):
            out.append(".".join(["cfaudit", module, *names]))
    return out


def test_every_wrapped_name_exists():
    hooks = WRAP.findall(RUN.read_text())
    assert hooks, "no tr.wrap(lib.<module>, \"<name>\" call found"
    assert missing((module, [name]) for module, name in hooks) == []


def test_every_read_name_exists():
    # e.g. lib.model.LogFormat.MEMORY_IMAGE, read only on checked rounds
    chains = sorted(set(CHAIN.findall(RUN.read_text())))
    assert chains, "no lib.<module> chain found"
    assert missing((module, rest.split(".")[1:]) for module, rest in chains) == []
