"""Loading pglb from the checkout's ``src`` and describing the machine a run used."""

from __future__ import annotations

import importlib
import os
import platform
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "isa", "extraction", "interaction", "services", "oracle", "sat3", "synthesis")


class MissingProgram(RuntimeError):
    """The checkout has no ``src/pglb`` to benchmark."""


def load_pglb() -> SimpleNamespace:
    """Import pglb afresh from ``src`` (dropping any earlier import) and return its modules."""
    if not (SRC / "pglb" / "__init__.py").is_file():
        raise MissingProgram(f"no pglb package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "pglb" or m.startswith("pglb.")]:
        del sys.modules[name]
    package = importlib.import_module("pglb")
    if Path(package.__file__).resolve().parent != SRC / "pglb":
        raise MissingProgram(f"pglb was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"pglb.{m}") for m in MODULES})


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str:
    """HEAD of the checkout's git metadata, read without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": _commit(),
    }
