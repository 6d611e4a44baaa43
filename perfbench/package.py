"""Puts this checkout's src/ first on sys.path and refuses any other gwentropy."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def load():
    """Import gwentropy from SRC; exit with status 1 when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import gwentropy
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import gwentropy from {SRC}: {exc}")
    found = Path(gwentropy.__file__).resolve().parent.parent
    if found != SRC:
        raise SystemExit(f"perfbench: gwentropy imported from {found}, not {SRC}")
    return gwentropy
