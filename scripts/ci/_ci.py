"""What the CI scripts share: the repo's ``src`` on the import path, and
the ``xar`` CLI run as a subprocess from the repo root."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = str(ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def env() -> dict:
    """The calling environment with the repo's ``src`` on PYTHONPATH."""
    environ = dict(os.environ)
    existing = environ.get("PYTHONPATH")
    environ["PYTHONPATH"] = SRC if not existing else SRC + os.pathsep + existing
    return environ


def xar_command(*args: str) -> list:
    return [sys.executable, "-m", "repro.cli", *map(str, args)]


def xar(*args: str, capture: bool = False) -> str:
    """Run ``xar ARGS``; raises on a non-zero exit.  With ``capture`` the
    output is returned instead of echoed."""
    done = subprocess.run(xar_command(*args), cwd=ROOT, env=env(),
                          capture_output=capture, text=True, check=True)
    return done.stdout if capture else ""


def workdir() -> Path:
    """The one argument every script takes: where inputs and outputs live."""
    if len(sys.argv) != 2:
        print(sys.modules["__main__"].__doc__.strip(), file=sys.stderr)
        raise SystemExit(2)
    return Path(sys.argv[1]).resolve()
