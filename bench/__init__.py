"""bench: one harness, four pinned workloads, one latency ladder.

Run from the repository root::

    python -m bench run                 # every end-to-end metric, all workloads
    python -m bench trace               # per-layer metrics, span files, ladder
    python -m bench compare BASE NEW    # regression verdicts against the bounds
    python -m bench measure --workload W --seed N --seconds S --trace 0|1

See ``bench/README.md`` for the glossary, the workloads and how to read the
numbers.  The harness drives the program through its public adapter surface
(``create / search / book / track_all``) only; it imports nothing from
``repro.service.loadgen``.
"""

import importlib.util
import pathlib
import sys

#: Repository root (the directory holding ``bench/`` and ``src/``).
ROOT = pathlib.Path(__file__).resolve().parent.parent

# The driver contract runs ``python3 -m bench`` without PYTHONPATH=src, so the
# package puts the program's source tree on the path itself.  An explicit
# PYTHONPATH (or an installed ``repro``) wins.
if importlib.util.find_spec("repro") is None:
    sys.path.insert(0, str(ROOT / "src"))
    if importlib.util.find_spec("repro") is None:
        raise SystemExit(
            f"bench: the program under test is not here ({ROOT / 'src'} has "
            "no `repro` package); run from a checkout of the repository")
