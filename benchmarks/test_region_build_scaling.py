"""Region build scaling — per-stage time and peak RSS at L ≈ 200 / 800 / 2000.

The paper's pre-processing unit stores "distances between landmarks"; its
Fig. 3b–3d sweep C = 500–5000 clusters over ~16k landmarks.  This measures
the offline build on three Manhattan lattices (20 x 60, 40 x 120, 60 x 200:
L = 203 / 805 / 2019 landmarks) stage by stage — city, POIs, landmarks,
grid association, landmark matrix, greedy clustering, cluster matrix — each
size in a fresh interpreter, so the peak resident set (``VmHWM``) read after
each stage is that build's alone.  The child builds twice and the digests
must repeat (and equal the pins of ``tests/discretization/test_region_pin.py``
where one exists).

Run: ``PYTHONPATH=src python -m pytest -q -s benchmarks/test_region_build_scaling.py``
(one size by hand: ``PYTHONPATH=src python -m benchmarks.test_region_build_scaling
60 200``, which prints the child's JSON line).  Results land in
``benchmarks/results/BENCH_region_build.{json,txt}``.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

SIZES = ((20, 60), (40, 120), (60, 200))
STAGES = (
    "city", "pois", "landmarks", "association", "landmark_matrix",
    "clustering", "cluster_matrix", "total",
)
ROOT = pathlib.Path(__file__).resolve().parent.parent


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def staged_build(avenues: int, streets: int) -> dict:
    """One build of the lattice with every stage timed where
    ``build_region`` calls it (the wrappers patch the names it looks up),
    then a second, unwrapped build for the digest check."""
    import repro.discretization.builder as builder
    from repro.config import XARConfig
    from repro.discretization import build_region, region_digest
    from repro.discretization.model import DiscretizedRegion
    from repro.roadnet import manhattan_city

    seconds = {}
    rss_mb = {"start": _peak_rss_mb()}

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[stage] = time.perf_counter() - started
                rss_mb[stage] = _peak_rss_mb()
        return wrapper

    patches = [
        (builder, "synthesize_pois", "pois"),
        (builder, "extract_landmarks", "landmarks"),
        (builder, "multi_source_nearest_reverse", "association"),
        (builder, "landmark_distance_matrix", "landmark_matrix"),
        (builder, "greedy_search", "clustering"),
        (DiscretizedRegion, "_build_cluster_matrix", "cluster_matrix"),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, stage in patches:
        setattr(owner, name, timed(stage, getattr(owner, name)))
    try:
        region = timed("total", lambda: build_region(
            timed("city", manhattan_city)(n_avenues=avenues, n_streets=streets),
            XARConfig.validated(),
        ))()
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
    digest = region_digest(region)
    again = region_digest(build_region(
        manhattan_city(n_avenues=avenues, n_streets=streets), XARConfig.validated()
    ))
    return {
        "size": f"{avenues}x{streets}",
        "nodes": region.network.node_count,
        "landmarks": region.n_landmarks,
        "clusters": region.n_clusters,
        "seconds": seconds,
        "peak_rss_mb": rss_mb,
        "digest": digest,
        "digest_again": again,
    }


def _in_child(avenues: int, streets: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-m", "benchmarks.test_region_build_scaling",
         str(avenues), str(streets)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.benchmark
def test_region_build_scaling(report):
    from tests.discretization.test_region_pin import LATTICE_DIGESTS

    from .conftest import RESULTS_DIR

    runs = [_in_child(*size) for size in SIZES]
    for (avenues, streets), run in zip(SIZES, runs):
        assert run["digest"] == run["digest_again"], run["size"]
        pinned = LATTICE_DIGESTS.get((avenues, streets))
        assert pinned in (None, run["digest"]), run["size"]
    assert [run["landmarks"] for run in runs] == sorted(r["landmarks"] for r in runs)

    header = f"{'stage':16s}" + "".join(f"{run['size']:>20s}" for run in runs)
    lines = [
        "region build, per stage: seconds / peak RSS after the stage (MB)",
        f"{'':16s}" + "".join(
            f"{'L=%d C=%d' % (run['landmarks'], run['clusters']):>20s}" for run in runs
        ),
        header,
    ]
    for stage in STAGES:
        cells = "".join(
            f"{run['seconds'][stage]:>11.3f} s{run['peak_rss_mb'][stage]:>6.0f} MB"
            for run in runs
        )
        lines.append(f"{stage:16s}{cells}")
    lines.append(f"{'(start RSS)':16s}" + "".join(
        f"{run['peak_rss_mb']['start']:>17.0f} MB" for run in runs
    ))
    report("BENCH_region_build", lines)
    (RESULTS_DIR / "BENCH_region_build.json").write_text(
        json.dumps({"experiment": "region_build_scaling", "runs": runs}, indent=2) + "\n"
    )


if __name__ == "__main__":
    print(json.dumps(staged_build(int(sys.argv[1]), int(sys.argv[2]))))
