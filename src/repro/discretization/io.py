"""Discretized-region persistence.

Building a region costs one many-source shortest-path run over every
landmark (the distance matrix) — tens of milliseconds for the benchmark city,
seconds at a few thousand landmarks, and its L x L matrix grows with the
square of the landmark count.  Saving the built region to a directory and
reloading skips all of it.  Layout::

    <dir>/network.json        road network (repro.roadnet.io format)
    <dir>/region.json         config, landmarks, clusters, node→landmark map
    <dir>/landmark_matrix.npy landmark distance matrix (numpy binary)

Rationale for the split: the matrix dominates the bytes and numpy's own
format is the efficient, safe container for it; everything else is
diff-able JSON.

Format version 2 adds a **content digest**: a SHA-256 over the canonical
JSON payload plus the raw matrix bytes, stored in ``region.json`` and
re-verified on load.  The digest doubles as the discretization build's
identity for the durability layer — checkpoints and write-ahead logs are
stamped with it, so state persisted against one discretization can never be
silently replayed onto another (:func:`region_digest` is the shared
primitive).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from typing import Any, Dict, Union

import numpy as np

from ..clustering import DistanceMatrix
from ..config import XARConfig
from ..exceptions import DiscretizationError
from ..geo import GeoPoint, GridIndex
from ..landmarks import Landmark
from ..roadnet.io import load_network, save_network
from .model import Cluster, DiscretizedRegion

FORMAT_VERSION = 2

PathLike = Union[str, pathlib.Path]


def _region_payload(region: DiscretizedRegion) -> Dict[str, Any]:
    """The JSON-serializable body of a region (everything but the matrix)."""
    return {
        "config": dataclasses.asdict(region.config),
        "epsilon_realised": region.epsilon_realised,
        "landmarks": [
            {
                "id": lm.landmark_id,
                "lat": lm.position.lat,
                "lon": lm.position.lon,
                "node": lm.node,
                "category": lm.category,
                "importance": lm.importance,
            }
            for lm in region.landmarks
        ],
        "clusters": [
            {
                "id": cluster.cluster_id,
                "landmarks": list(cluster.landmark_ids),
                "center": cluster.center_landmark,
            }
            for cluster in region.clusters
        ],
        "node_landmark": [
            [node, landmark_id, distance]
            for node, (landmark_id, distance) in sorted(
                region._node_landmark.items()
            )
        ],
    }


def region_digest(region: DiscretizedRegion) -> str:
    """Content digest of a discretization build (SHA-256 hex).

    Computed from the canonical JSON payload (config, landmarks, clusters,
    node→landmark map, realised ε) plus the raw landmark-matrix bytes — the
    complete inputs the runtime's search/booking answers depend on.  Two
    regions with equal digests are interchangeable for replay; the loader,
    the checkpoint reader and the WAL header all compare against it.
    """
    hasher = hashlib.sha256()
    payload = json.dumps(_region_payload(region), sort_keys=True)
    hasher.update(payload.encode("utf-8"))
    # The buffer itself, not a ``tobytes`` copy of it (L^2 floats).
    hasher.update(np.ascontiguousarray(region.landmark_matrix.values))
    return hasher.hexdigest()


def save_region(region: DiscretizedRegion, directory: PathLike) -> None:
    """Persist a region (and its network) to ``directory``."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_network(region.network, directory / "network.json")
    np.save(directory / "landmark_matrix.npy", region.landmark_matrix.values)
    payload = {
        "format": "repro.region",
        "version": FORMAT_VERSION,
        "digest": region_digest(region),
        **_region_payload(region),
    }
    (directory / "region.json").write_text(json.dumps(payload))


def load_region(directory: PathLike) -> DiscretizedRegion:
    """Load a region persisted by :func:`save_region`.

    Raises :class:`~repro.exceptions.DiscretizationError` when the directory
    is not a serialized region, was written by an unsupported format
    version, or when the stored content digest does not match the bytes
    actually loaded (a truncated matrix, a hand-edited ``region.json``, or
    mixed-up files from two different builds).
    """
    directory = pathlib.Path(directory)
    payload = json.loads((directory / "region.json").read_text())
    if payload.get("format") != "repro.region":
        raise DiscretizationError("not a serialized region directory")
    if payload.get("version") != FORMAT_VERSION:
        raise DiscretizationError(
            f"unsupported region format version {payload.get('version')!r} "
            f"(this build reads version {FORMAT_VERSION}; re-run build-region)"
        )
    stored_digest = payload.get("digest")
    if not stored_digest:
        raise DiscretizationError("region.json is missing its content digest")
    network = load_network(directory / "network.json")
    matrix = DistanceMatrix(np.load(directory / "landmark_matrix.npy"))
    config = XARConfig(**payload["config"])
    config.validate()
    landmarks = [
        Landmark(
            landmark_id=int(item["id"]),
            position=GeoPoint(float(item["lat"]), float(item["lon"])),
            node=int(item["node"]),
            category=str(item["category"]),
            importance=float(item["importance"]),
        )
        for item in payload["landmarks"]
    ]
    clusters = [
        Cluster(
            cluster_id=int(item["id"]),
            landmark_ids=tuple(int(x) for x in item["landmarks"]),
            center_landmark=int(item["center"]),
        )
        for item in payload["clusters"]
    ]
    node_landmark: Dict[int, tuple] = {
        int(node): (int(landmark_id), float(distance))
        for node, landmark_id, distance in payload["node_landmark"]
    }
    region = DiscretizedRegion(
        config=config,
        network=network,
        grid=GridIndex(network.bounding_box(), config.grid_side_m),
        landmarks=landmarks,
        clusters=clusters,
        landmark_matrix=matrix,
        node_landmark=node_landmark,
        epsilon_realised=float(payload["epsilon_realised"]),
    )
    actual_digest = region_digest(region)
    if actual_digest != stored_digest:
        raise DiscretizationError(
            f"region content digest mismatch: region.json claims "
            f"{stored_digest[:12]}… but the loaded bytes hash to "
            f"{actual_digest[:12]}… (corrupted or mixed-up region files)"
        )
    return region
