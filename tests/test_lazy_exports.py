"""Package re-exports resolve on first use, a shard child imports only its
own stack, and the service layers load no HTTP client stack until one dials."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

import repro

PACKAGES = ("repro", "repro.service", "repro.service.proc")

#: What ``python -m repro.service.proc.worker`` must not load.
NOT_IN_THE_CHILD = (
    "repro.mmtp",
    "repro.baselines",
    "repro.service.loadgen",
    "repro.service.proc.gateway",
    "repro.service.proc.client",
    "repro.service.proc.supervisor",
)

#: What resolving the serving layers must not load: ``http.client`` and
#: what it pulls in (≈ 2 MB resident in a process that never dials).
NO_HTTP_CLIENT = ("http.client", "ssl", "email.parser")


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    assert package.__all__
    for export in package.__all__:
        getattr(package, export)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_an_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="NoSuchName"):
        getattr(package, "NoSuchName")
    with pytest.raises(ImportError):
        exec(f"from {name} import NoSuchName", {})


def test_a_re_export_is_the_submodules_object():
    from repro.core.engine import XAREngine
    from repro.service.proc.supervisor import ShardSupervisor

    assert repro.XAREngine is XAREngine
    assert importlib.import_module("repro.service").ShardSupervisor \
        is ShardSupervisor


def test_the_shard_child_imports_only_its_stack():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    probe = (
        "import sys, repro.service.proc.worker\n"
        f"print('\\n'.join(m for m in {NOT_IN_THE_CHILD!r} "
        "if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout.split()
    assert out == []


def test_the_service_layers_load_no_http_client():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    probe = (
        "import sys\n"
        "from repro.service import (\n"
        "    Gateway, HttpServiceClient, ProcRouter, ShardRouter)\n"
        f"print('\\n'.join(m for m in {NO_HTTP_CLIENT!r} "
        "if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout.split()
    assert out == []
