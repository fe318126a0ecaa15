"""Gateway load shedding by deadline, and a clean SIGTERM drain.

Usage, from any directory, after ``proc_crash_smoke.py WORKDIR`` built the
region::

    python scripts/ci/gateway_shed.py WORKDIR

Boots the full stack (``xar serve``: gateway + 2 supervised process
shards, run dir ``WORKDIR/serverun``, log ``WORKDIR/serve.log``, port
8314), drives it over HTTP, then sends a request whose deadline cannot
cover the observed p95 RTT: the gateway must shed it *before* any shard
work and export the shed in ``xar_gateway_shed_total{reason="deadline"}``.
SIGTERM must then drain the whole tree within 30 s.  Exits non-zero on any
failed check.
"""

from __future__ import annotations

import signal
import subprocess
import time
import urllib.request

from _ci import ROOT, env, workdir, xar, xar_command

PORT = 8314
URL = f"http://127.0.0.1:{PORT}"


def shed_by_deadline(region_dir) -> None:
    from repro.discretization import load_region
    from repro.exceptions import ShardOverloadError
    from repro.service import HttpServiceClient

    client = HttpServiceClient(URL, load_region(str(region_dir)))
    for i in range(25):  # prime the RTT window past min_rtt_samples
        client.track_all(float(i + 1))
    try:
        client._request("POST", "/v1/track", {"now_s": 999.0},
                        deadline_ms=0.001)
        raise SystemExit("hopeless deadline was not shed")
    except ShardOverloadError as err:
        assert err.operation == "deadline", err.operation
    client.close()
    with urllib.request.urlopen(f"{URL}/metrics") as response:
        text = response.read().decode()
    line = next(
        line for line in text.splitlines()
        if line.startswith('xar_gateway_shed_total{reason="deadline"}')
    )
    assert float(line.split()[-1]) > 0, line
    print(f"gateway shed by deadline: {line}")


def main() -> None:
    work = workdir()
    region_dir, log_path = work / "region", work / "serve.log"
    with open(log_path, "wb") as log:
        serve = subprocess.Popen(
            xar_command("serve", region_dir, "--shards", "2",
                        "--port", str(PORT), "--run-dir", work / "serverun"),
            cwd=ROOT, env=env(), stdout=log, stderr=subprocess.STDOUT)
    try:
        for _ in range(60):
            if "gateway listening" in log_path.read_text(errors="replace"):
                break
            time.sleep(0.5)
        listening = [line for line in log_path.read_text().splitlines()
                     if "gateway listening" in line]
        assert listening, "serve never reported 'gateway listening'"
        print(listening[0])
        xar("loadtest", region_dir, "--remote", URL, "--workers", "4",
            "--requests", "100", "--prepopulate", "40", "--looks", "1",
            "--seed", "13", "--json", work / "remote_run.json",
            "--max-shed-rate", "0.20", "--min-match-rate", "0.01")
        shed_by_deadline(region_dir)
        serve.send_signal(signal.SIGTERM)
        try:
            serve.wait(timeout=30)
        except subprocess.TimeoutExpired:
            raise SystemExit("serve did not drain on SIGTERM") from None
    finally:
        if serve.poll() is None:
            serve.kill()
            serve.wait()
    print("\n".join(log_path.read_text().splitlines()[-5:]))


if __name__ == "__main__":
    main()
