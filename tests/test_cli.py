"""CLI lifecycle: build-city -> build-region -> info -> simulate -> compare."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def city_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "city.json"
    code = main([
        "build-city", str(path), "--kind", "manhattan",
        "--avenues", "8", "--streets", "16",
    ])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def region_dir(tmp_path_factory, city_file):
    directory = tmp_path_factory.mktemp("cli") / "region"
    code = main(["build-region", str(directory), "--city", str(city_file)])
    assert code == 0
    return directory


class TestCLI:
    def test_build_city_kinds(self, tmp_path, capsys):
        for kind in ("radial", "random"):
            path = tmp_path / f"{kind}.json"
            assert main(["build-city", str(path), "--kind", kind]) == 0
            assert path.exists()
        out = capsys.readouterr().out
        assert "radial city" in out and "random city" in out

    def test_build_region_reports_guarantee(self, region_dir, capsys):
        # Fixture already ran; re-check info output instead.
        assert main(["info", str(region_dir)]) == 0
        out = capsys.readouterr().out
        assert "landmarks" in out and "clusters" in out and "eps" in out

    def test_info_prints_the_region_digest(self, region_dir, capsys):
        from repro.discretization import load_region, region_digest

        assert main(["info", str(region_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        digest = region_digest(load_region(region_dir))
        assert f"digest       : {digest}" in lines

    def test_simulate_xar(self, region_dir, capsys):
        assert main([
            "simulate", str(region_dir), "--requests", "60",
        ]) == 0
        out = capsys.readouterr().out
        assert "engine            : XAR" in out

    def test_simulate_rejects_an_unknown_fault_policy(self, region_dir):
        for faults, name in (("dropout=0.1,warp", "warp"),
                             ("router=0.05", "router")):
            with pytest.raises(SystemExit,
                               match=f"unknown fault policy '{name}'"):
                main([
                    "simulate", str(region_dir), "--requests", "10",
                    "--faults", faults,
                ])

    def test_simulate_tshare(self, region_dir, capsys):
        assert main([
            "simulate", str(region_dir), "--engine", "tshare", "--requests", "40",
        ]) == 0
        out = capsys.readouterr().out
        assert "T-Share" in out

    def test_simulate_optimized(self, region_dir, capsys):
        assert main([
            "simulate", str(region_dir), "--requests", "40", "--optimize",
        ]) == 0

    def test_compare(self, region_dir, capsys):
        assert main(["compare", str(region_dir), "--requests", "40"]) == 0
        out = capsys.readouterr().out
        assert "XAR" in out and "T-Share" in out

    def test_modes(self, region_dir, capsys):
        assert main(["modes", str(region_dir), "--requests", "40"]) == 0
        out = capsys.readouterr().out
        assert "Taxi" in out and "RS+PT" in out

    def test_loadtest_smoke(self, region_dir, capsys):
        assert main([
            "loadtest", str(region_dir), "--shards", "2", "--workers", "2",
            "--requests", "80", "--prepopulate", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "Sharded(XAR x2)" in out
        assert "invariant audit   : 0 violations" in out

    def test_loadtest_writes_json_report(self, region_dir, tmp_path):
        import json

        path = tmp_path / "load.json"
        assert main([
            "loadtest", str(region_dir), "--shards", "2", "--workers", "2",
            "--requests", "60", "--json", str(path),
        ]) == 0
        payload = json.loads(path.read_text())
        assert payload["requests"] == 60
        assert payload["service"]["n_shards"] == 2
        assert payload["audit"]["violations"] == 0
        assert {"p50_ms", "p95_ms", "p99_ms"} <= set(payload["latency"]["search"])

    def test_loadtest_slo_breach_exits_nonzero(self, region_dir, capsys):
        # A match-rate floor of 1.0 is unreachable on a fresh service.
        assert main([
            "loadtest", str(region_dir), "--shards", "2", "--workers", "2",
            "--requests", "40", "--min-match-rate", "1.0",
        ]) == 1
        err = capsys.readouterr().err
        assert "SLO breach" in err

    def test_loadtest_fanout_all_and_qps(self, region_dir):
        assert main([
            "loadtest", str(region_dir), "--shards", "2", "--workers", "2",
            "--requests", "30", "--fanout", "all", "--qps", "500",
            "--max-shed-rate", "1.0",
        ]) == 0

    def test_fuzz_clean_run_exits_zero(self, region_dir, tmp_path, capsys):
        metrics = tmp_path / "fuzz.prom"
        assert main([
            "fuzz", "--region", str(region_dir), "--seed", "1",
            "--ops", "60", "--engines", "xar,shard2",
            "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "no divergence" in out
        assert "xar_fuzz_ops_total" in metrics.read_text()

    def test_fuzz_divergence_shrinks_and_saves_a_repro(
        self, region_dir, tmp_path, capsys, monkeypatch
    ):
        import json

        from repro.verify import differential

        real_factory = differential.make_facade

        class _Lossy:
            def __init__(self, inner):
                self.inner = inner

            def search(self, request, k=None):
                return self.inner.search(request, k)[1:]

            def __getattr__(self, name):
                return getattr(self.inner, name)

        def bugged_factory(name, region, seed):
            facade = real_factory(name, region, seed)
            if name == "xar":
                facade.target = _Lossy(facade.target)
            return facade

        monkeypatch.setattr(differential, "make_facade", bugged_factory)
        corpus = tmp_path / "corpus"
        assert main([
            "fuzz", "--region", str(region_dir), "--seed", "1",
            "--ops", "60", "--engines", "xar",
            "--shrink", "--corpus-out", str(corpus),
        ]) == 1
        out = capsys.readouterr().out
        assert "DIVERGENCE" in out
        files = list(corpus.glob("*.json"))
        assert len(files) == 1
        entry = json.loads(files[0].read_text())
        assert entry["region"] == {"region_path": str(region_dir)}
        assert 0 < len(entry["ops"]) <= 10, "repro was not shrunk"

    @pytest.mark.parametrize("name", ["warp", "resilient"])
    def test_fuzz_unknown_facade_is_a_usage_error(
        self, name, region_dir, capsys, monkeypatch
    ):
        """An unknown ``--engines`` name exits 2 with one ``error:`` line
        naming the valid façades, before any region or façade is built."""
        import repro.cli as cli
        from repro.verify import FACADE_NAMES, differential

        def built(*_args, **_kwargs):
            raise AssertionError("built before the façade names were checked")

        monkeypatch.setattr(cli, "load_region", built)
        monkeypatch.setattr(cli, "build_region", built)
        monkeypatch.setattr(differential, "make_facade", built)
        for region_args in (["--region", str(region_dir)], []):
            assert main([
                "fuzz", *region_args, "--engines", f"xar,{name},shard2",
            ]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            (line,) = err.splitlines()
            assert line.startswith("error:") and repr(name) in line
            assert all(valid in line for valid in FACADE_NAMES)
            assert "Traceback" not in err and "ValueError" not in err

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
