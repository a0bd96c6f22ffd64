"""Watchtower chaos: corrupted logs must surface as CRITICAL verdicts.

A seeded :class:`LogCorruptor` run must drive at least one monitor to
CRITICAL, and that verdict must land in all three export surfaces —
the run manifest, the Prometheus dump, and the rendered dashboard.
"""

import json
import re

import pytest

from repro.chaos.corruption import LogCorruptor
from tests.conftest import make_uniform_dataset


class TestCorruptedLogGoesCritical:
    """ISSUE 9 acceptance: seeded corruption must surface as a
    CRITICAL verdict in the manifest, the Prometheus dump, and the
    dashboard."""

    @pytest.fixture()
    def corrupted_log(self, tmp_path):
        clean = tmp_path / "clean.jsonl"
        make_uniform_dataset(800, seed=11).save_jsonl(str(clean))
        corrupted = tmp_path / "corrupted.jsonl"
        counts = LogCorruptor(
            rate=0.3,
            kinds=("zero_propensity", "garble_propensity"),
            seed=5,
        ).corrupt_file(str(clean), str(corrupted))
        assert sum(counts.values()) > 50  # the seed really corrupted
        return str(corrupted)

    @pytest.fixture()
    def verdict_artifacts(self, corrupted_log, tmp_path, capsys):
        from repro.__main__ import main

        manifest_path = tmp_path / "run_manifest.json"
        prom_path = tmp_path / "metrics.prom"
        html_path = tmp_path / "dashboard.html"
        code = main(
            [
                "evaluate", corrupted_log,
                "--mode", "quarantine",
                "--policy", "constant:1",
                "--estimator", "ips",
                "--monitors",
                "--manifest", str(manifest_path),
                "--metrics-out", str(prom_path),
            ]
        )
        assert code == 0
        assert main(
            ["dashboard", str(manifest_path), "-o", str(html_path)]
        ) == 0
        capsys.readouterr()
        return manifest_path, prom_path, html_path

    def test_critical_in_manifest(self, verdict_artifacts):
        manifest_path, _, _ = verdict_artifacts
        health = json.loads(manifest_path.read_text())["health"]
        assert health["overall"] == "CRITICAL"
        critical = [
            name
            for name, entry in health["monitors"].items()
            if entry["level"] == "CRITICAL"
        ]
        assert "quarantine_rate" in critical  # ~30% of rows rejected
        assert any(
            event["level"] == "CRITICAL" for event in health["events"]
        )

    def test_critical_in_prometheus_dump(self, verdict_artifacts):
        _, prom_path, _ = verdict_artifacts
        text = prom_path.read_text()
        critical_gauges = re.findall(
            r'repro_health_level\{monitor="([^"]+)"\} 2(?:\.0)?$',
            text,
            flags=re.MULTILINE,
        )
        assert "quarantine_rate" in critical_gauges
        assert "repro_health_events_total" in text

    def test_critical_in_dashboard(self, verdict_artifacts):
        _, _, html_path = verdict_artifacts
        html = html_path.read_text()
        assert "CRITICAL" in html
        assert "quarantine_rate" in html
        assert "<script" not in html.lower()  # verdict page stays static

    def test_same_log_clean_run_is_healthy(self, tmp_path, capsys):
        from repro.__main__ import main

        clean = tmp_path / "clean.jsonl"
        make_uniform_dataset(800, seed=11).save_jsonl(str(clean))
        manifest_path = tmp_path / "clean_manifest.json"
        code = main(
            [
                "evaluate", str(clean),
                "--mode", "quarantine",
                "--policy", "constant:1",
                "--estimator", "ips",
                "--monitors",
                "--manifest", str(manifest_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        health = json.loads(manifest_path.read_text())["health"]
        assert health["overall"] == "OK"
        assert health["events"] == []
