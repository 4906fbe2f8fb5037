"""Tests for the REPRO_FAULT crashpoint registry and kill-and-resume smoke."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.execution import FAULT_ENV_VAR, FaultSpec, faults, parse_fault_spec
from repro.execution.shutdown import EXIT_FAULT_INJECTED

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def _isolated_counters(monkeypatch):
    monkeypatch.delenv(FAULT_ENV_VAR, raising=False)
    faults.reset()
    yield
    faults.reset()


class TestParseFaultSpec:
    def test_unset_means_unarmed(self):
        assert parse_fault_spec(None) is None
        assert parse_fault_spec("") is None
        assert parse_fault_spec("   ") is None

    def test_site_only_defaults_to_first_visit(self):
        assert parse_fault_spec("run:after_round") == FaultSpec(
            site="run:after_round", hit=1
        )

    def test_trailing_integer_selects_the_visit(self):
        assert parse_fault_spec("ensemble:after_replica:7") == FaultSpec(
            site="ensemble:after_replica", hit=7
        )

    def test_site_names_may_contain_colons(self):
        spec = parse_fault_spec("checkpoint:after_tmp_write")
        assert spec.site == "checkpoint:after_tmp_write"
        assert spec.hit == 1

    def test_empty_site_rejected(self):
        with pytest.raises(ValueError, match="empty site"):
            parse_fault_spec(":3")

    def test_zero_hit_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            parse_fault_spec("site:0")


class TestVisitCounting:
    def test_unarmed_crashpoints_are_noops(self):
        assert not faults.armed()
        assert not faults.should_trip("anything")
        faults.crashpoint("anything")  # must not raise or exit

    def test_trips_on_the_selected_visit_only(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV_VAR, "site:3")
        assert faults.armed()
        assert not faults.should_trip("site")
        assert not faults.should_trip("site")
        assert faults.should_trip("site")
        assert not faults.should_trip("site")  # only the exact visit is fatal

    def test_other_sites_do_not_count(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV_VAR, "site:2")
        assert not faults.should_trip("other")
        assert not faults.should_trip("site")
        assert faults.should_trip("site")

    def test_spec_change_resets_counts(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV_VAR, "site:2")
        assert not faults.should_trip("site")
        monkeypatch.setenv(FAULT_ENV_VAR, "site:1")
        assert faults.should_trip("site")  # fresh count under the new spec


# The three crashpoints the ISSUE's acceptance criteria name: one at a
# replica-completion boundary, one at a round boundary, and one *inside*
# the checkpoint write's tmp-then-rename window.
SMOKE_SITES = [
    "ensemble:after_replica:2",
    "ensemble:after_round:25",
    "checkpoint:after_tmp_write:3",
]


@pytest.mark.parametrize("site", SMOKE_SITES)
def test_kill_and_resume_is_bit_identical(site, tmp_path):
    """Drive scripts/fault_smoke.py: kill, salvage, resume, compare."""
    env = dict(os.environ)
    env.pop(FAULT_ENV_VAR, None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [
            sys.executable, str(REPO_ROOT / "scripts" / "fault_smoke.py"),
            site, "--workdir", str(tmp_path),
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, (
        f"fault_smoke failed for {site}:\n{completed.stdout}\n{completed.stderr}"
    )
    assert "PASS" in completed.stdout


def test_run_after_round_kills_a_cli_run():
    """``run:after_round`` fires inside ``simulate``'s round loop."""
    env = dict(os.environ)
    env[FAULT_ENV_VAR] = "run:after_round:5"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [
            sys.executable, "-m", "repro", "run", "voter",
            "--n", "100", "--rounds", "100000", "--seed", "3",
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == EXIT_FAULT_INJECTED, completed.stderr
    assert "crashpoint 'run:after_round'" in completed.stderr
    assert completed.stdout == ""
