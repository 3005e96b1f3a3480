"""Self-test of the benchmark: smoke runs, a planted wrong output, the launcher.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from toricjets import cli, components, jets  # noqa: E402

SPEC = run.load_spec()


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_every_workload(name, trace):
    result = worker.measure(name, seed=7, seconds=0, trace=trace, tiny=True)
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], result["failures"]
    section = result["per_layer"] if trace else result["end_to_end"]
    wanted = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert set(wanted) - {"setup_s"} <= set(section)


def test_parallel_verify_gives_the_sequential_answer():
    one = worker.measure("verify", seed=7, seconds=0, trace=0, tiny=True)
    two = worker.measure("verify_jobs2", seed=7, seconds=0, trace=0, tiny=True)
    assert one["digest"] == two["digest"]


def test_traced_workers_report_their_member_checks():
    layers = worker.measure("verify_jobs2", seed=7, seconds=0, trace=1, tiny=True)["per_layer"]
    assert layers["oracle.member_checks"] == layers["oracle.points_covered"] > 0
    assert layers["oracle.check_ratio"] == 1.0


def test_planted_off_by_one_count_is_a_failed_op(monkeypatch):
    original = components.count_closed_form
    monkeypatch.setattr(components, "count_closed_form", lambda s, m: original(s, m) + 1)
    result = worker.measure("analyze", seed=7, seconds=0, trace=0, tiny=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert "closed form" in result["failures"][0]


def test_planted_wrong_count_fails_verify(monkeypatch):
    original = cli.count_closed_form
    monkeypatch.setattr(cli, "count_closed_form", lambda s, m: original(s, m) + 1)
    result = worker.measure("verify", seed=7, seconds=0, trace=0, tiny=True)
    assert result["failed"] == result["attempted"] > 0


def test_planted_wrong_profile_fails_witness(monkeypatch):
    original = jets.contact_profile

    def shifted(arc, surface):
        profile, over = original(arc, surface)
        return tuple(o if o is jets.ABOVE_M else o + 1 for o in profile), over

    monkeypatch.setattr(jets, "contact_profile", shifted)
    result = worker.measure("witness", seed=7, seconds=0, trace=0, tiny=True)
    assert result["failed"] == result["attempted"] > 0


def test_digest_is_checked_on_the_canonical_seed():
    wl = workloads.WORKLOADS["analyze"]
    ops = wl.draw(workloads.CANONICAL_SEED, tiny=True)
    seed = workloads.CANONICAL_SEED
    good = worker.run_rounds(wl, ops, seed, 0, 0, reference={})
    assert not good["correct"]  # no reference recorded for these inputs
    again = worker.run_rounds(wl, ops, seed, 0, 0, reference={"analyze": good["digest"]})
    assert again["correct"] and again["failed"] == 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert worker.tail(list(range(1000))) == (989, 99, 10)
    assert worker.tail(list(range(150))) == (134, 90, 15)
    assert worker.tail(list(range(12))) == (11, 100, 0)


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0]
    assert run.judge(base, [13.0, 13.1, 12.9], "lower", 0.1)[1] == "regressed"
    assert run.judge(base, [10.1, 9.9, 10.0], "lower", 0.1)[1] == "unchanged"
    assert run.judge(base, [5.0, 5.1, 4.9], "lower", 0.1)[1] == "improved"
    assert run.judge(base, [5.0, 20.0, 11.0], "lower", 0.1)[1] == "unresolved"


def test_launcher_refuses_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
