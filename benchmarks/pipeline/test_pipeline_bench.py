"""Tests of the pipeline benchmark itself.

Run from the repository root (about two minutes; not part of tier 1)::

    python -m pytest benchmarks/pipeline -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import cells  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _cell(name):
    return next(c for c in cells.CELLS if c.name == name)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``--smoke`` runs of every cell: untraced (0) and traced (1)."""
    reports = {}
    for trace in (0, 1):
        out = tmp_path_factory.mktemp("smoke") / "set.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "0",
             "--trace", str(trace), "--out", str(out)],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        reports[trace] = json.loads(out.read_text())["cells"]
    return reports


def test_every_declared_metric_is_emitted_with_its_unit(smoke):
    assert {w["name"] for w in SPEC["workloads"]} <= {c.name for c in cells.CELLS}
    assert run.SECONDS == SPEC["run_seconds"]
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        for name, report in smoke[trace].items():
            assert report["correct"], (name, report["problems"])
            assert report["failed"] == 0 and report["attempted"] >= 1
            emitted = {k: v["unit"] for k, v in report["metrics"].items()}
            assert emitted == _declared(section), name


def test_traced_breakdown_reconciles_with_wall_time(smoke):
    for name, report in smoke[1].items():
        values = {k: v["value"] for k, v in report["metrics"].items()}
        assert all(values[k] >= 0 for k in run.SELF_METRICS + ("unattributed_s",)), name
        covered = sum(values[k] for k in run.SELF_METRICS) + values["unattributed_s"]
        assert covered == pytest.approx(values["traced_wall_s"], rel=0.01), name


def test_last_line_is_the_result_object():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "detect-hedc",
         "--seed", "0", "--seconds", "0.2", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1


def test_fails_without_a_source_tree(tmp_path):
    bench = tmp_path / "benchmarks" / "pipeline"
    bench.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py", "--workload", "detect-hedc",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


class _WrongStates(cells.Cell):
    def oracle(self, inputs):
        answer = super().oracle(inputs)
        answer["states"] += 1
        return answer


class _DroppedRace(cells.Cell):
    def oracle(self, inputs):
        answer = super().oracle(inputs)
        answer["racy_vars"] = answer["racy_vars"][1:]
        return answer


class _RaisesOnce(cells.Cell):
    calls = 0

    def run(self, inputs, workdir):
        type(self).calls += 1
        if type(self).calls == 2:  # the first timed repetition
            raise RuntimeError("injected")
        return super().run(inputs, workdir)


@pytest.mark.parametrize(
    "cell",
    [_WrongStates("enum-sparse", "serial"), _DroppedRace("detect-hedc")],
    ids=["count-off-by-one", "race-dropped"],
)
def test_tampered_oracle_fails_every_repetition(cell):
    m = run.measure(cell, 0, cells.SMOKE, 0.2, smoke=True)
    assert m.attempted >= 1 and m.failed == m.attempted
    assert not m.correct


def test_injected_exception_counts_as_failed():
    m = run.measure(_RaisesOnce("enum-dense", "serial"), 0, cells.SMOKE, 0.5, smoke=True)
    assert m.failed == 1 and m.attempted > 1
    assert not m.correct
    assert any("injected" in p for p in m.problems())


def test_missing_symbol_is_reported_absent():
    renamed = tuple(
        dataclasses.replace(t, qualname="HBFrontEnd.process_op")
        if t.qualname == "HBFrontEnd.process"
        else t
        for t in layers.TARGETS
    )
    m = run.measure(
        _cell("detect-tsp"), 0, cells.SMOKE, 0.2, traced=True, smoke=True,
        targets=renamed,
    )
    assert m.correct
    assert "detector.hb" in m.absent
    assert not any(name.startswith("detector.hb.") for name in m.metrics)
    assert "core.online.inserts" in m.metrics


@pytest.mark.parametrize("name", ["detect-tsp", "enum-dense-threads"])
def test_tracing_restores_every_wrapped_name(name):
    import repro.core.bounded
    import repro.core.paramount

    m = run.measure(_cell(name), 0, cells.SMOKE, 0.2, traced=True, smoke=True)
    assert m.correct and not m.absent
    assert repro.core.paramount.bounded_enumeration is repro.core.bounded.bounded_enumeration
    for target in layers.TARGETS:
        original = layers._resolve(target)
        assert not hasattr(original, "__wrapped__"), target
        for owner, key in layers._references(original, include_wrapped=True):
            assert layers._lookup(owner, key) is original, (target, owner, key)


@pytest.mark.parametrize("workload", ["detect-hedc", "detect-tsp", "enum-dense", "enum-sparse"])
def test_inputs_are_a_function_of_the_seed(workload):
    cell = cells.Cell(workload, None if workload.startswith("detect-") else "serial")
    first, again, other = (
        cell.describe(cell.setup(seed, cells.SMOKE)) for seed in (0, 0, 1)
    )
    assert first == again
    assert first["poset_digest"] != other["poset_digest"]


def test_chain_posets_lattice_is_the_ordinal_sum():
    import repro.enumeration.base as enumeration
    import repro.poset.random_posets as random_posets

    parts = [
        random_posets.random_computation(random_posets.RandomComputationSpec(3, 9, 0.5, seed=s))
        for s in range(3)
    ]
    count = [enumeration.make_enumerator("lexical", p).enumerate().states for p in parts]
    joined = cells.chain_posets(parts)
    assert enumeration.make_enumerator("lexical", joined).enumerate().states == (
        sum(count) - (len(parts) - 1)
    )


def test_host_speed_factor_cancels_a_uniform_slowdown(monkeypatch):
    # Passes around three calls; the host drops to half speed during the
    # second, so from then on every pass and call takes twice as long.
    passes = iter([0.019, 0.019, 0.038, 0.038])
    monkeypatch.setattr(run, "calibration_pass", lambda: next(passes))
    speed = run.HostSpeed()
    normal = 0.5 * speed.factor()  # a 0.5 s call at full speed
    speed.factor()
    slow = 1.0 * speed.factor()  # the same call at half speed
    assert normal == pytest.approx(0.5 * run.REFERENCE_CALIBRATION_S / 0.019)
    assert slow == pytest.approx(normal)


def test_tail_needs_ten_samples_beyond_it():
    assert layers.tail(list(range(19))) == (None, 18)
    assert layers.tail(list(range(1, 21))) == (50.0, 10)
    assert layers.tail(list(range(1, 1001)))[0] == 99.0


@pytest.mark.parametrize(
    "parent, change, better, floor, expected",
    [
        ([100 + k for k in range(10)], [120 + k for k in range(10)], "higher", 0, "improved"),
        ([100 + k for k in range(10)], [101 + k for k in range(10)], "higher", 0, "within bound"),
        ([100 + k for k in range(10)], [70 + k for k in range(10)], "higher", 0, "worse"),
        ([60, 140] * 5, [61, 141] * 5, "higher", 0, "unresolved"),
        # a 1 ms set-up regression on 3 ms: past the 10% bound, under the floor
        ([0.003] * 10, [0.004] * 10, "lower", 0, "worse"),
        ([0.003] * 10, [0.004] * 10, "lower", 0.002, "within bound"),
    ],
)
def test_compare_verdicts(parent, change, better, floor, expected):
    result = compare.verdict(parent, change, better, 0.1, floor=floor)
    assert result["verdict"] == expected


def test_compare_runs_every_pair_at_one_seed_alternating_order():
    calls = []

    def measure(side, cell, seed):
        calls.append((side, seed))
        return {"inputs": {"poset_digest": f"{cell}/{seed}"}}

    runs = compare.run_pairs("detect-tsp", 10, 7, measure)
    assert len(runs["parent"]) == len(runs["change"]) == 10
    assert {seed for _, seed in calls} == {7}
    firsts = [side for side, _ in calls[::2]]
    assert firsts == ["parent", "change"] * 5
