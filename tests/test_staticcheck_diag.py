"""The unified diagnostics engine: stable rule IDs on every finding,
SARIF / JSONL round-trips, ``# repro: noqa`` suppressions, the checked-in
precision baseline, the CLI exporter flags, and the interprocedural
precision wins (strictly fewer warnings on the helper-heavy workloads).
"""

import functools
import importlib.util
import json
import sys
import textwrap
from pathlib import Path

import pytest

from repro.runtime.ops import Acquire, Read, Release, Write
from repro.runtime.program import Program
from repro.staticcheck import analyze_program
from repro.staticcheck.diag import (
    RULES,
    SEVERITIES,
    Diagnostic,
    SourceSpan,
    baseline_from_diagnostics,
    diff_baseline,
    from_sarif,
    is_suppressed,
    load_baseline,
    read_jsonl,
    rule_for_category,
    suppressed_rules_at,
    to_sarif,
    validate_sarif,
    write_jsonl,
)
from repro.staticcheck.extract import extract_summary
from repro.staticcheck.prune import StaticPruner
from repro.tools.cli import main as cli_main
from repro.workloads.registry import ALL_DETECTION_WORKLOADS

BASELINE_PATH = Path(__file__).parent / "data" / "staticcheck_baseline.json"


@functools.lru_cache(maxsize=None)
def _report(name, interprocedural=True):
    program = ALL_DETECTION_WORKLOADS[name].build()
    return analyze_program(program, interprocedural=interprocedural)


# --------------------------------------------------------------------- #
# the rule registry


def test_registry_is_well_formed():
    assert RULES, "rule registry must not be empty"
    for rule_id, rule in RULES.items():
        assert rule.id == rule_id
        assert rule.severity in SEVERITIES
        assert rule.name and rule.short_description


def test_category_bridge_maps_every_report_category():
    from repro.staticcheck.report import CATEGORIES

    for category in CATEGORIES:
        assert rule_for_category(category) in RULES
    # unknown categories degrade to the approximation note, never crash
    assert rule_for_category("no-such-category") == "EX001"


@pytest.mark.parametrize("name", list(ALL_DETECTION_WORKLOADS))
def test_every_workload_diagnostic_carries_a_registered_rule(name):
    for diagnostic in _report(name).diagnostics():
        assert diagnostic.rule in RULES, diagnostic
        assert diagnostic.severity in SEVERITIES
        assert diagnostic.fingerprint().startswith(f"{name}/{diagnostic.rule}/")
        assert diagnostic.message


# --------------------------------------------------------------------- #
# fingerprints


def test_fingerprint_ignores_spans_and_message_for_var_rules():
    a = Diagnostic(
        rule="RR001",
        message="race at sor.py:10 vs sor.py:20",
        program="p",
        var="M.x",
        threads=("t1", "t2"),
        spans=(SourceSpan(file="a.py", line=10),),
    )
    b = Diagnostic(
        rule="RR001",
        message="completely reworded",
        program="p",
        var="M.x",
        threads=("t2", "t1"),  # order-insensitive
        spans=(SourceSpan(file="a.py", line=99),),
    )
    assert a.fingerprint() == b.fingerprint()


def test_fingerprint_strips_line_refs_for_message_rules():
    a = Diagnostic(rule="EX001", message="helper depth limit at worker:12", program="p")
    b = Diagnostic(rule="EX001", message="helper depth limit at worker:345", program="p")
    c = Diagnostic(rule="EX001", message="a different note", program="p")
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


# --------------------------------------------------------------------- #
# SARIF and JSONL round-trips


def _all_diagnostics():
    return [d for name in ALL_DETECTION_WORKLOADS for d in _report(name).diagnostics()]


def test_sarif_export_validates_and_round_trips():
    diagnostics = _all_diagnostics()
    assert diagnostics
    doc = to_sarif(diagnostics)
    assert validate_sarif(doc) == []
    assert doc["version"] == "2.1.0"
    (run,) = doc["runs"]
    declared = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert declared == {d.rule for d in diagnostics}
    back = from_sarif(doc)
    # to_json() normalizes span end_lines, so it is the right equality.
    assert [d.to_json() for d in back] == [d.to_json() for d in diagnostics]


def test_sarif_carries_fingerprints_and_suppressions():
    suppressed = Diagnostic(rule="RR001", message="m", program="p", var="X.v", suppressed=True)
    active = Diagnostic(rule="LO001", message="cycle", program="p", locks=("A", "B"))
    doc = to_sarif([suppressed, active])
    results = doc["runs"][0]["results"]
    assert results[0]["partialFingerprints"]["reproFingerprint/v1"] == suppressed.fingerprint()
    assert results[0]["suppressions"] == [{"kind": "inSource"}]
    assert "suppressions" not in results[1]


def test_validate_sarif_rejects_malformed_documents():
    assert validate_sarif("not a dict")
    assert validate_sarif({"version": "2.1.0"})  # no runs
    doc = to_sarif([Diagnostic(rule="RR001", message="m", program="p", var="v")])
    doc["runs"][0]["results"][0]["ruleId"] = "ZZ999"  # undeclared rule
    assert any("not declared" in e for e in validate_sarif(doc))
    doc2 = to_sarif([Diagnostic(rule="RR001", message="m", program="p", var="v")])
    doc2["runs"][0]["results"][0]["level"] = "fatal"
    assert any("level invalid" in e for e in validate_sarif(doc2))


def test_jsonl_round_trip(tmp_path):
    diagnostics = _all_diagnostics()
    path = tmp_path / "diags.jsonl"
    count = write_jsonl(str(path), diagnostics)
    assert count == len(diagnostics)
    back = read_jsonl(str(path))
    assert [d.to_json() for d in back] == [d.to_json() for d in diagnostics]


# --------------------------------------------------------------------- #
# suppressions

_SUPPRESSED_MODULE = textwrap.dedent(
    '''
    from repro.runtime.ops import Fork, Join, Write
    from repro.runtime.program import Program


    def left(ctx):
        yield Write("S.x", 1)  # repro: noqa[RR001]
        yield Write("S.y", 1)  # repro: noqa
        yield Write("S.z", 1)  # repro: noqa[LO001]


    def right(ctx):
        yield Write("S.x", 2)
        yield Write("S.y", 2)
        yield Write("S.z", 2)


    def main(ctx):
        a = yield Fork(left, name="left")
        b = yield Fork(right, name="right")
        yield Join(a)
        yield Join(b)


    def build():
        return Program(name="suppr", main=main, max_threads=3, shared={})
    '''
)


def _load_module(tmp_path, name, source):
    path = tmp_path / f"{name}.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_suppressed_rules_at_parses_directives(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "x = 1  # repro: noqa[RR001, LO001]\n"
        "y = 2  # repro: noqa\n"
        "z = 3  # plain comment\n"
    )
    assert suppressed_rules_at(str(path), 1) == frozenset({"RR001", "LO001"})
    assert suppressed_rules_at(str(path), 2) == frozenset()
    assert suppressed_rules_at(str(path), 3) is None
    assert suppressed_rules_at("", 1) is None
    assert is_suppressed("RR001", [SourceSpan(file=str(path), line=1)])
    assert not is_suppressed("MH001", [SourceSpan(file=str(path), line=1)])
    assert is_suppressed("MH001", [SourceSpan(file=str(path), line=2)])


def test_noqa_suppression_end_to_end(tmp_path):
    module = _load_module(tmp_path, "suppr_mod", _SUPPRESSED_MODULE)
    report = analyze_program(module.build())

    active = {str(w.var) for w in report.race_warnings()}
    silenced = {str(w.var) for w in report.suppressed}
    # matching rule and bare noqa are silenced; the mismatched rule is not
    assert active == {"S.z"}
    assert silenced == {"S.x", "S.y"}

    # suppression never weakens the dynamic-coverage argument
    for var in ("S.x", "S.y", "S.z"):
        assert report.covers_var(var)

    # diagnostics still carry the silenced findings, marked suppressed …
    diagnostics = report.diagnostics()
    flagged = {str(d.var): d.suppressed for d in diagnostics if d.rule == "RR001"}
    assert flagged == {"S.x": True, "S.y": True, "S.z": False}

    # … but baselines (like strict gating) exclude them
    baseline = baseline_from_diagnostics({"suppr": diagnostics})
    fingerprints = baseline["workloads"]["suppr"]
    assert not any("/S.x/" in fp for fp in fingerprints)
    assert any("/S.z/" in fp for fp in fingerprints)


def test_workload_sources_carry_no_suppressions():
    """The benchmark programs must win precision honestly, not via noqa."""
    for name in ALL_DETECTION_WORKLOADS:
        report = _report(name)
        assert report.suppressed == [], name


# --------------------------------------------------------------------- #
# baselines


def test_diff_baseline_detects_all_delta_kinds():
    old = {"version": 1, "workloads": {"a": ["f1", "f2", "f2"], "b": ["g1"]}}
    same = {"version": 1, "workloads": {"a": ["f2", "f1", "f2"], "b": ["g1"]}}
    assert diff_baseline(old, same) == []  # multiset equality, order-free

    added = {"version": 1, "workloads": {"a": ["f1", "f2", "f2", "f3"], "b": ["g1"]}}
    assert diff_baseline(old, added) == ["a: f3: baseline×0 -> current×1"]

    removed = {"version": 1, "workloads": {"a": ["f1"], "b": ["g1"]}}
    assert "a: f2: baseline×2 -> current×0" in diff_baseline(old, removed)

    multiplicity = {"version": 1, "workloads": {"a": ["f1", "f2"], "b": ["g1"]}}
    assert diff_baseline(old, multiplicity) == ["a: f2: baseline×2 -> current×1"]

    missing = {"version": 1, "workloads": {"a": ["f1", "f2", "f2"]}}
    assert diff_baseline(old, missing) == ["b: workload disappeared from the analysis run"]
    assert diff_baseline(missing, old) == ["b: workload not present in the baseline"]


def test_checked_in_baseline_matches_current_analysis():
    """The CI precision gate, in-process: re-deriving the per-workload
    fingerprint multisets must reproduce ``tests/data/staticcheck_baseline.json``
    exactly — any new false positive or lost finding is a test failure."""
    per_program = {name: _report(name).diagnostics() for name in ALL_DETECTION_WORKLOADS}
    current = baseline_from_diagnostics(per_program)
    baseline = load_baseline(str(BASELINE_PATH))
    assert diff_baseline(baseline, current) == []


# --------------------------------------------------------------------- #
# CLI exporter flags


def test_cli_json_format(capsys):
    assert cli_main(["check", "mapreduce", "lockfarm", "--static-only", "--format=json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)  # machine format: stdout is pure JSON
    assert doc["version"] == 1
    assert set(doc["programs"]) == {"mapreduce", "lockfarm"}
    for diags in doc["programs"].values():
        for entry in diags:
            assert entry["rule"] in RULES
            assert entry["fingerprint"]


def test_cli_jsonl_format(capsys):
    assert cli_main(["check", "mapreduce", "--static-only", "--format=jsonl"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert lines
    for line in lines:
        entry = json.loads(line)
        assert entry["rule"] in RULES


def test_cli_sarif_export(tmp_path, capsys):
    sarif_path = tmp_path / "report.sarif"
    assert (
        cli_main(["check", "--all", "--static-only", "--sarif", str(sarif_path)]) == 0
    )
    capsys.readouterr()
    doc = json.loads(sarif_path.read_text())
    assert validate_sarif(doc) == []
    assert doc["runs"][0]["results"], "full run must produce SARIF results"


def test_cli_baseline_clean_run(capsys):
    assert (
        cli_main(["check", "--all", "--static-only", "--baseline", str(BASELINE_PATH)])
        == 0
    )
    assert "baseline delta" not in capsys.readouterr().err


def test_cli_baseline_regression_fails(tmp_path, capsys):
    baseline = load_baseline(str(BASELINE_PATH))
    baseline["workloads"]["lockfarm"].append("lockfarm/RR001/Fake.var//")
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(baseline))
    assert (
        cli_main(["check", "--all", "--static-only", "--baseline", str(tampered)]) == 1
    )
    err = capsys.readouterr().err
    assert "baseline delta" in err and "Fake.var" in err


def test_cli_update_baseline_reproduces_checked_in_file(tmp_path, capsys):
    fresh = tmp_path / "fresh.json"
    assert (
        cli_main(
            [
                "check",
                "--all",
                "--static-only",
                "--baseline",
                str(fresh),
                "--update-baseline",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert json.loads(fresh.read_text()) == json.loads(BASELINE_PATH.read_text())


def test_cli_baseline_flag_errors(tmp_path, capsys):
    assert cli_main(["check", "--all", "--baseline", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err
    assert cli_main(["check", "--all", "--baseline", "x", "--predicates"]) == 2
    assert "--predicates" in capsys.readouterr().err
    assert cli_main(["check", "--all", "--update-baseline"]) == 2
    assert "--update-baseline requires --baseline" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# interprocedural precision: never worse, strictly better on helpers


@pytest.mark.parametrize("name", list(ALL_DETECTION_WORKLOADS))
def test_interprocedural_mode_never_emits_more_warnings(name):
    assert len(_report(name).warnings) <= len(_report(name, interprocedural=False).warnings)


@pytest.mark.parametrize("name", ["mapreduce", "lockfarm"])
def test_interprocedural_strictly_sharper_on_helper_workloads(name):
    """The acceptance criterion: strictly fewer warnings on ≥ 2 workloads."""
    inter, legacy = _report(name), _report(name, interprocedural=False)
    assert len(inter.warnings) < len(legacy.warnings), (
        name,
        [w.message for w in inter.warnings],
        [w.message for w in legacy.warnings],
    )
    # the summaries are complete: no approximation or unanalyzed-thread
    assert inter.summary.approximations == []


def test_mapreduce_reports_exactly_the_scratch_race():
    report = _report("mapreduce")
    assert [(w.category, str(w.var)) for w in report.warnings] == [("race", "MR.scratch")]
    (warning,) = report.warnings
    assert warning.rule_id == "RR001"
    assert len(warning.spans) == 2
    assert all(span.file.endswith("nestedhelpers.py") for span in warning.spans)


def test_lockfarm_is_proved_warning_free():
    report = _report("lockfarm")
    assert report.warnings == []
    # … and the sites really carry the farm lock (not a vacuous pass)
    summary = report.summary
    cells = [s for s in summary.accesses if str(s.var).startswith("Farm.cell")]
    assert cells
    assert all(s.lockset == frozenset({"Farm.lock"}) for s in cells if s.func == "worker")


@pytest.mark.parametrize("name", ["mapreduce", "lockfarm"])
def test_interprocedural_mode_unlocks_static_pruning(name):
    legacy = StaticPruner(
        extract_summary(ALL_DETECTION_WORKLOADS[name].build(), interprocedural=False)
    )
    inter = StaticPruner(extract_summary(ALL_DETECTION_WORKLOADS[name].build()))
    assert not legacy.trusted  # unresolved nested defs poison pruning
    assert inter.trusted
    assert len(inter.prunable_static_vars()) > len(legacy.prunable_static_vars())


# --------------------------------------------------------------------- #
# call-summary machinery counters


def test_helper_workloads_exercise_the_pure_call_cache():
    stats = _report("mapreduce").summary.call_stats
    assert stats["pure_calls"] > 0 and stats["pure_hits"] > 0
    assert stats["memo_misses"] > 0
    stats = _report("lockfarm").summary.call_stats
    assert stats["pure_calls"] > 0 and stats["pure_hits"] > 0


def test_repeated_helper_inline_hits_the_memo():
    def main(ctx):
        def helper():
            yield Write("M.a", 1)

        yield Acquire("M.lock")
        yield from helper()
        yield from helper()
        yield Release("M.lock")
        yield Read("M.a")

    program = Program(name="memo", main=main, max_threads=1, shared={})
    summary = extract_summary(program)
    assert summary.approximations == []
    assert summary.call_stats["memo_hits"] >= 1
    writes = [s for s in summary.accesses if s.var == "M.a" and s.op == "write"]
    assert writes and all(s.lockset == frozenset({"M.lock"}) for s in writes)


def test_recursive_helper_is_widened_conservatively():
    def main(ctx):
        def rec():
            yield Write("R.x", 1)
            yield from rec()

        yield from rec()

    program = Program(name="rec", main=main, max_threads=1, shared={})
    summary = extract_summary(program)
    assert any("widened conservatively" in note for note in summary.approximations)
    # the widened summary still records the access, just imprecisely
    assert any(s.var == "R.x" for s in summary.accesses)


# --------------------------------------------------------------------- #
# PC001 bridge


def test_predicate_demotion_diagnostic():
    from repro.staticcheck.predclass import (
        ClassificationCertificate,
        Demotion,
        PredicateClass,
    )

    cert = ClassificationCertificate(
        predicate="phase_done",
        claimed=PredicateClass.STABLE,
        assigned=PredicateClass.ARBITRARY,
        demotions=(Demotion(subject="predicate", reason="not upward-closed", expr="x < y"),),
    )
    assert cert.demoted
    (diagnostic,) = cert.diagnostics(program="bench")
    assert diagnostic.rule == "PC001"
    assert diagnostic.var == "phase_done"
    assert diagnostic.evidence["claimed"] == "stable"
    assert diagnostic.evidence["assigned"] == "arbitrary"
    assert "not upward-closed" in diagnostic.message
    assert validate_sarif(to_sarif([diagnostic])) == []


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
