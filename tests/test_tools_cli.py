"""Tests for the repro-tools CLI and trace serialization."""

import argparse
import json

import pytest

from repro.runtime.trace_io import load_trace, save_trace, trace_from_dict, trace_to_dict
from repro.tools.cli import build_parser, main
from repro.workloads.registry import DETECTION_WORKLOADS


# --------------------------------------------------------------------- #
# trace io


def test_trace_roundtrip(tmp_path):
    trace = DETECTION_WORKLOADS["banking"].trace()
    path = tmp_path / "t.json"
    save_trace(trace, path)
    back = load_trace(path)
    assert back.program_name == trace.program_name
    assert back.num_threads == trace.num_threads
    assert back.base_seconds == pytest.approx(trace.base_seconds)
    assert [(o.tid, o.kind, o.obj, o.target, o.is_init) for o in back.ops] == [
        (o.tid, o.kind, o.obj, o.target, o.is_init) for o in trace.ops
    ]


def test_trace_version_check():
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        trace_from_dict({"version": 99})


def test_trace_dict_shape():
    trace = DETECTION_WORKLOADS["sor"].trace()
    data = trace_to_dict(trace)
    assert data["num_threads"] == 4
    assert json.dumps(data)  # JSON-serializable


# --------------------------------------------------------------------- #
# CLI


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "banking" in out and "d-300" in out


def test_cli_run_and_detect(tmp_path, capsys):
    trace_path = str(tmp_path / "trace.json")
    assert main(["run", "banking", "--seed", "2", "--out", trace_path]) == 0
    assert main(["detect", "--trace", trace_path]) == 0
    out = capsys.readouterr().out
    assert "detections: 1" in out
    assert "audit" in out


def _detect_subroutines():
    """Every choice ``detect --subroutine`` offers."""
    commands = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return next(
        action.choices
        for action in commands.choices["detect"]._actions
        if "--subroutine" in action.option_strings
    )


def _detections(capsys, *args):
    assert main(["detect", "--workload", "banking", *args]) == 0
    out = capsys.readouterr().out
    return [line for line in out.splitlines() if not line.startswith("elapsed:")]


@pytest.mark.parametrize("subroutine", _detect_subroutines())
def test_cli_detect_every_subroutine_matches_lexical(subroutine, capsys):
    expected = _detections(capsys, "--subroutine", "lexical")
    assert "detections: 1" in expected
    assert _detections(capsys, "--subroutine", subroutine) == expected


def test_cli_detect_fresh_workload(capsys):
    assert main(["detect", "--workload", "sor", "--detector", "fasttrack"]) == 0
    out = capsys.readouterr().out
    assert "detections: 0" in out


def test_cli_detect_rv_statuses(capsys):
    assert main(["detect", "--workload", "raytracer", "--detector", "rv"]) == 0
    out = capsys.readouterr().out
    assert "o.o.m." in out


def test_cli_capture_and_enumerate(tmp_path, capsys):
    poset_path = str(tmp_path / "p.json")
    assert main(["capture-poset", "banking", "--out", poset_path]) == 0
    assert main(["enumerate", poset_path, "--algorithm", "bfs"]) == 0
    out = capsys.readouterr().out
    assert "states" in out


def test_cli_enumerate_paramount(tmp_path, capsys):
    poset_path = str(tmp_path / "p.json")
    main(["capture-poset", "raytracer", "--out", poset_path])
    assert main(["enumerate", poset_path, "--paramount"]) == 0
    out = capsys.readouterr().out
    assert "worker(s)" in out


def test_cli_capture_raw_is_bigger(tmp_path, capsys):
    merged = tmp_path / "m.json"
    raw = tmp_path / "r.json"
    main(["capture-poset", "banking", "--out", str(merged)])
    main(["capture-poset", "banking", "--out", str(raw), "--raw"])
    from repro.poset.io import load_poset

    assert load_poset(raw).num_events > load_poset(merged).num_events


def test_cli_explore(capsys):
    assert main(["explore", "banking", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "audit" in out


def test_cli_unknown_workload():
    with pytest.raises(KeyError):
        main(["run", "not-a-workload"])


def test_cli_profile(tmp_path, capsys):
    poset_path = str(tmp_path / "p.json")
    main(["capture-poset", "banking", "--out", poset_path])
    assert main(["profile", poset_path]) == 0
    out = capsys.readouterr().out
    assert "global states i(P)" in out
    assert "modeled speedup (8w)" in out


#: A poset file whose insertion order is not a linear extension: the
#: event (1, 1) comes before (0, 1), which its clock requires.
BAD_POSET = {
    "version": 1,
    "num_threads": 2,
    "chains": [[{"vc": [1, 0]}], [{"vc": [1, 1]}]],
    "insertion": [[1, 1], [0, 1]],
}
#: A trace file whose one operation runs on a thread the trace lacks.
BAD_TRACE = {
    "version": 1,
    "program_name": "bad",
    "num_threads": 1,
    "ops": [{"seq": 0, "tid": 3, "kind": "read", "obj": "x"}],
}


@pytest.mark.parametrize(
    "argv, names",
    [
        (["enumerate", "{poset}"], "event (1, 1)"),
        (["enumerate", "{poset}", "--paramount"], "event (1, 1)"),
        (["coordinator", "{poset}", "--port", "0"], "event (1, 1)"),
        (["worker", "--connect", "127.0.0.1:9", "--poset", "{poset}"], "event (1, 1)"),
        (["profile", "{poset}"], "event (1, 1)"),
        (["detect", "--trace", "{trace}"], "tid 3"),
    ],
    ids=["enumerate", "enumerate-paramount", "coordinator", "worker", "profile", "detect"],
)
def test_cli_rejected_input_is_an_error_line(tmp_path, capsys, argv, names):
    poset, trace = tmp_path / "bad-poset.json", tmp_path / "bad-trace.json"
    poset.write_text(json.dumps(BAD_POSET))
    trace.write_text(json.dumps(BAD_TRACE))
    argv = [a.format(poset=poset, trace=trace) for a in argv]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    path = str(trace if "--trace" in argv else poset)
    assert err.startswith(f"error: {path}: ") and names in err



#: A well-formed poset file: the event (1, 1) follows (0, 1).
GOOD_POSET = dict(BAD_POSET, insertion=[[0, 1], [1, 1]])


@pytest.mark.parametrize(
    "argv, why",
    [
        (["--paramount", "--faults", "teleport=1"], "unknown fault spec key"),
        (["--paramount", "--faults", "crash=2"], "crash rate must be in [0, 1]"),
        (["--paramount", "--faults", "hang=0.1"], "unknown fault spec key 'hang'"),
        (
            ["--paramount", "--backend", "dist", "--wire-faults", "teleport=1"],
            "unknown wire fault key",
        ),
        (
            ["--connect", "127.0.0.1:9", "--wire-faults", "drop_ack=2"],
            "drop_ack must be a probability",
        ),
    ],
    ids=["unknown-key", "rate", "hang", "dist-wire", "worker-wire"],
)
def test_cli_malformed_fault_spec_is_an_error_line(tmp_path, capsys, argv, why):
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps(GOOD_POSET))
    if "--connect" in argv:
        argv = ["worker", "--poset", str(poset), *argv]
    else:
        argv = ["enumerate", str(poset), *argv]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    flag = "--wire-faults" if "--wire-faults" in argv else "--faults"
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and why in err
