"""External workers: ``repro-tools worker`` processes serving a run.

Local workers are forked and inherit the parent's poset, so this is the
one dist path that does not fork: each worker is its own interpreter,
loads its ``--poset`` file and presents that poset's digest in its hello.
A worker holding another poset is refused before it holds a lease (exit
3); the right ones enumerate the run and exit 0 once it is drained.
"""

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core.paramount import ParaMount
from repro.dist import Coordinator, DistributedExecutor
from repro.dist.wire import recv_message, send_message
from repro.obs import Observer
from repro.poset.ideals import count_ideals
from repro.poset.io import save_poset
from repro.tools.cli import main
from repro.workloads.registry import ENUMERATION_WORKLOADS

from tests.test_differential import assert_one_record_per_piece

#: The directory holding the ``repro`` package, for the worker processes.
SRC = Path(repro.__file__).resolve().parents[1]


def start_worker(address, poset_path, name):
    host, port = address
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.tools.cli", "worker",
            "--connect", f"{host}:{port}",
            "--poset", str(poset_path),
            "--name", name,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def listening_address(executor, timeout=30.0):
    """The address of ``executor``'s coordinator, once it accepts."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        coord = executor.last_coordinator
        if coord is not None and coord._accept_thread is not None:
            return coord.address
        time.sleep(0.01)
    raise AssertionError("the coordinator never started listening")


def test_external_workers_serve_a_run_and_a_stale_one_is_refused(tmp_path):
    poset = ENUMERATION_WORKLOADS["d-300"].build_poset()
    right, other = tmp_path / "d300.json", tmp_path / "tsp.json"
    save_poset(poset, right)
    save_poset(ENUMERATION_WORKLOADS["tsp"].build_poset(), other)
    observer = Observer()
    executor = DistributedExecutor(
        workers=2, spawn=False, port=0, no_worker_grace=30.0
    )
    path = tmp_path / "ext.ckpt"
    outcome = {}

    def serve():
        outcome["result"] = ParaMount(
            poset,
            executor=executor,
            schedule="fifo",
            checkpoint=path,
            observer=observer,
        ).run()

    server = threading.Thread(target=serve)
    server.start()
    procs = []
    try:
        address = listening_address(executor)
        stale = start_worker(address, other, "stale")
        procs.append(stale)
        assert stale.wait(60) == 3
        good = {f"ext{i}": start_worker(address, right, f"ext{i}") for i in range(2)}
        procs.extend(good.values())
        server.join(120)
        codes = {name: proc.wait(60) for name, proc in good.items()}
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        server.join(30)

    result = outcome["result"]
    assert result.complete
    assert result.states == count_ideals(poset)
    assert_one_record_per_piece(path, poset, "fifo", executor.num_workers)
    joined = {
        span.worker for span in observer.spans() if span.name == "worker-join"
    }
    assert joined and joined <= set(codes)
    assert {name: codes[name] for name in joined} == dict.fromkeys(joined, 0)
    tried = executor.last_coordinator.table.tried.values()
    assert not any("stale" in workers for workers in tried)
    assert observer.snapshot()["counters"]["stale_workers_total"] == 1


def test_hello_without_a_digest_is_refused_before_leasing():
    """The welcome carries no poset, so a worker that names no digest
    holds none the coordinator could check: it is refused at hello."""
    coord = Coordinator(ENUMERATION_WORKLOADS["tsp"].build_poset(), "lexical")
    coord.start()
    try:
        with socket.create_connection(coord.address, timeout=5.0) as conn:
            send_message(conn, {"type": "hello", "name": "bare", "pid": 0})
            reply = recv_message(conn)
        assert reply["type"] == "reject"
        assert reply["reason"] == "no-digest"
        assert reply["expected"] == coord.digest
        assert "poset" not in reply
    finally:
        coord.stop()


def test_worker_without_a_poset_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["worker", "--connect", "127.0.0.1:9"])
    assert exit_info.value.code == 2
    assert "--poset" in capsys.readouterr().err


def test_coordinator_refuses_port_zero(tmp_path, capsys):
    """No worker can be pointed at port 0: the coordinator refuses it
    with an error line once its poset has loaded."""
    poset = tmp_path / "d300.json"
    save_poset(ENUMERATION_WORKLOADS["d-300"].build_poset(), poset)
    assert main(["coordinator", str(poset), "--port", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --port 0")
