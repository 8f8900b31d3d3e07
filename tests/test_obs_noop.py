"""The no-op observer contract: observation never changes what a run computes.

``ParaMount(observer=None)`` and ``ParaMount(observer=NullObserver())`` must
produce byte-identical results — same states, same stats, same checkpoint
journal bytes.  On the serial path we pin ``time.perf_counter`` to a fake
clock so even the measured ``seconds`` fields (and hence the journal bytes)
are literally identical; on the thread and process paths timing is
scheduler-dependent, so equality is checked modulo ``seconds``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace

from repro.core.executors import ThreadExecutor, WorkStealingThreadExecutor
from repro.core.paramount import ParaMount
from repro.dist import DistributedExecutor
from repro.obs import NULL_OBSERVER, NullObserver, Observer
from repro.resilience.checkpoint import CheckpointJournal

from tests.conftest import build_chain_poset, build_figure4_poset


def _strip_seconds(stats_list):
    return [replace(s, seconds=0.0) for s in stats_list]


def test_serial_run_byte_identical_with_null_observer(tmp_path, monkeypatch):
    ticker = itertools.count()
    monkeypatch.setattr(
        time, "perf_counter", lambda: next(ticker) * 0.001
    )
    poset = build_chain_poset(3, 3)

    def run(observer, journal_path):
        nonlocal ticker
        ticker = itertools.count()  # same clock readings for both runs
        journal = CheckpointJournal(journal_path)
        pm = ParaMount(poset, checkpoint=journal, observer=observer)
        result = pm.run()
        return result, journal_path.read_bytes()

    res_none, bytes_none = run(None, tmp_path / "none.journal")
    res_null, bytes_null = run(NullObserver(), tmp_path / "null.journal")
    assert res_none.states == res_null.states
    assert res_none.tasks == res_null.tasks
    assert res_none.intervals == res_null.intervals
    assert bytes_none == bytes_null


def test_thread_paths_identical_modulo_seconds(tmp_path):
    poset = build_figure4_poset()
    results = {}
    for label, observer in (("none", None), ("null", NullObserver())):
        for exec_label, executor in (
            ("threads", ThreadExecutor(2)),
            ("steal", WorkStealingThreadExecutor(2)),
        ):
            journal = CheckpointJournal(
                tmp_path / f"{label}-{exec_label}.journal"
            )
            result = ParaMount(
                poset,
                executor=executor,
                schedule="split-steal",
                checkpoint=journal,
                observer=observer,
            ).run()
            results[(label, exec_label)] = result
    for exec_label in ("threads", "steal"):
        a = results[("none", exec_label)]
        b = results[("null", exec_label)]
        assert a.states == b.states
        assert _strip_seconds(sorted(a.tasks, key=lambda s: (s.event, s.lo))) == (
            _strip_seconds(sorted(b.tasks, key=lambda s: (s.event, s.lo)))
        )


def test_mp_path_identical_modulo_seconds():
    """The multiprocessing path: dist-backend local worker processes."""
    poset = build_chain_poset(2, 3)
    a, b = (
        ParaMount(
            poset, executor=DistributedExecutor(workers=2), observer=observer
        ).run()
        for observer in (None, NullObserver())
    )
    serial = ParaMount(poset).run()
    assert a.states == b.states == serial.states
    assert _strip_seconds(a.tasks) == _strip_seconds(b.tasks)


def test_observed_run_matches_unobserved_totals():
    poset = build_chain_poset(3, 3)
    base = ParaMount(poset).run()
    observed = ParaMount(poset, observer=Observer()).run()
    assert observed.states == base.states
    assert observed.work == base.work
    assert _strip_seconds(observed.tasks) == _strip_seconds(base.tasks)


def test_null_observer_hooks_are_inert():
    obs = NullObserver()
    assert not obs.enabled
    with obs.span("x", "y", k=1) as span:
        span.annotate(a=2)
    obs.instant("x")
    obs.record("x", "y", 0.0, 1.0)
    obs.record_epoch("x", "y", 0.0, 1.0, "w")
    obs.set_worker("lane")
    assert obs.spans() == []
    # The shared default is a NullObserver and records nothing either.
    assert not NULL_OBSERVER.enabled
    NULL_OBSERVER.instant("x")
    assert NULL_OBSERVER.spans() == []
