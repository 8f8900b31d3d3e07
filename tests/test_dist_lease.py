"""Lease table: the exactly-one-commit state machine under a fake clock.

Every transition the coordinator relies on — dispatch order, untried-worker
preference on retry, heartbeat extension, expiry reclaim (largest first,
front of the queue), connection-death reclaim, first-ack-wins commits —
is driven here directly, with a hand-advanced clock so expiry is exact.
"""

from repro.core.metrics import IntervalStats
from repro.dist.lease import LeaseTable


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def key(i):
    return ((0, i), (0, 0), (i, i))


def stats(k):
    return IntervalStats(
        event=k[0], lo=k[1], hi=k[2], states=1, work=1, peak_live=1
    )


def table(n=3, lease_seconds=5.0, weights=None):
    clock = FakeClock()
    t = LeaseTable(lease_seconds=lease_seconds, clock=clock)
    t.add_tasks([key(i) for i in range(n)], weights=weights)
    return t, clock


def test_dispatch_in_schedule_order_and_done():
    t, _ = table(2)
    assert not t.done
    assert t.next_for("a") == (key(0), 0)
    assert t.next_for("b") == (key(1), 0)
    assert t.next_for("a") is None  # nothing pending, two leased
    assert not t.done
    assert t.commit(key(0), stats(key(0)))
    assert t.commit(key(1), stats(key(1)))
    assert t.done
    assert t.outstanding() == []


def test_expiry_reclaims_largest_first_to_the_front():
    t, clock = table(3, lease_seconds=5.0, weights=[10, 99, 50])
    for worker in ("a", "b", "c"):
        t.next_for(worker)
    clock.advance(5.0)
    expired = t.expire()
    assert len(expired) == 3
    # recovered stragglers restart immediately: largest weight dispatches
    # first, and all reclaimed keys precede any untouched pending work
    assert t.pending == [key(1), key(2), key(0)]
    assert t.leases_expired == 3
    assert t.redispatches == 3


def test_heartbeat_extends_every_lease_of_that_worker():
    t, clock = table(2, lease_seconds=5.0)
    t.next_for("a")
    t.next_for("a")
    clock.advance(4.0)
    assert t.heartbeat("a", [key(0), key(1)]) == 2
    assert t.heartbeat("ghost") == 0
    clock.advance(4.0)  # 8s total — past the original expiry, not the new
    assert t.expire() == []
    clock.advance(1.5)
    assert len(t.expire()) == 2


def test_heartbeat_extends_only_claimed_tasks():
    """A pulse naming the in-flight task must not keep alive a lease the
    worker no longer claims — that orphan (its ack was dropped by a
    partition) has to age out or it would never be re-dispatched."""
    t, clock = table(2, lease_seconds=5.0)
    t.next_for("a")  # key(0): ack dropped, worker moved on
    t.next_for("a")  # key(1): actively enumerating
    clock.advance(4.0)
    assert t.heartbeat("a", keys=[key(1)]) == 1
    clock.advance(2.0)  # key(0)'s lease is 6s old, key(1)'s pulse 2s old
    assert [le.key for le in t.expire()] == [key(0)]
    assert t.pending == [key(0)]
    # an idle worker's pulse (empty task list) extends nothing
    assert t.heartbeat("a", keys=[]) == 0


def test_retry_prefers_an_untried_worker():
    t, clock = table(2, lease_seconds=1.0)
    assert t.next_for("a") == (key(0), 0)
    clock.advance(1.0)
    t.expire()
    # key(0) is at the front, but "a" already tried it — "a" gets key(1)
    assert t.next_for("a") == (key(1), 0)
    assert t.next_for("b") == (key(0), 1)
    # with every pending task already tried by the lone survivor, it still
    # gets the head rather than starving
    clock.advance(1.0)
    t.expire()
    k, attempt = t.next_for("a")
    assert k in (key(0), key(1))
    assert attempt >= 1


def test_connection_death_reclaims_only_that_worker():
    t, _ = table(3)
    t.next_for("a")
    t.next_for("b")
    lost = t.release_worker("a")
    assert [le.key for le in lost] == [key(0)]
    assert t.pending[0] == key(0)
    assert key(1) in t.leased
    assert t.redispatches == 1
    assert t.leases_expired == 0  # death is not expiry


def test_first_commit_wins_duplicates_are_counted_and_dropped():
    t, clock = table(1, lease_seconds=1.0)
    k = key(0)
    t.next_for("slow")
    clock.advance(1.0)
    t.expire()  # re-queued
    t.next_for("fast")
    assert t.commit(k, stats(k)) is True  # fast worker's ack journals
    assert t.commit(k, stats(k)) is False  # slow worker's late ack drops
    assert t.duplicate_acks == 1
    assert t.done
    assert len(t.committed) == 1


def test_ack_racing_its_own_expiry_requeue_still_commits_once():
    t, clock = table(1, lease_seconds=1.0)
    k = key(0)
    t.next_for("a")
    clock.advance(1.0)
    t.expire()  # k is pending again, nobody re-leased it yet
    assert k in t.pending
    assert t.commit(k, stats(k)) is True  # the "expired" ack arrives late
    assert k not in t.pending  # and removes the re-queued copy
    assert t.done


def test_next_deadline_tracks_earliest_expiry():
    t, clock = table(2, lease_seconds=5.0)
    assert t.next_deadline() is None
    t.next_for("a")
    clock.advance(2.0)
    t.next_for("b")
    assert t.next_deadline() == 5.0  # a's lease, granted at t=0
    t.heartbeat("a", [key(0)])
    assert t.next_deadline() == 7.0  # now b's, granted at t=2


def test_commit_cost_does_not_grow_with_the_task_count():
    """An ack's key is rebuilt from the wire, so it is never the queued
    object itself; leasing and committing every task must still cost a
    few key comparisons each, not one per pending task."""
    calls = [0]

    class CountingKey(tuple):
        __hash__ = tuple.__hash__

        def __eq__(self, other):
            calls[0] += 1
            return tuple.__eq__(self, other)

    n = 2000
    keys = [CountingKey(key(i)) for i in range(n)]
    t = LeaseTable(clock=FakeClock())
    t.add_tasks(keys)
    for _ in range(n):
        leased, _ = t.next_for("a")
        from_wire = CountingKey(tuple(leased))
        assert t.commit(from_wire, stats(from_wire))
    assert t.done
    assert calls[0] < 10 * n
