"""One clock admission rule, one verdict at every entry point.

:mod:`repro.poset.validate` decides what a valid clock table is.  The
table below holds malformed feeds, one or more per rule, and asks every
entry point a clock can take: ``Poset(...)``, ``poset_from_dict``,
``PosetBuilder.append_stamped`` and ``OnlineParaMount``.  Each must refuse
the row's event under the row's rule and error class, with a message
naming the event.  A row that only some entry points can express names them.
"""

import json
import random
from dataclasses import dataclass
from typing import Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.online import OnlineParaMount
from repro.core.paramount import ParaMount
from repro.errors import EventOrderError, PosetError
from repro.poset.builder import PosetBuilder
from repro.poset.event import Event
from repro.poset.ideals import count_ideals
from repro.poset.io import load_poset, poset_from_dict, poset_to_dict, save_poset
from repro.poset.poset import Poset
from repro.poset.random_posets import RandomComputationSpec, random_computation
from repro.poset.topological import is_linear_extension
from repro.poset.validate import ERRORS
from repro.types import EventId

from tests.conftest import build_figure4_poset, small_posets

COLUMNS = ("Poset", "poset_from_dict", "append_stamped", "online")
#: Entry points fed events one by one, and those handed stored chains.
FEEDS, STORED = COLUMNS[2:], COLUMNS[:2]


def ev(tid, idx, *vc):
    return Event(tid=tid, idx=idx, vc=tuple(vc))


@dataclass(frozen=True)
class Row:
    id: str
    n: int
    #: Events in arrival order.  The stored columns get them grouped into
    #: chains, with the arrival order as the insertion order if ``ordered``.
    feed: Tuple[Event, ...]
    rule: str
    #: The event the refusal names.
    event: EventId
    columns: Tuple[str, ...] = COLUMNS
    ordered: bool = True

    def chains(self):
        chains = [[] for _ in range(self.n)]
        for e in sorted(self.feed, key=lambda e: e.idx):
            chains[e.tid].append(e)
        return chains

    def insertion(self):
        return [e.eid for e in self.feed] if self.ordered else None

    def as_dict(self):
        return {
            "version": 1,
            "num_threads": self.n,
            "chains": [[{"vc": list(e.vc)} for e in chain] for chain in self.chains()],
            "insertion": [list(eid) for eid in self.insertion()]
            if self.ordered
            else None,
        }


ROWS = [
    Row("clock-width", 2, (ev(0, 1, 1, 0), ev(1, 1, 0, 1, 0)), "clock-shape", (1, 1)),
    Row("thread-out-of-range", 2, (ev(0, 1, 1, 0), ev(2, 1, 1, 0)), "clock-shape", (2, 1), FEEDS),
    Row("negative-thread", 2, (ev(-1, 1, 0, 1),), "clock-shape", (-1, 1), FEEDS),
    Row("out-of-order", 1, (ev(0, 2, 2), ev(0, 1, 1)), "chain-contiguity", (0, 2)),
    Row("gap", 1, (ev(0, 1, 1), ev(0, 3, 3)), "chain-contiguity", (0, 3), FEEDS),
    Row("vc-owner-mismatch", 2, (ev(0, 1, 2, 0),), "gmin-invariant", (0, 1)),
    Row(
        "non-monotone",
        2,
        (ev(1, 1, 0, 1), ev(0, 1, 1, 1), ev(0, 2, 2, 0)),
        "clock-monotone",
        (0, 2),
    ),
    Row("uninserted-dependency", 2, (ev(0, 1, 1, 1), ev(1, 1, 0, 1)), "hb-insertion", (0, 1)),
    # loaded at the parent, then lexical-packed raised IndexError in masks()
    Row(
        "insertion-not-a-linear-extension",
        2,
        (ev(1, 1, 1, 1), ev(0, 1, 1, 0)),
        "hb-insertion",
        (1, 1),
    ),
    Row(
        "component-past-its-chain",
        2,
        (ev(0, 1, 1, 0), ev(1, 1, 5, 1)),
        "hb-insertion",
        (1, 1),
        ordered=False,
    ),
    # admitted online at the parent; lexical-packed then visited the
    # inconsistent cut (0, 1, 1) of [(0, 0, 1), (1, 1, 1)]
    Row(
        "online-admission-gap",
        3,
        (ev(0, 1, 1, 0, 0), ev(1, 1, 1, 1, 0), ev(2, 1, 0, 1, 1)),
        "clock-closure",
        (2, 1),
    ),
    Row(
        "not-transitively-closed",
        3,
        (ev(0, 1, 1, 0, 0), ev(1, 1, 1, 1, 0), ev(2, 1, 0, 1, 1)),
        "clock-closure",
        (2, 1),
        ordered=False,
    ),
    # any arrival order names an event not yet admitted: only stored
    # chains without an insertion order can state the cycle
    Row(
        "clocks-require-each-other",
        2,
        (ev(0, 1, 1, 1), ev(1, 1, 1, 1)),
        "clock-closure",
        (0, 1),
        STORED,
        ordered=False,
    ),
]


def rule_of(message: str) -> Optional[str]:
    """The rule a refusal names: its message starts ``[rule]``."""
    return message[1 : message.index("]")] if message.startswith("[") else None


def refusal(column: str, row: Row) -> Tuple[Optional[str], type, str]:
    """``(rule, error class, message)`` of the refusal ``column`` gives
    ``row``."""
    with pytest.raises(PosetError) as info:
        if column == "Poset":
            Poset(row.chains(), insertion=row.insertion())
        elif column == "poset_from_dict":
            poset_from_dict(json.loads(json.dumps(row.as_dict())))
        elif column == "append_stamped":
            builder = PosetBuilder(row.n)
            for e in row.feed:
                builder.append_stamped(e)
        else:
            om = OnlineParaMount(row.n)
            for e in row.feed:
                om.insert(e)
    return rule_of(str(info.value)), type(info.value), str(info.value)


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_every_entry_point_gives_the_same_verdict(row):
    verdicts = {column: refusal(column, row) for column in row.columns}
    assert {c: (rule, cls) for c, (rule, cls, _) in verdicts.items()} == {
        c: (row.rule, ERRORS[row.rule]) for c in row.columns
    }
    named = "event ({}, {})".format(*row.event)
    for column, (_, _, message) in verdicts.items():
        assert named in message, (column, message)


@pytest.mark.parametrize(
    "chains, event",
    [
        ([[ev(1, 1, 1, 0)], []], (1, 1)),  # in another thread's chain
        ([[ev(0, 1, 1), ev(0, 3, 3)]], (0, 3)),  # at another position
    ],
    ids=["other-thread", "other-position"],
)
def test_poset_refuses_events_stored_out_of_place(chains, event):
    """Rows only ``Poset(...)`` can express: where an event is stored is
    not a clock rule, so the error names no rule."""
    with pytest.raises(PosetError) as info:
        Poset(chains)
    assert type(info.value) is PosetError and rule_of(str(info.value)) is None
    assert "event ({}, {})".format(*event) in str(info.value)


@pytest.mark.parametrize(
    "poset",
    [
        build_figure4_poset(),
        random_computation(RandomComputationSpec(4, 40, 0.5, seed=7)),
    ],
    ids=["figure4", "random"],
)
def test_well_formed_posets_are_admitted_everywhere(poset):
    chains = [
        [poset.event(t, k) for k in range(1, poset.lengths[t] + 1)]
        for t in range(poset.num_threads)
    ]
    feed = list(poset.events_in_order())
    for admitted in (
        Poset(chains, insertion=poset.insertion),
        Poset(chains),
        poset_from_dict(poset_to_dict(poset)),
    ):
        assert admitted.vc_table() == poset.vc_table()
    builder = PosetBuilder(poset.num_threads)
    for e in feed:
        builder.append_stamped(e)
    assert builder.build().vc_table() == poset.vc_table()
    om = OnlineParaMount(poset.num_threads)
    for e in feed:
        om.insert(e)
    assert om.result.states == count_ideals(poset)


# --------------------------------------------------------------------- #
# the two bugs the rule fixes


def test_load_refuses_an_insertion_that_is_not_a_linear_extension():
    """This file loaded; ``lexical-packed`` then died in ``masks()`` and
    ``ParaMount`` raised ``IntervalError``."""
    data = {
        "version": 1,
        "num_threads": 2,
        "chains": [[{"vc": [1, 0]}], [{"vc": [1, 1]}]],
        "insertion": [[1, 1], [0, 1]],
    }
    with pytest.raises(EventOrderError, match=r"event \(1, 1\)"):
        poset_from_dict(data)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(poset=small_posets(), seed=st.integers(0, 2**16))
def test_a_shuffled_insertion_loads_only_as_a_linear_extension(poset, seed):
    order = list(poset.insertion)
    random.Random(seed).shuffle(order)
    data = poset_to_dict(poset)
    data["insertion"] = [list(eid) for eid in order]
    if is_linear_extension(poset, order):
        loaded = poset_from_dict(data)
        assert ParaMount(loaded).run().states == count_ideals(poset)
    else:
        with pytest.raises(EventOrderError):
            poset_from_dict(data)


def test_online_refuses_a_clock_that_is_not_transitively_closed():
    """All three were admitted, and the snapshot was a poset
    ``load_poset`` refused.  A refused insert leaves the poset as it
    was, so the closed clock is admitted after it."""
    feed = [ev(0, 1, 1, 0, 0), ev(1, 1, 1, 1, 0), ev(2, 1, 0, 1, 1)]
    om = OnlineParaMount(3)
    om.insert(feed[0])
    om.insert(feed[1])
    with pytest.raises(PosetError) as info:
        om.insert(feed[2])
    assert rule_of(str(info.value)) == "clock-closure"
    om.insert(ev(2, 1, 1, 1, 1))
    snapshot = om.snapshot_poset()
    assert poset_from_dict(poset_to_dict(snapshot)).vc_table() == snapshot.vc_table()


# --------------------------------------------------------------------- #
# build() does not check again: every admitted feed must stay loadable


@st.composite
def perturbed_feeds(draw):
    """A random poset's insertion feed with a few events swapped and a few
    clock components nudged, so every rule gets broken now and then."""
    poset = draw(small_posets())
    feed = list(poset.events_in_order())
    last = len(feed) - 1
    for i, j in draw(st.lists(st.tuples(st.integers(0, last), st.integers(0, last)), max_size=3)):
        feed[i], feed[j] = feed[j], feed[i]
    nudges = st.tuples(
        st.integers(0, last),
        st.integers(0, poset.num_threads - 1),
        st.sampled_from([-1, 1]),
    )
    for i, j, step in draw(st.lists(nudges, max_size=3)):
        e = feed[i]
        vc = list(e.vc)
        vc[j] += step
        feed[i] = Event(tid=e.tid, idx=e.idx, vc=tuple(vc))
    return poset.num_threads, feed


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=perturbed_feeds())
def test_every_admitted_feed_round_trips(tmp_path_factory, case):
    n, feed = case
    builder = PosetBuilder(n)
    for e in feed:
        try:
            builder.append_stamped(e)
        except PosetError:
            pass
    built = builder.build()
    path = tmp_path_factory.mktemp("feed") / "poset.json"
    save_poset(built, path)
    loaded = load_poset(path)
    assert loaded.vc_table() == built.vc_table()
    assert loaded.insertion == built.insertion
    if loaded.num_events:  # an empty poset has no interval to own its state
        assert ParaMount(loaded).run().states == count_ideals(loaded)
