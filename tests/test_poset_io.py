"""Tests for poset JSON (de)serialization."""

import pytest

from repro.errors import PosetError
from repro.poset.event import Access, Event
from repro.poset.io import load_poset, poset_from_dict, poset_to_dict, save_poset
from repro.poset.poset import Poset


def test_roundtrip_preserves_everything(figure4_poset):
    data = poset_to_dict(figure4_poset)
    back = poset_from_dict(data)
    assert back.num_threads == figure4_poset.num_threads
    assert back.lengths == figure4_poset.lengths
    assert back.insertion == figure4_poset.insertion
    for t in range(2):
        for k in range(1, 3):
            assert back.vc(t, k) == figure4_poset.vc(t, k)


def test_roundtrip_with_accesses(tmp_path):
    e = Event(
        tid=0,
        idx=1,
        vc=(1,),
        kind="collection",
        obj=None,
        accesses=(Access("write", "x", is_init=True), Access("read", "y")),
    )
    p = Poset([[e]], insertion=[(0, 1)])
    path = tmp_path / "poset.json"
    save_poset(p, path)
    back = load_poset(path)
    ev = back.event(0, 1)
    assert ev.kind == "collection"
    assert ev.accesses == e.accesses


def test_rejects_unknown_version():
    with pytest.raises(PosetError):
        poset_from_dict({"version": 999, "chains": []})


def test_file_roundtrip(tmp_path, diamond_poset):
    path = tmp_path / "d.json"
    save_poset(diamond_poset, path)
    back = load_poset(path)
    assert back.num_events == diamond_poset.num_events
    assert back.insertion == diamond_poset.insertion


def test_missing_insertion_roundtrips_as_none():
    p = Poset([[Event(tid=0, idx=1, vc=(1,))]])
    back = poset_from_dict(poset_to_dict(p))
    assert back.insertion is None
