"""JSON (de)serialization of posets.

Traces captured by the runtime monitor can be persisted and re-loaded so
offline experiments (Table 1) run on stable inputs.  The format stores the
event chains with their clocks and metadata plus the insertion order; it is
deliberately plain JSON so posets can be inspected and diffed by hand.
Loading admits every clock through :mod:`repro.poset.validate`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.errors import PosetError
from repro.poset.event import Access, Event
from repro.poset.poset import Poset

__all__ = ["poset_to_dict", "poset_from_dict", "save_poset", "load_poset"]

_FORMAT_VERSION = 1


def poset_to_dict(poset: Poset) -> Dict[str, Any]:
    """Serialize a poset to a JSON-compatible dictionary."""
    return {
        "version": _FORMAT_VERSION,
        "num_threads": poset.num_threads,
        "chains": [
            [
                {
                    "vc": list(e.vc),
                    "kind": e.kind,
                    "obj": e.obj,
                    "accesses": [
                        {"op": a.op, "var": a.var, "is_init": a.is_init}
                        for a in e.accesses
                    ],
                }
                for e in (poset.event(t, k) for k in range(1, poset.lengths[t] + 1))
            ]
            for t in range(poset.num_threads)
        ],
        "insertion": [list(eid) for eid in poset.insertion]
        if poset.insertion is not None
        else None,
    }


def poset_from_dict(data: Dict[str, Any]) -> Poset:
    """Deserialize a poset from :func:`poset_to_dict`'s format."""
    if data.get("version") != _FORMAT_VERSION:
        raise PosetError(f"unsupported poset format version {data.get('version')!r}")
    chains = []
    for tid, chain in enumerate(data["chains"]):
        events = []
        for pos, rec in enumerate(chain, start=1):
            events.append(
                Event(
                    tid=tid,
                    idx=pos,
                    vc=tuple(rec["vc"]),
                    kind=rec.get("kind", "internal"),
                    obj=rec.get("obj"),
                    accesses=tuple(
                        Access(a["op"], a["var"], a.get("is_init", False))
                        for a in rec.get("accesses", ())
                    ),
                )
            )
        chains.append(events)
    insertion = data.get("insertion")
    return Poset(
        chains,
        insertion=[tuple(eid) for eid in insertion] if insertion is not None else None,
    )


def save_poset(poset: Poset, path: Union[str, Path]) -> None:
    """Write a poset to ``path`` as JSON."""
    Path(path).write_text(json.dumps(poset_to_dict(poset)))


def load_poset(path: Union[str, Path]) -> Poset:
    """Load a poset previously written by :func:`save_poset`."""
    return poset_from_dict(json.loads(Path(path).read_text()))
