"""Canonical system states: encoding, symmetry reduction, stable hashing.

A *state* is the tuple :func:`repro.sim.models.step` transforms:
everything that determines future protocol behaviour — the channel FIFO
contents, every directory's line and busy entries, every node's cache /
transaction registers / queued processor operations, and every I/O
controller's transaction state.  Message sequence numbers, traces,
statistics, and memory data versions are not part of it — they never
feed back into a table lookup.  Retry timers are a boolean ("a re-issue
is pending"), which the explorer treats as immediately due.

Three properties the explorer depends on:

* **Canonical** — nodes that share a quad execute identical C/N tables
  over identically-shared channel instances, so relabelling them is a
  protocol automorphism.  :func:`canonicalize` rewrites a state to the
  lexicographically least member of its within-quad permutation orbit,
  collapsing symmetric interleavings into one representative.  The
  representative is itself a reachable state, so exploration can expand
  it directly.
* **Process-stable naming** — :func:`hash_state` is SHA-256 over the
  canonical ``repr`` of the tuple, never Python's seeded ``hash``, so a
  state's digest is the same in every process and run regardless of
  ``PYTHONHASHSEED``.  Digests name states in violations, journals and
  the ``--out`` report.  Deduplication itself compares the canonical
  tuples in the explorer's process, which hashes a state only when
  something names it.
* **Serializable** — :func:`encode_state` / :func:`decode_state`
  round-trip a state through JSON for checkpoint journals.

Symmetry comes in three modes (:func:`symmetry_mode`): ``"off"``,
``"quad"`` (within-quad node relabellings — every node in a quad runs
the same C/N tables over the same channel instances), and ``"full"``
(additionally permuting whole interchangeable quads — non-home quads
hosting the same number of nodes are indistinguishable: their
directory/memory/IO controllers run identical tables and their channel
instances are keyed only by destination quad).  Home quads are never
permuted; the home of every explored address is quad 0.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Iterable, Optional

from ..sim.models import quad_of

__all__ = [
    "state_key",
    "hash_state",
    "encode_state",
    "decode_state",
    "permute_state",
    "permute_quads",
    "node_groups",
    "canonicalize",
    "orbits_trivial",
    "symmetry_mode",
]


# -- serialization ------------------------------------------------------------
def encode_state(state) -> list:
    """A JSON-compatible copy of a state (tuples become lists)."""
    if isinstance(state, tuple):
        return [encode_state(item) for item in state]
    return state


def decode_state(obj) -> tuple:
    """The inverse of :func:`encode_state` (lists back to tuples)."""
    if isinstance(obj, list):
        return tuple(decode_state(item) for item in obj)
    return obj


def state_key(state: tuple) -> str:
    """The deterministic encoding used for ordering and hashing.

    ``repr`` of a nested tuple of strings/ints/bools/``None`` is
    deterministic across processes and injective (quoting disambiguates
    strings from everything else), and is ~25x cheaper than a JSON dump —
    this sits on the canonicalization hot path, where every candidate
    permutation is keyed.  Journals still serialize states through
    :func:`encode_state`; only ordering and hashing use the repr.
    """
    return repr(state)


def hash_state(state: tuple) -> str:
    """A process-stable digest of a state.

    SHA-256 over :func:`state_key`, so two runs (or two interpreters
    with different ``PYTHONHASHSEED``) always give a state the same
    name in their journals and reports.
    """
    return hashlib.sha256(state_key(state).encode("utf-8")).hexdigest()


# -- symmetry -----------------------------------------------------------------
def node_groups(state: tuple) -> list[list[str]]:
    """Node ids grouped into interchangeable-node classes: by quad, since
    nodes in one quad run identical C/N tables over identically shared
    channel instances."""
    groups: dict = {}
    for nid, *_ in state[2]:
        groups.setdefault(quad_of(nid), []).append(nid)
    return [sorted(g) for _, g in sorted(groups.items())]


def _rename(endpoint: str, mapping: dict[str, str]) -> str:
    return mapping.get(endpoint, endpoint)


def permute_state(state: tuple, mapping: dict[str, str]) -> tuple:
    """Apply a node relabelling to every occurrence of a node id.

    ``mapping`` must permute node ids within their own quads (a node id
    encodes its quad, and quads are not interchangeable: they differ in
    home roles and channel instances).  Channel FIFO *order* is
    preserved — only the envelope endpoints are rewritten.
    """
    channels, dirs, nodes, ios = state
    new_channels = tuple(sorted(
        (
            key,
            tuple((msg, _rename(src, mapping), _rename(dst, mapping),
                   addr, sr, dr)
                  for msg, src, dst, addr, sr, dr in envs),
        )
        for key, envs in channels
    ))
    new_dirs = tuple(
        (
            quad,
            tuple(sorted(
                (addr, st, tuple(sorted(_rename(n, mapping) for n in pv)))
                for addr, st, pv in lines
            )),
            tuple(sorted(
                (addr, st, tuple(sorted(_rename(n, mapping) for n in pv)),
                 _rename(req, mapping))
                for addr, st, pv, req in busy
            )),
        )
        for quad, lines, busy in dirs
    )
    new_nodes = tuple(sorted(
        (_rename(nid, mapping), cache, miss, wb, cpu_ops)
        for nid, cache, miss, wb, cpu_ops in nodes
    ))
    return (new_channels, new_dirs, new_nodes, ios)


def _group_permutations(groups: list[list[str]]) -> Iterable[dict[str, str]]:
    """Every product of within-group permutations, as rename mappings."""
    per_group = [
        [dict(zip(group, perm)) for perm in itertools.permutations(group)]
        for group in groups
    ]
    for combo in itertools.product(*per_group):
        mapping: dict[str, str] = {}
        for m in combo:
            mapping.update(m)
        yield mapping


def symmetry_mode(symmetry) -> str:
    """Normalize a symmetry setting to ``"off"`` / ``"quad"`` / ``"full"``.

    Booleans are the historical spelling: ``True`` means within-quad
    reduction, ``False`` means none.
    """
    if symmetry is True:
        return "quad"
    if symmetry is False or symmetry is None:
        return "off"
    if symmetry in ("off", "quad", "full"):
        return symmetry
    raise ValueError(
        f"symmetry must be a bool or one of 'off'/'quad'/'full', "
        f"got {symmetry!r}"
    )


def _rename_quad_endpoint(endpoint: str, qmap: dict[int, int]) -> str:
    kind, _, rest = endpoint.partition(":")
    if kind == "node":
        q, _, i = rest.partition(".")
        return f"node:{qmap.get(int(q), int(q))}.{i}"
    if kind in ("dir", "mem", "io"):
        return f"{kind}:{qmap.get(int(rest), int(rest))}"
    return endpoint


def permute_quads(state: tuple, qmap: dict[int, int]) -> tuple:
    """Apply a quad relabelling to every occurrence of a quad id.

    ``qmap`` must permute interchangeable quads: quads with the same
    number of hosted nodes, none of which is the home quad of an
    explored address (home roles break the symmetry — the directory at
    the home quad holds the line).  Everything quad-indexed is renamed
    wholesale: channel-instance keys ``(vc, dst_quad)``, directory /
    memory / IO controller ids, and the quad digit inside every node id.
    Channel FIFO order is preserved.
    """
    channels, dirs, nodes, ios = state
    new_channels = tuple(sorted(
        (
            (vc, qmap.get(dq, dq)),
            tuple((msg, _rename_quad_endpoint(src, qmap),
                   _rename_quad_endpoint(dst, qmap), addr, sr, dr)
                  for msg, src, dst, addr, sr, dr in envs),
        )
        for (vc, dq), envs in channels
    ))
    new_dirs = tuple(sorted(
        (
            qmap.get(quad, quad),
            tuple(sorted(
                (addr, st,
                 tuple(sorted(_rename_quad_endpoint(n, qmap) for n in pv)))
                for addr, st, pv in lines
            )),
            tuple(sorted(
                (addr, st,
                 tuple(sorted(_rename_quad_endpoint(n, qmap) for n in pv)),
                 _rename_quad_endpoint(req, qmap))
                for addr, st, pv, req in busy
            )),
        )
        for quad, lines, busy in dirs
    ))
    new_nodes = tuple(sorted(
        (_rename_quad_endpoint(nid, qmap), cache, miss, wb, cpu_ops)
        for nid, cache, miss, wb, cpu_ops in nodes
    ))
    new_ios = tuple(sorted(
        (qmap.get(quad, quad), iost, pend_op, pend_addr, retry, dev_ops)
        for quad, iost, pend_op, pend_addr, retry, dev_ops in ios
    ))
    return (new_channels, new_dirs, new_nodes, new_ios)


def _quad_permutations(
    quad_classes: Iterable[Iterable[int]],
) -> list[dict[int, int]]:
    """Every product of within-class quad permutations."""
    per_class = [
        [dict(zip(cls, perm)) for perm in itertools.permutations(cls)]
        for cls in (list(c) for c in quad_classes)
    ]
    out = []
    for combo in itertools.product(*per_class):
        qmap: dict[int, int] = {}
        for m in combo:
            qmap.update(m)
        out.append(qmap)
    return out


def orbits_trivial(
    node_ids: Iterable[str],
    symmetry=True,
    quad_classes: Iterable[Iterable[int]] = (),
) -> bool:
    """Whether :func:`canonicalize` returns every state over ``node_ids``
    untouched: symmetry is off, or no two nodes share a quad and no
    quad class (under ``"full"``) has two members.  The node set is fixed
    per configuration, so the explorer decides this once, not per state."""
    mode = symmetry_mode(symmetry)
    keys = [quad_of(nid) for nid in node_ids]
    return mode == "off" or (len(set(keys)) == len(keys) and (
        mode != "full" or all(len(tuple(c)) < 2 for c in quad_classes)))


def canonicalize(
    state: tuple,
    symmetry=True,
    quad_classes: Iterable[Iterable[int]] = (),
) -> tuple:
    """The canonical representative of a state's symmetry orbit.

    The representative is the permuted variant whose :func:`state_key`
    is lexicographically least over the chosen symmetry group:
    within-quad node relabellings for ``"quad"`` (or ``True``), and
    additionally whole-quad permutations over each class in
    ``quad_classes`` for ``"full"``.  ``"off"`` (or ``False``) returns
    the state itself, and so does a trivial orbit (:func:`orbits_trivial`).
    """
    mode = symmetry_mode(symmetry)
    if mode == "off" or orbits_trivial([nid for nid, *_ in state[2]], mode,
                                       quad_classes):
        return state
    qmaps = (_quad_permutations(quad_classes)
             if mode == "full" and quad_classes else [{}])
    best: Optional[tuple] = None
    best_key = ""
    for qmap in qmaps:
        base = permute_quads(state, qmap) if qmap else state
        node_maps = _group_permutations(
            [g for g in node_groups(base) if len(g) > 1]
        )
        for mapping in node_maps:
            candidate = permute_state(base, mapping) if mapping else base
            key = state_key(candidate)
            if best is None or key < best_key:
                best, best_key = candidate, key
    return best
