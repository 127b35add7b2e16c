"""Compare a job's ``--json`` output with the answer known from its construction.

Compared: homology groups (nonzero degrees), the overall verdict, the
witness vertex and group, every vertex's category, and Mayer-Vietoris
exactness with each node's dimension.  ``inferred_dimension`` is left out
on purpose: its meaning is expected to change.
"""

from __future__ import annotations


def nonzero_groups(records: list) -> dict:
    """``{degree: (rank, torsion)}`` for the nonzero rows of a ``groups`` list."""
    return {
        r["degree"]: (r["rank"], tuple(r["torsion"]))
        for r in records
        if r["rank"] or r["torsion"]
    }


def _witness(w) -> list | None:
    return None if w is None else [w["degree"], w["rank"], list(w["torsion"])]


def _dict_diff(field: str, want: dict, got: dict, limit: int = 5) -> list[str]:
    keys = sorted(set(want) | set(got), key=str)
    bad = [k for k in keys if want.get(k) != got.get(k)]
    lines = [f"{field}[{k!r}]: expected {want.get(k)!r}, got {got.get(k)!r}" for k in bad[:limit]]
    if len(bad) > limit:
        lines.append(f"{field}: {len(bad) - limit} more differences")
    return lines


def diff(kind: str, expected: dict, payload: dict) -> list[str]:
    """Differences between the expected answer and a job's JSON; empty when right."""
    if kind in ("homology", "local"):
        return _dict_diff("groups", expected["groups"], nonzero_groups(payload["groups"]))
    if kind == "check":
        out = []
        if payload["overall"] != expected["overall"]:
            out.append(f"overall: expected {expected['overall']!r}, got {payload['overall']!r}")
        if "witness_vertex" in expected:
            got = (payload["witness_vertex"], _witness(payload["witness"]))
            want = (expected["witness_vertex"], expected["witness"])
            if got != want:
                out.append(f"witness: expected {want!r}, got {got!r}")
        categories = {v["vertex"]: v["category"] for v in payload["vertices"]}
        return out + _dict_diff("category", expected["categories"], categories)
    if kind == "mv":
        nodes = [[n["degree"], n["node"], n["dim"], n["exact"]] for n in payload["nodes"]]
        out = [] if payload["exact"] else ["exact: expected True, got False"]
        if nodes != expected["nodes"]:
            out.append(f"nodes: expected {expected['nodes']!r}, got {nodes!r}")
        return out
    raise ValueError(f"unknown job kind {kind!r}")
