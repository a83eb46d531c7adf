"""Golden reports: the registry and the outcomes of perturbed runs, byte for byte.

The fixture pins every relation's id, description, suite and modes in
registry order, and the full (id, status, witness) list of runs whose
operators were perturbed so that relations of every kind fail: q-commutations,
cubic relations, block supports, equalities, commutators, module tables and
covering-degree counts.  A refactor of the registry must leave it unchanged.

Regenerate (only when a relation is deliberately changed) with

    PYTHONPATH=src python tests/test_golden.py
"""

import copy
import json
import os

from pgaw.geometry import build_geometry
from pgaw.modules import ModuleType, build_abstract_module
from pgaw.operators import build_geometry_operators
from pgaw.rings import QuadRing, SymbolicRing
from pgaw.verify import REGISTRY, run_geometry_suite, run_module_suite, verify_counts

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_reports.json")

# (operator, row, col) entries that get +1, applied in this order.
GEOMETRY_PERTURBATIONS = (("L1", 0, 0), ("F0", 1, 2), ("Omega1", 2, 5), ("Y", 3, 3))
MODULE_PERTURBATIONS = (("R", 0, 0), ("K2", 1, 1), ("Fplus", 2, 3), ("Y", 0, 0))


def _perturb(ops, perturbations):
    for name, r, c in perturbations:
        ops = ops.perturbed(name, r, c, 1)
    return ops


def _outcomes(report):
    return {"context": report.context,
            "outcomes": [[o.id, o.status, o.witness] for o in report.outcomes]}


def shortened_covers(geom, attr):
    """Copy of geom whose first nonempty ``attr`` cover list lost its last entry."""
    lists = list(getattr(geom, attr))
    p = next(p for p, covers in enumerate(lists) if covers)
    lists[p] = lists[p][:-1]
    clone = copy.copy(geom)
    setattr(clone, attr, tuple(lists))
    return clone


def _module_run(ring):
    module = build_abstract_module(ModuleType(0, 1, 0, h=3, k=2), ring)
    module.ops = _perturb(module.ops, MODULE_PERTURBATIONS)
    return _outcomes(run_module_suite(module))


def snapshot() -> dict:
    geom = build_geometry(2, 2, 1)
    ops = _perturb(build_geometry_operators(geom, QuadRing(2)), GEOMETRY_PERTURBATIONS)
    snap = {
        "registry": [[r.id, r.description, r.suite, list(r.modes)] for r in REGISTRY],
        "geometry": _outcomes(run_geometry_suite(ops)),
        "module_numeric": _module_run(QuadRing(3)),
        "module_symbolic": _module_run(SymbolicRing()),
        "counts": _outcomes(verify_counts(shortened_covers(geom, "slash_covers_of"))),
    }
    return json.loads(json.dumps(snap))


def test_golden_reports_unchanged():
    with open(FIXTURE, encoding="utf-8") as fh:
        want = json.load(fh)
    got = snapshot()
    assert got["registry"] == want["registry"]
    runs = ("geometry", "module_numeric", "module_symbolic", "counts")
    for key in runs:
        assert got[key] == want[key], key
    # the perturbations make at least one relation of every kind fail
    failed = {rid for key in runs for rid, status, _ in got[key]["outcomes"]
              if status == "fail"}
    for rid in ("gen.k1l1", "gen.cubic_l1", "struct.l1_support", "struct.r_support",
                "f.f0_slash", "f.comm_0p", "center.omega1_l1", "aw.comm_y_a",
                "module.y_eigen", "module.r_action", "counts.slash_down"):
        assert rid in failed, rid


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(snapshot(), fh, indent=1, sort_keys=True)
        fh.write("\n")
