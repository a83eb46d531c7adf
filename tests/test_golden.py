"""Golden reports, operators and module tables: the registry, perturbed runs,
every entry and every closed form.

The report fixture pins every relation's id, description, suite and modes in
registry order, and the full (id, status, witness) list of runs whose
operators were perturbed so that relations of every kind fail: q-commutations,
cubic relations, block supports, equalities, commutators, module tables and
covering-degree counts.  A refactor of the registry must leave it unchanged.

The operator fixture pins, for every named operator of five lattices (one
of them also with a non-default y) and of one numeric and one symbolic
module, the sha256 of its labelled coordinate lines: every entry's
position, canonical value and rendering.  A change of the operator
representation must leave it unchanged.

The table fixture pins ``eigen_tables`` of the type (0,1,0) at
(h, k) = (3, 2) over q = 3 and over the symbolic ring: every closed-form
value at every weight, as its string.

The CLI fixture pins, for each command of ``CLI_COMMANDS``, its exit status
and the sha256 of the report it writes to stdout, run in-process through
``cli.run(cli.parse_args(argv))``: a rendering or a refactor must leave
every report byte for byte as it was.

Regenerate all four (only when a relation, an operator or a report is
deliberately changed) with

    PYTHONPATH=src python tests/test_golden.py
"""

import copy
import hashlib
import json
import os

from oracles import coordinate_lines
from pgaw import cli
from pgaw.geometry import Subspace, build_geometry
from pgaw.modules import ModuleType, build_abstract_module, eigen_tables
from pgaw.operators import DERIVED, build_geometry_operators
from pgaw.rings import QuadRing, SymbolicRing
from pgaw.verify import REGISTRY, run_geometry_suite, run_module_suite, verify_counts

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_reports.json")
OPERATOR_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_operators.json")
TABLE_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "eigen_tables.json")
CLI_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_cli.json")
GEOMETRY_CONFIGS = ((2, 2, 1), (3, 2, 1), (2, 3, 1), (3, 3, 1), (2, 3, 2))
# (2,3,2) once more with a y other than the span of the last k basis vectors
CUSTOM_Y = ((1, 0, 1, 0, 0), (0, 1, 0, 1, 1))

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


def _operator_digests(ops) -> dict:
    digests = {}
    for name in sorted({*ops.ops, *DERIVED}):
        text = "\n".join(coordinate_lines(ops[name], ops.labels))
        digests[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


def operator_snapshot() -> dict:
    snap = {}
    for q, h, k in GEOMETRY_CONFIGS:
        ops = build_geometry_operators(build_geometry(q, h, k), QuadRing(q))
        snap[f"geometry {q},{h},{k}"] = _operator_digests(ops)
    geom = build_geometry(2, 3, 2, Subspace(CUSTOM_Y, 5, 2))
    snap["geometry 2,3,2 y=1,0,1,0,0;0,1,0,1,1"] = _operator_digests(
        build_geometry_operators(geom, QuadRing(2)))
    for key, ring in (("q=3", QuadRing(3)), ("symbolic", SymbolicRing())):
        module = build_abstract_module(ModuleType(0, 1, 0, h=3, k=2), ring)
        snap[f"module {key} (0,1,0) h=3 k=2"] = _operator_digests(module.ops)
    return snap


def test_golden_operators_unchanged():
    with open(OPERATOR_FIXTURE, encoding="utf-8") as fh:
        want = json.load(fh)
    assert operator_snapshot() == want


def table_snapshot() -> dict:
    snap = {}
    for key, ring in (("q=3", QuadRing(3)), ("symbolic", SymbolicRing())):
        module = build_abstract_module(ModuleType(0, 1, 0, h=3, k=2), ring)
        snap[f"module {key} (0,1,0) h=3 k=2"] = {
            f"w[{i},{j}]": {name: str(value) for name, value in row.items()}
            for (i, j), row in eigen_tables(module).items()}
    return snap


def test_golden_eigen_tables_unchanged():
    with open(TABLE_FIXTURE, encoding="utf-8") as fh:
        want = json.load(fh)
    assert table_snapshot() == want


JSON = ("--format", "json")
VERIFY_232 = ("verify", "--q", "2", "--h", "3", "--k", "2")
DECOMPOSE_331 = ("decompose", "--q", "3", "--h", "3", "--k", "1")
CAPACITY = ("verify", "--q", "2", "--h", "5", "--k", "2")  # above the default --max-elements
CLI_COMMANDS = (
    VERIFY_232, VERIFY_232 + JSON,
    VERIFY_232 + ("--suite", "counts"), VERIFY_232 + ("--suite", "counts") + JSON,
    ("verify", "--q", "3", "--h", "2", "--k", "1", "--y", "1,2,1"),
    DECOMPOSE_331, DECOMPOSE_331 + JSON,
    ("module", "--h", "3", "--k", "2", "--alpha", "0", "--beta", "1", "--rho", "0",
     "--symbolic", "--tables") + JSON,
    ("module", "--h", "4", "--k", "2", "--alpha", "0", "--beta", "1", "--rho", "1", "--q", "3"),
    ("enumerate", "--q", "2", "--h", "3", "--k", "1"),
    ("convert", "--h", "4", "--k", "2", "--alpha", "0", "--beta", "1", "--rho", "1"),
    CAPACITY, CAPACITY + JSON,
)


def cli_snapshot() -> dict:
    snap = {}
    for argv in CLI_COMMANDS:
        status, rendered = cli.run(cli.parse_args(list(argv)))
        snap[" ".join(argv)] = {"status": status,
                                "stdout_sha256": hashlib.sha256(rendered.encode("utf-8")).hexdigest()}
    return snap


def test_golden_cli_reports_unchanged():
    with open(CLI_FIXTURE, encoding="utf-8") as fh:
        want = json.load(fh)
    assert cli_snapshot() == want


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    for path, build in ((FIXTURE, snapshot), (OPERATOR_FIXTURE, operator_snapshot),
                        (TABLE_FIXTURE, table_snapshot), (CLI_FIXTURE, cli_snapshot)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(build(), fh, indent=1, sort_keys=True)
            fh.write("\n")
