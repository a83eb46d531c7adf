"""Command-line front end.

Subcommands: enumerate (lattice summary), verify (geometry suite), module
(abstract-module suite and tables), decompose (multiplicities), convert
(parameter conversion).  Reports are deterministic: fixed ordering, no
timestamps; timing data is only attached with --timings and is excluded
from the determinism guarantee.  Exit status 0 iff nothing failed; usage
errors, an unwritable --output among them, exit 2 with a message.  An
error after parsing (a lattice above --max-elements, a selection with no
relation in the mode, a failed decompose check) is a report of one failure,
rendered per --format and written to --output like any other.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from .decompose import bookkeeping_check, compute_multiplicities, multiplicity_table
from .geometry import Subspace, build_geometry
from .modules import (
    ModuleType,
    build_abstract_module,
    conversion_case,
    eigen_tables,
    nmde_to_type,
    type_to_nmde,
)
from .operators import GEOMETRY, build_geometry_operators
from .rings import SUPPORTED_Q, QuadRing, SymbolicRing, gaussian_binomial
from .verify import (
    REGISTRY,
    SUITES,
    VerificationReport,
    run_geometry_suite,
    run_module_suite,
    select_relations,
    verify_counts,
)

DEFAULT_MAX_ELEMENTS = 10_000


def _parse_y(ns: argparse.Namespace, parser: argparse.ArgumentParser) -> Subspace:
    """--y as a subspace: rows of entries 0..q-1 spanning a k-dimensional
    subspace of F_q^(h+k)."""
    try:
        rows = tuple(tuple(int(x) for x in row.split(",")) for row in ns.y.split(";"))
    except ValueError:
        parser.error(f"cannot parse --y value {ns.y!r}; expected e.g. '0,0,1;1,0,0'")
    bad = [x for row in rows for x in row if not 0 <= x < ns.q]
    if bad:
        parser.error(f"--y entry {bad[0]} is outside 0..{ns.q - 1} for q={ns.q}, in {ns.y!r}")
    n = ns.h + ns.k
    if any(len(row) != n for row in rows):
        parser.error(f"--y rows must have length h+k={n}, got {ns.y!r}")
    y = Subspace(rows, n, ns.q)
    if y.dim != ns.k:
        parser.error(f"--y must span a subspace of dimension k={ns.k}, "
                     f"got dimension {y.dim} from {ns.y!r}")
    return y


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgaw",
        description="Exact verification of the subspace-lattice operator algebra "
                    "and its generalized Askey-Wilson relations.")
    # every command's namespace has every attribute; a command that does not
    # take an option gets its default
    parser.set_defaults(q=None, symbolic=False, y=None, mtype=None, suite=None,
                        relation=None, max_elements=DEFAULT_MAX_ELEMENTS,
                        timings=False, tables=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def group() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False)

    lattice = group()
    for name in ("q", "h", "k"):
        lattice.add_argument(f"--{name}", type=int, required=True)
    lattice.add_argument("--max-elements", type=int, default=DEFAULT_MAX_ELEMENTS,
                         help="reject lattices larger than this (default 10000)")
    y = group()
    y.add_argument("--y", default=None, help="override y; rows as '0,0,1;...'")
    mtype = group()
    for name in ("h", "k", "alpha", "beta", "rho"):
        mtype.add_argument(f"--{name}", type=int, required=True)
    timings = group()
    timings.add_argument("--timings", action="store_true",
                         help="attach timing data (excluded from determinism)")
    select = group()
    choice = select.add_mutually_exclusive_group()
    choice.add_argument("--suite", action="append", choices=("all",) + SUITES,
                        help="restrict to a suite (repeatable; default all)")
    choice.add_argument("--relation", action="append", metavar="ID",
                        help="run exactly this relation id (repeatable)")
    report = group()
    report.add_argument("--format", choices=("text", "json"), default="text")
    report.add_argument("--output", default=None, help="write the report to this path")

    def command(name: str, summary: str, *groups) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=summary, parents=[*groups, report])

    command("enumerate", "build the lattice and export its summary", lattice, y)
    command("verify", "run the geometry relation suites", lattice, y, select, timings)
    p = command("module", "run the abstract-module relation suites", mtype,
                select, timings)
    ring = p.add_mutually_exclusive_group(required=True)
    ring.add_argument("--q", type=int, default=None)
    ring.add_argument("--symbolic", action="store_true")
    p.add_argument("--tables", action="store_true",
                   help="include the eigenvalue tables in the report")
    command("decompose", "multiplicities of the module types", lattice, timings)
    command("convert", "type (alpha,beta,rho) -> (nu,mu,d,e)", mtype)
    return parser


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The validated namespace, with ``y`` a Subspace (or None), ``mtype`` a
    ModuleType (module, convert) and ``suite`` a list (["all"] by default).
    A usage error exits 2."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.q is not None and ns.q not in SUPPORTED_Q:
        parser.error(f"unsupported q={ns.q}; supported: {', '.join(map(str, SUPPORTED_Q))}"
                     + (" or --symbolic" if ns.command == "module" else ""))
    if not (ns.k >= 1 and ns.h > ns.k):
        parser.error(f"invalid geometry parameters: need h > k >= 1, got h={ns.h}, k={ns.k}")
    if ns.command in ("module", "convert"):
        try:
            ns.mtype = ModuleType(ns.alpha, ns.beta, ns.rho, ns.h, ns.k)
        except ValueError as exc:
            parser.error(f"invalid module type: {exc}")
    if ns.max_elements < 1:
        parser.error(f"--max-elements must be at least 1, got {ns.max_elements}")
    ns.y = _parse_y(ns, parser) if ns.y is not None else None
    ns.suite = ns.suite or ["all"]
    if "all" in ns.suite and set(ns.suite) != {"all"}:
        parser.error("--suite all cannot be combined with another suite")
    known = {r.id for r in REGISTRY}
    for rid in ns.relation or ():
        if rid not in known:
            parser.error(f"unknown relation id {rid!r}")
    return ns


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _report_payload(report: VerificationReport, ns: argparse.Namespace,
                    extra: Optional[dict] = None, built: Optional[dict] = None) -> dict:
    """The report as a dict; with --timings, the timings and, when given,
    the nnz of every operator the run built and the number of rows it
    produced, by name."""
    payload: dict = {"context": report.context, "relations": []}
    for o in report.outcomes:
        entry = {"id": o.id, "status": o.status}
        if o.witness:
            entry["witness"] = o.witness
        payload["relations"].append(entry)
    if extra:
        payload.update(extra)
    payload["summary"] = {
        "total": len(report.outcomes),
        "passed": sum(o.passed for o in report.outcomes),
        "failed": sum(not o.passed for o in report.outcomes),
    }
    if ns.timings:
        payload["timings"] = {k: round(v, 6) for k, v in report.timings.items()}
        if built is not None:
            payload["operators"] = {name: _operator_size(built[name]) for name in sorted(built)}
    return payload


def _operator_size(op) -> dict:
    """The rows op produced in the run, counted before nnz reads any more."""
    rows = len(op.rows_produced())
    return {"nnz": op.nnz(), "rows": rows}


def _render_text(payload: dict) -> str:
    lines = []
    ctx = payload.get("context", {})
    if ctx:
        lines.append("context: " + ", ".join(f"{k}={v}" for k, v in ctx.items()))
    for entry in payload.get("relations", []):
        line = f"{entry['id']}: {entry['status']}"
        if entry.get("witness"):
            line += f" ({entry['witness']})"
        lines.append(line)
    for key in ("levels", "strata", "multiplicities", "conversion", "tables"):
        if key in payload:
            lines.append(f"{key}: {json.dumps(payload[key], default=str)}")
    if "error" in payload:
        lines.append(f"error: {payload['error']}")
    s = payload.get("summary")
    if s is not None:
        lines.append(f"summary: {s['passed']}/{s['total']} pass, {s['failed']} fail")
    for key in ("timings", "operators"):
        if key in payload:
            lines.append(f"{key}: {json.dumps(payload[key])}")
    return "\n".join(lines) + "\n"


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, default=str) + "\n"
    return _render_text(payload)


def _stringify_tables(tables: dict) -> dict:
    return {f"{i},{j}": {name: str(val) for name, val in row.items()}
            for (i, j), row in tables.items()}


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _capacity_guard(ns: argparse.Namespace) -> None:
    n = ns.h + ns.k
    size = sum(gaussian_binomial(n, d, ns.q) for d in range(n + 1))
    if size > ns.max_elements:
        raise ValueError(
            f"capacity error: lattice has {size} elements, above the cap of "
            f"{ns.max_elements}; raise --max-elements to proceed")


def _error_payload(command: str, exc: Exception) -> dict:
    """The report of a command stopped by exc: no relations, one failure."""
    return {"context": {"command": command}, "relations": [], "error": str(exc),
            "summary": {"total": 0, "passed": 0, "failed": 1}}


def _cmd_enumerate(ns: argparse.Namespace) -> tuple[int, dict]:
    _capacity_guard(ns)
    geom = build_geometry(ns.q, ns.h, ns.k, ns.y)
    summary = geom.summary()
    payload = {
        "context": {"command": "enumerate", "q": ns.q, "h": ns.h,
                    "k": ns.k, "y": summary["y"], "size": summary["size"]},
        "levels": {"sizes": summary["level_sizes"],
                   "expected": summary["level_sizes_expected"]},
        "strata": summary["strata"],
    }
    ok = summary["level_sizes"] == summary["level_sizes_expected"]
    payload["summary"] = {"total": 1, "passed": int(ok), "failed": int(not ok)}
    return (0 if ok else 1), payload


def _timed(phases: dict, name: str, fn, *args):
    """fn(*args), recording its wall time as phases["phase.<name>"]."""
    start = time.perf_counter()
    out = fn(*args)
    phases[f"phase.{name}"] = time.perf_counter() - start
    return out


def _build_geometry(ns: argparse.Namespace, phases: dict):
    """The lattice; phase.geometry_build is its total time, followed by
    the time of each part of the build (enumerate, covers, meets)."""
    geom = _timed(phases, "geometry_build", build_geometry, ns.q, ns.h, ns.k, ns.y)
    for part, seconds in geom.phases.items():
        phases[f"phase.geometry_build.{part}"] = seconds
    return geom


def _build_operators(ns: argparse.Namespace, phases: dict, geom):
    return _timed(phases, "operators_build", build_geometry_operators,
                  geom, QuadRing(ns.q))


def _cmd_verify(ns: argparse.Namespace) -> tuple[int, dict]:
    _capacity_guard(ns)
    selected = select_relations(GEOMETRY, ns.suite, ns.relation)
    phases: dict = {}
    geom = _build_geometry(ns, phases)
    if all(rel.suite == "counts" for rel in selected):
        # no counts relation reads an operator
        report = verify_counts(geom, ns.relation)
        built = {}
    else:
        ops = _build_operators(ns, phases, geom)
        _timed(phases, "symmetry", lambda: ops.certificate)
        report = run_geometry_suite(ops, ns.suite, ns.relation)
        built = ops.ops
    report.context = {"command": "verify", **report.context, "suites": ns.suite}
    report.timings = {**phases, **report.timings}
    payload = _report_payload(report, ns, built=built)
    return (0 if report.passed else 1), payload


def _cmd_module(ns: argparse.Namespace) -> tuple[int, dict]:
    ring = SymbolicRing() if ns.symbolic else QuadRing(ns.q)
    module = build_abstract_module(ns.mtype, ring)
    report = run_module_suite(module, ns.suite, ns.relation)
    report.context = {"command": "module", **report.context, "suites": ns.suite}
    extra = None
    if ns.tables:
        extra = {"tables": _stringify_tables(eigen_tables(module))}
    payload = _report_payload(report, ns, extra)
    return (0 if report.passed else 1), payload


def _cmd_decompose(ns: argparse.Namespace) -> tuple[int, dict]:
    _capacity_guard(ns)
    phases: dict = {}
    geom = _build_geometry(ns, phases)
    ops = _build_operators(ns, phases, geom)
    _timed(phases, "symmetry", lambda: ops.certificate)
    mults = _timed(phases, "multiplicities", compute_multiplicities, geom, ops)
    report = _timed(phases, "bookkeeping", bookkeeping_check, geom, mults)
    report.context = {"command": "decompose", **report.context}
    report.timings = phases
    total = sum(m * t.dim for t, m in mults.items())
    extra = {
        "multiplicities": multiplicity_table(mults),
        "dimension_identity": f"{total} = {geom.size}",
    }
    payload = _report_payload(report, ns, extra, built=ops.ops)
    return (0 if report.passed else 1), payload


def _cmd_convert(ns: argparse.Namespace) -> tuple[int, dict]:
    nmde = type_to_nmde(ns.mtype)
    case = conversion_case(ns.mtype)
    round_trip = nmde_to_type(nmde, case, ns.h, ns.k) == ns.mtype
    payload = {
        "context": {"command": "convert", "h": ns.h, "k": ns.k,
                    "type": list(ns.mtype.triple())},
        "conversion": {"nu": nmde.nu, "mu": nmde.mu, "d": nmde.d,
                       "case": case, "e": nmde.e,
                       "round_trip": "ok" if round_trip else "MISMATCH"},
        "summary": {"total": 1, "passed": int(round_trip),
                    "failed": int(not round_trip)},
    }
    return (0 if round_trip else 1), payload


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "module": _cmd_module,
    "decompose": _cmd_decompose,
    "convert": _cmd_convert,
}


def run(ns: argparse.Namespace) -> tuple[int, str]:
    """Execute a parsed namespace; returns (exit status, rendered report).

    A ValueError the command raises (a lattice above --max-elements, a
    selection with no relation in the mode, a failed decompose check) is
    the run's report: its error and one failure, exit status 1."""
    try:
        status, payload = _COMMANDS[ns.command](ns)
    except ValueError as exc:
        status, payload = 1, _error_payload(ns.command, exc)
    rendered = _render(payload, ns.format)
    if ns.output:
        try:
            with open(ns.output, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write report to {ns.output}: "
                             f"{exc.strerror or exc}\n")
            return 2, ""
    return status, rendered


def main(argv: Optional[Sequence[str]] = None) -> int:
    status, rendered = run(parse_args(sys.argv[1:] if argv is None else list(argv)))
    sys.stdout.write(rendered)
    return status


if __name__ == "__main__":
    sys.exit(main())
