"""Command-line front end.

Subcommands: enumerate (lattice summary), verify (geometry suite), module
(abstract-module suite and tables), decompose (multiplicities), convert
(parameter conversion).  Reports are deterministic: fixed ordering, no
timestamps; timing data is only attached with --timings and is excluded
from the determinism guarantee.  Exit status 0 iff nothing failed; usage
errors, an unwritable --output among them, exit 2 with a message.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
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
    SUITES,
    VerificationReport,
    run_geometry_suite,
    run_module_suite,
    select_relations,
    verify_counts,
)

DEFAULT_MAX_ELEMENTS = 10_000


class CapacityError(RuntimeError):
    """Raised when the lattice exceeds the configured element cap."""


@dataclass
class RunConfig:
    command: str
    q: Optional[int] = None
    symbolic: bool = False
    h: int = 0
    k: int = 0
    mtype: Optional[tuple[int, int, int]] = None
    y_rows: Optional[tuple[tuple[int, ...], ...]] = None
    suites: tuple[str, ...] = ("all",)
    relation_ids: Optional[tuple[str, ...]] = None
    fmt: str = "text"
    output: Optional[str] = None
    max_elements: int = DEFAULT_MAX_ELEMENTS
    include_timings: bool = False
    include_tables: bool = False


def _parse_y(text: str, q: int, h: int, k: int,
             parser: argparse.ArgumentParser) -> tuple[tuple[int, ...], ...]:
    """Rows of --y: entries 0..q-1 spanning a k-dimensional subspace of F_q^(h+k)."""
    try:
        rows = tuple(tuple(int(x) for x in row.split(",")) for row in text.split(";"))
    except ValueError:
        parser.error(f"cannot parse --y value {text!r}; expected e.g. '0,0,1;1,0,0'")
    bad = [x for row in rows for x in row if not 0 <= x < q]
    if bad:
        parser.error(f"--y entry {bad[0]} is outside 0..{q - 1} for q={q}, in {text!r}")
    n = h + k
    if any(len(row) != n for row in rows):
        parser.error(f"--y rows must have length h+k={n}, got {text!r}")
    dim = Subspace(rows, n, q).dim
    if dim != k:
        parser.error(f"--y must span a subspace of dimension k={k}, "
                     f"got dimension {dim} from {text!r}")
    return rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgaw",
        description="Exact verification of the subspace-lattice operator algebra "
                    "and its generalized Askey-Wilson relations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, cap=False, timings=False, with_suite=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", default=None, help="write the report to this path")
        if cap:
            p.add_argument("--max-elements", type=int, default=DEFAULT_MAX_ELEMENTS,
                           help="reject lattices larger than this (default 10000)")
        if timings:
            p.add_argument("--timings", action="store_true",
                           help="attach timing data (excluded from determinism)")
        if with_suite:
            p.add_argument("--suite", action="append", default=None,
                           choices=("all",) + SUITES,
                           help="restrict to a suite (repeatable; default all)")
            p.add_argument("--relation", action="append", default=None,
                           metavar="ID",
                           help="run exactly this relation id (repeatable; "
                                "overrides --suite)")

    p = sub.add_parser("enumerate", help="build the lattice and export its summary")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--y", default=None, help="override y; rows as '0,0,1;...'")
    add_common(p, cap=True)

    p = sub.add_parser("verify", help="run the geometry relation suites")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--y", default=None, help="override y; rows as '0,0,1;...'")
    add_common(p, cap=True, timings=True, with_suite=True)

    p = sub.add_parser("module", help="run the abstract-module relation suites")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--rho", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--q", type=int, default=None)
    group.add_argument("--symbolic", action="store_true")
    p.add_argument("--tables", action="store_true",
                   help="include the eigenvalue tables in the report")
    add_common(p, timings=True, with_suite=True)

    p = sub.add_parser("decompose", help="multiplicities of the module types")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_common(p, cap=True, timings=True)

    p = sub.add_parser("convert", help="type (alpha,beta,rho) -> (nu,mu,d,e)")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--rho", type=int, required=True)
    add_common(p)

    return parser


def parse_args(argv: Sequence[str]) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)

    q = getattr(ns, "q", None)
    symbolic = bool(getattr(ns, "symbolic", False))
    if q is not None and q not in SUPPORTED_Q:
        parser.error(f"unsupported q={q}; supported: {', '.join(map(str, SUPPORTED_Q))}"
                     + (" or --symbolic" if ns.command == "module" else ""))
    if ns.command in ("enumerate", "verify", "decompose") and q is None:
        parser.error(f"{ns.command} requires a numeric --q")

    h, k = ns.h, ns.k
    if not (k >= 1 and h > k):
        parser.error(f"invalid geometry parameters: need h > k >= 1, got h={h}, k={k}")

    mtype = None
    if ns.command in ("module", "convert"):
        try:
            ModuleType(ns.alpha, ns.beta, ns.rho, h, k)
        except ValueError as exc:
            parser.error(f"invalid module type: {exc}")
        mtype = (ns.alpha, ns.beta, ns.rho)

    max_elements = getattr(ns, "max_elements", DEFAULT_MAX_ELEMENTS)
    if max_elements < 1:
        parser.error(f"--max-elements must be at least 1, got {max_elements}")

    y_rows = None
    if getattr(ns, "y", None):
        y_rows = _parse_y(ns.y, q, h, k, parser)

    suites = tuple(getattr(ns, "suite", None) or ["all"])
    relation_ids = getattr(ns, "relation", None)
    if relation_ids:
        from .verify import REGISTRY
        known = {r.id for r in REGISTRY}
        for rid in relation_ids:
            if rid not in known:
                parser.error(f"unknown relation id {rid!r}")
        relation_ids = tuple(relation_ids)
    return RunConfig(
        command=ns.command,
        q=q,
        symbolic=symbolic,
        h=h,
        k=k,
        mtype=mtype,
        y_rows=y_rows,
        suites=suites,
        relation_ids=relation_ids,
        fmt=ns.format,
        output=ns.output,
        max_elements=max_elements,
        include_timings=bool(getattr(ns, "timings", False)),
        include_tables=bool(getattr(ns, "tables", False)),
    )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _report_payload(report: VerificationReport, config: RunConfig,
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
    if config.include_timings:
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


def _render(payload: dict, config: RunConfig) -> str:
    if config.fmt == "json":
        return json.dumps(payload, indent=2, default=str) + "\n"
    return _render_text(payload)


def _stringify_tables(tables: dict) -> dict:
    return {f"{i},{j}": {name: str(val) for name, val in row.items()}
            for (i, j), row in tables.items()}


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _capacity_guard(config: RunConfig):
    n = config.h + config.k
    size = sum(gaussian_binomial(n, d, config.q) for d in range(n + 1))
    if size > config.max_elements:
        raise CapacityError(
            f"lattice has {size} elements, above the cap of {config.max_elements}; "
            f"raise --max-elements to proceed")
    return size


def _build_y(config: RunConfig) -> Optional[Subspace]:
    if config.y_rows is None:
        return None
    return Subspace(config.y_rows, config.h + config.k, config.q)


def _error_payload(command: str, exc: Exception) -> dict:
    """The report of a command stopped by exc: no relations, one failure."""
    return {"context": {"command": command}, "relations": [], "error": str(exc),
            "summary": {"total": 0, "passed": 0, "failed": 1}}


def _cmd_enumerate(config: RunConfig) -> tuple[int, dict]:
    _capacity_guard(config)
    geom = build_geometry(config.q, config.h, config.k, _build_y(config))
    summary = geom.summary()
    payload = {
        "context": {"command": "enumerate", "q": config.q, "h": config.h,
                    "k": config.k, "y": summary["y"], "size": summary["size"]},
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


def _build_geometry(config: RunConfig, phases: dict):
    """The lattice; phase.geometry_build is its total time, followed by
    the time of each part of the build (enumerate, covers, meets)."""
    geom = _timed(phases, "geometry_build", build_geometry,
                  config.q, config.h, config.k, _build_y(config))
    for part, seconds in geom.phases.items():
        phases[f"phase.geometry_build.{part}"] = seconds
    return geom


def _build_operators(config: RunConfig, phases: dict, geom):
    return _timed(phases, "operators_build", build_geometry_operators,
                  geom, QuadRing(config.q))


def _cmd_verify(config: RunConfig) -> tuple[int, dict]:
    _capacity_guard(config)
    try:
        selected = select_relations(GEOMETRY, config.suites, config.relation_ids)
    except ValueError as exc:
        return 1, _error_payload("verify", exc)
    phases: dict = {}
    geom = _build_geometry(config, phases)
    if all(rel.suite == "counts" for rel in selected):
        # no counts relation reads an operator
        report = verify_counts(geom, config.relation_ids)
        built = {}
    else:
        ops = _build_operators(config, phases, geom)
        _timed(phases, "symmetry", lambda: ops.certificate)
        report = run_geometry_suite(ops, config.suites, config.relation_ids)
        built = ops.ops
    report.context = {"command": "verify", **report.context, "suites": list(config.suites)}
    report.timings = {**phases, **report.timings}
    payload = _report_payload(report, config, built=built)
    return (0 if report.passed else 1), payload


def _cmd_module(config: RunConfig) -> tuple[int, dict]:
    mtype = ModuleType(*config.mtype, h=config.h, k=config.k)
    ring = SymbolicRing() if config.symbolic else QuadRing(config.q)
    module = build_abstract_module(mtype, ring)
    try:
        report = run_module_suite(module, config.suites, config.relation_ids)
    except ValueError as exc:
        return 1, _error_payload("module", exc)
    report.context = {"command": "module", **report.context, "suites": list(config.suites)}
    extra = None
    if config.include_tables:
        extra = {"tables": _stringify_tables(eigen_tables(module))}
    payload = _report_payload(report, config, extra)
    return (0 if report.passed else 1), payload


def _cmd_decompose(config: RunConfig) -> tuple[int, dict]:
    _capacity_guard(config)
    phases: dict = {}
    geom = _build_geometry(config, phases)
    ops = _build_operators(config, phases, geom)
    _timed(phases, "symmetry", lambda: ops.certificate)
    try:
        mults = _timed(phases, "multiplicities", compute_multiplicities, geom, ops)
    except ValueError as exc:
        return 1, _error_payload("decompose", exc)
    report = _timed(phases, "bookkeeping", bookkeeping_check, geom, mults)
    report.context = {"command": "decompose", **report.context}
    report.timings = phases
    total = sum(m * t.dim for t, m in mults.items())
    extra = {
        "multiplicities": multiplicity_table(mults),
        "dimension_identity": f"{total} = {geom.size}",
    }
    payload = _report_payload(report, config, extra, built=ops.ops)
    return (0 if report.passed else 1), payload


def _cmd_convert(config: RunConfig) -> tuple[int, dict]:
    mtype = ModuleType(*config.mtype, h=config.h, k=config.k)
    nmde = type_to_nmde(mtype)
    case = conversion_case(mtype)
    back = nmde_to_type(nmde, case, config.h, config.k)
    round_trip = back == mtype
    payload = {
        "context": {"command": "convert", "h": config.h, "k": config.k,
                    "type": list(config.mtype)},
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


def run(config: RunConfig) -> tuple[int, str]:
    """Execute a parsed configuration; returns (exit status, rendered report)."""
    try:
        status, payload = _COMMANDS[config.command](config)
    except CapacityError as exc:
        return 1, f"capacity error: {exc}\n"
    rendered = _render(payload, config)
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write report to {config.output}: "
                             f"{exc.strerror or exc}\n")
            return 2, ""
    return status, rendered


def main(argv: Optional[Sequence[str]] = None) -> int:
    config = parse_args(sys.argv[1:] if argv is None else list(argv))
    status, rendered = run(config)
    sys.stdout.write(rendered)
    return status


if __name__ == "__main__":
    sys.exit(main())
