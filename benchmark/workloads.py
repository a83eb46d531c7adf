"""The benchmark workloads, run in-process by ``worker.py``.

Each workload drives the public functions of the program's layers from
outside -- geometry, operators, verify, decompose, modules -- records a span
around every such call, and checks every verdict against a known answer.
A verdict that differs from its answer, or that raised, is counted, never
raised: the runner turns the count into ``failed``.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

if not os.path.isfile(os.path.join(SRC, "pgaw", "__init__.py")):
    raise ImportError(f"no pgaw sources under {SRC}")
sys.path.insert(0, SRC)

import pgaw  # noqa: E402
from pgaw import (  # noqa: E402
    QuadRing,
    SymbolicRing,
    bookkeeping_check,
    build_abstract_module,
    build_geometry,
    build_geometry_operators,
    compute_multiplicities,
    enumerate_subspaces,
    enumerate_types,
    run_geometry_suite,
    run_module_suite,
)
from pgaw.verify import (  # noqa: E402
    askey1_with_coefficient,
    k1l1_with_coefficient,
    relations_for,
    run_relation,
)

if os.path.dirname(os.path.abspath(pgaw.__file__)) != os.path.join(SRC, "pgaw"):
    raise ImportError(f"pgaw imported from {pgaw.__file__}, not from {SRC}")

LAYERS = ("geometry", "operators", "verify", "decompose", "modules")
AW_RELATIONS = ("aw.askey1", "aw.askey2", "aw.comm_g_a", "aw.comm_omega_a",
                "aw.comm_gstar_a")
NAMED_OPERATORS = ("A", "Omega", "G", "Gstar")


@dataclass(frozen=True)
class GeometryWorkload:
    """Commands on lattices, each building its own lattice as the CLI does.

    ``perturb`` names the operator the seeded negative controls perturb, at
    PAIRS_PER_CONFIG pairs per configuration; ``coefficient_controls`` lists
    (control, config) pairs known to fail.
    """

    configs: tuple
    suites: tuple
    decompose: bool
    perturb: str
    coefficient_controls: tuple


@dataclass(frozen=True)
class ModuleWorkload:
    """``run_module_suite`` over SymbolicRing on every type with h <= hmax, k <= kmax.

    The negative controls perturb A in MODULE_CONTROLS seeded types.
    """

    hmax: int
    kmax: int


ALL_GEOMETRY_SUITES = ("counts", "structure", "generators", "f", "rla", "center", "aw")
MODULE_SUITES = ("structure", "generators", "f", "rla", "center", "aw", "module")
PAIRS_PER_CONFIG = 2
MODULE_CONTROLS = 3

# Why each workload exists is recorded in README.md next to this file.
WORKLOADS = {
    "geometry-ladder": GeometryWorkload(
        configs=((2, 3, 2), (3, 3, 1)), suites=ALL_GEOMETRY_SUITES, decompose=True,
        perturb="A",
        coefficient_controls=(("k1l1", (2, 3, 2)), ("k1l1", (3, 3, 1)), ("askey1", (3, 3, 1)))),
    "lattice-n6": GeometryWorkload(
        configs=((2, 4, 2),), suites=("counts", "structure", "generators"),
        decompose=False, perturb="L1", coefficient_controls=(("k1l1", (2, 4, 2)),)),
    "module-symbolic": ModuleWorkload(hmax=6, kmax=4),
}


def load_answers() -> dict:
    with open(os.path.join(HERE, "known_answers.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# spans and verdict bookkeeping
# ---------------------------------------------------------------------------

class Tracer:
    """Spans kept in memory: id, parent, name, start, end and run id.

    Layer, suite and command spans are always recorded, because the
    end-to-end metrics are sums of them.  ``detailed`` adds one span per
    relation and per negative control.
    """

    def __init__(self, run_id: str, detailed: bool):
        self.run_id = run_id
        self.detailed = detailed
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, detail: bool = False):
        if detail and not self.detailed:
            yield None
            return
        rec = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter(), "end": None,
               "run": self.run_id}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def layer_roots(self) -> list[dict]:
        """Layer spans with no layer span above them."""
        by_id = {s["id"]: s for s in self.spans}

        def in_layer(s):
            return s["name"].split(".", 1)[0] in LAYERS

        out = []
        for s in self.spans:
            if not in_layer(s):
                continue
            p = s["parent"]
            while p is not None and not in_layer(by_id[p]):
                p = by_id[p]["parent"]
            if p is None:
                out.append(s)
        return out


class Book:
    """Verdicts compared with their known answers."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def check(self, what: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatches.append(f"{what}: {detail}")

    def raised(self, what: str, count: int = 1):
        """``count`` verdicts lost to an exception."""
        self.attempted += count
        self.failed += count
        self.mismatches.append(f"{what}: raised {traceback.format_exc(limit=-1).strip()}")

    def outcomes(self, what: str, outcomes, expected_ids):
        got = {o.id: o for o in outcomes}
        for rid in expected_ids:
            o = got.pop(rid, None)
            self.check(f"{what} {rid}", o is not None and o.passed,
                       "missing" if o is None else f"{o.status}: {o.witness}")
        for rid in got:
            self.check(f"{what} {rid}", False, "no known answer")


# ---------------------------------------------------------------------------
# independent arithmetic for the known answers and witnesses
# ---------------------------------------------------------------------------

def gaussian_binomial(n: int, d: int, q: int) -> int:
    num = den = 1
    for t in range(d):
        num *= q ** (n - t) - 1
        den *= q ** (t + 1) - 1
    return num // den


def rank_mod(rows, q: int) -> int:
    """Rank over F_q (q prime) by plain elimination."""
    rows = [[x % q for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        rows[rank] = [x * inv % q for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % q for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def coordinates(rows, q: int, h: int) -> tuple[int, int]:
    """(i, level) of a subspace given by basis rows, y = span of the last k basis vectors.

    i = dim(u ∩ y) = dim u - rank of u projected onto the first h coordinates.
    """
    return len(rows) - rank_mod([r[:h] for r in rows], q), len(rows)


def laurent(*terms) -> dict:
    """Laurent polynomial in s = sqrt(q) from (exponent, coefficient) pairs."""
    out: dict = {}
    for e, c in terms:
        out[e] = out.get(e, 0) + Fraction(c)
    return {e: c for e, c in out.items() if c}


def askey2_residual(ir: int, ic: int) -> dict:
    """A*^2 E - (q+1/q) A* E A* + E A*^2 for E = E_rc and A* = diag(q^i):

    (q^ir - q^(ic+1)) (q^ir - q^(ic-1)), in s with q = s^2.
    """
    return laurent((4 * ir, 1), (2 * ir + 2 * ic - 2, -1), (2 * ir + 2 * ic + 2, -1),
                   (4 * ic, 1))


def k1l1_residual(k: int, ir: int, ic: int) -> dict:
    """K1 E - q E K1 for E = E_rc and K1 = diag(q^((k-2i)/2))."""
    return laurent((k - 2 * ir, 1), (k - 2 * ic + 2, -1))


PERTURBATIONS = {
    # operator: (relation linear in it, residual of a unit perturbation,
    #            coordinates at which that residual vanishes)
    "A": ("aw.askey2", lambda k, ir, ic: askey2_residual(ir, ic),
          lambda ir, ic: abs(ir - ic) == 1),
    "L1": ("gen.k1l1", k1l1_residual, lambda ir, ic: ic == ir + 1),
}


def at_sqrt_q(poly: dict, q: int) -> tuple[Fraction, Fraction]:
    """Value a + b*sqrt(q) of a Laurent polynomial in s at s = sqrt(q)."""
    a = b = Fraction(0)
    for e, c in poly.items():
        if e % 2 == 0:
            a += c * Fraction(q) ** (e // 2)
        else:
            b += c * Fraction(q) ** ((e - 1) // 2)
    return a, b


def show_laurent(poly: dict) -> str:
    return " + ".join(f"{c}*s^{e}" for e, c in sorted(poly.items(), reverse=True)) or "0"


def _terms(text: str) -> list[str]:
    return text.replace(" - ", " + -").split(" + ")


def parse_quad(text: str, q: int) -> tuple[Fraction, Fraction]:
    """Parse a rendered Q(sqrt q) scalar: 'a', 'b*sqrt(q)' or 'a +/- b*sqrt(q)'."""
    a = b = Fraction(0)
    for term in _terms(text):
        if term.endswith(f"*sqrt({q})"):
            b += Fraction(term[: -len(f"*sqrt({q})")])
        else:
            a += Fraction(term)
    return a, b


def parse_laurent(text: str) -> dict:
    """Parse a rendered Laurent polynomial in s, e.g. 's^4 - 2*s^-2 + 1'."""
    terms = []
    for term in _terms(text):
        if "s" not in term:
            terms.append((0, Fraction(term)))
            continue
        coeff, _, power = term.rpartition("s")
        coeff = coeff.rstrip("*")
        c = {"": 1, "-": -1}.get(coeff)
        terms.append((int(power[1:]) if power else 1,
                      c if c is not None else Fraction(coeff)))
    return laurent(*terms)


def parse_witness(text: str):
    """(row label, col label, residual text) of a residual witness."""
    head, _, residual = text.partition(", residual=")
    row, _, col = head.partition(", col=")
    return row.removeprefix("row="), col, residual


def draw_pair(rng: random.Random, coords, vanishes, cross_level: bool):
    """Seeded (r, c) whose unit perturbation cannot vanish; cross_level asks for
    r and c on different levels, otherwise on the same level."""
    n = len(coords)
    for _ in range(100_000):
        r, c = rng.randrange(n), rng.randrange(n)
        (ir, lr), (ic, lc) = coords[r], coords[c]
        if not vanishes(ir, ic) and (lr != lc) == cross_level:
            return r, c
    raise ValueError("no admissible perturbation pair")


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

def _suite(tracer, book, answers, mode, target, suite, label, counts):
    """One suite through the public suite runner, or relation by relation when detailed."""
    expected = answers["relations"][mode].get(suite, [])
    runner = run_geometry_suite if mode == "geometry" else run_module_suite
    ops = target if mode == "geometry" else target.ops
    with tracer.span(f"verify.suite.{suite}"):
        try:
            if tracer.detailed:
                outcomes = []
                for rel in relations_for(mode, [suite]):
                    with tracer.span(f"verify.rel.{rel.id}", detail=True):
                        outcomes.append(run_relation(ops, rel.id))
            else:
                outcomes = runner(target, [suite]).outcomes
        except Exception:
            book.raised(f"{label} suite {suite}", len(expected))
            return
    counts["verify.relations"] += len(outcomes)
    book.outcomes(f"{label} {mode}", outcomes, expected)


def _build(tracer, q, h, k):
    with tracer.span("geometry.build_geometry"):
        geom = build_geometry(q, h, k)
    with tracer.span("operators.build_geometry_operators"):
        ops = build_geometry_operators(geom, QuadRing(q))
    return geom, ops


def _control(tracer, book, name, run, check):
    """A negative control: ``run`` gives an Outcome that must fail as ``check`` says."""
    with tracer.span(f"verify.negative.{name}", detail=True):
        try:
            outcome = run()
        except Exception:
            book.raised(f"control {name}")
            return None
    ok, detail = check(outcome)
    book.check(f"control {name}", ok, detail)
    return outcome


def _perturbation_control(tracer, book, label, ops, op, r, c, k, ir, ic, parse, expected):
    relation, residual, _ = PERTURBATIONS[op]
    poly = residual(k, ir, ic)
    want = expected(poly)

    def check(outcome):
        if outcome.passed:
            return False, "passed"
        row, col, value = parse_witness(outcome.witness or "")
        try:
            got = parse(value)
        except (ValueError, ZeroDivisionError):
            got = None
        ok = (row, col, got) == (ops.labels[r], ops.labels[c], want)
        return ok, f"witness {outcome.witness!r}, expected at ({r},{c}) the value {want}"

    out = _control(tracer, book, f"{label}.{op}[{r},{c}].{relation}",
                   lambda: run_relation(ops.perturbed(op, r, c, 1), relation), check)
    return {"control": f"{op}[{r},{c}] -> {relation}", "where": label,
            "row": ops.labels[r], "col": ops.labels[c],
            "expected": show_laurent(poly), "witness": out.witness if out else None}


def _must_fail(outcome):
    return (not outcome.passed and bool(outcome.witness)), f"outcome {outcome.status}"


def run_geometry(spec: GeometryWorkload, seed: int, tracer: Tracer, book: Book,
                 answers: dict) -> dict:
    counts = {"verify.relations": 0, "geometry.elements": 0, "geometry.covers": 0,
              "operators.nnz_total": 0,
              **{f"operators.nnz.{n}": 0 for n in NAMED_OPERATORS}}
    rng = random.Random(seed)
    kept = []
    for q, h, k in spec.configs:
        label = f"{q},{h},{k}"
        with tracer.span(f"config {label}"):
            with tracer.span("geometry.enumerate_subspaces"):
                elements = enumerate_subspaces(q, h + k)
            sizes = [sum(1 for u in elements if u.dim == d) for d in range(h + k + 1)]
            book.check(f"{label} level sizes", sizes == [gaussian_binomial(h + k, d, q)
                                                         for d in range(h + k + 1)],
                       f"{sizes}")
            with tracer.span("command verify"):
                geom, ops = _build(tracer, q, h, k)
                for suite in spec.suites:
                    _suite(tracer, book, answers, "geometry", ops, suite, label, counts)
            counts["geometry.elements"] += geom.size
            counts["geometry.covers"] += sum(map(len, geom.slash_covers_of)) + \
                sum(map(len, geom.backslash_covers_of))
            counts["operators.nnz_total"] += sum(o.nnz() for o in ops.ops.values())
            for n in NAMED_OPERATORS:
                counts[f"operators.nnz.{n}"] += ops[n].nnz()
            if spec.decompose:
                with tracer.span("command decompose"):
                    _decompose(tracer, book, answers, q, h, k, label, counts)
        kept.append((label, (q, h, k), geom, ops))

    # Pairs are drawn before the controls run, so the negative span holds only
    # calls into the program.
    vanishes = PERTURBATIONS[spec.perturb][2]
    plan = []
    for label, (q, h, k), geom, ops in kept:
        coords = [coordinates(u.rows, q, h) for u in geom.elements]
        for n in range(PAIRS_PER_CONFIG):
            r, c = draw_pair(rng, coords, vanishes, cross_level=(n % 2 == 0))
            plan.append((label, q, k, ops, r, c, coords[r][0], coords[c][0]))
    controls = []
    with tracer.span("verify.negative"):
        for label, q, k, ops, r, c, ir, ic in plan:
            controls.append(_perturbation_control(
                tracer, book, label, ops, spec.perturb, r, c, k, ir, ic,
                lambda v, q=q: parse_quad(v, q), lambda poly, q=q: at_sqrt_q(poly, q)))
        for name, (q, h, k) in spec.coefficient_controls:
            label = f"{q},{h},{k}"
            ops = next(o for lab, _, _, o in kept if lab == label)
            fn = {"k1l1": k1l1_with_coefficient, "askey1": askey1_with_coefficient}[name]
            _control(tracer, book, f"{label}.{name}(q+1)",
                     lambda fn=fn, ops=ops, q=q: fn(ops, q + 1), _must_fail)
            controls.append({"control": f"{name}_with_coefficient(q+1)", "where": label})
    return {"counts": counts, "controls": controls}


def _decompose(tracer, book, answers, q, h, k, label, counts):
    geom, ops = _build(tracer, q, h, k)
    try:
        with tracer.span("decompose.compute_multiplicities"):
            mults = compute_multiplicities(geom, ops)
        with tracer.span("decompose.bookkeeping_check"):
            report = bookkeeping_check(geom, mults)
    except Exception:
        book.raised(f"{label} decompose", 2)
        return
    table = {(t.alpha, t.beta, t.rho): m for t, m in mults.items()}
    known = answers["multiplicities"].get(label)
    if known is None:
        book.check(f"{label} multiplicities", False, "no known answer")
    else:
        for a, b, r, m in known:
            got = table.pop((a, b, r), None)
            book.check(f"{label} multiplicity ({a},{b},{r})", got == m, f"{got} != {m}")
        for key, m in table.items():
            book.check(f"{label} multiplicity {key}", False, f"{m} has no known answer")
    book.check(f"{label} bookkeeping", report.passed, f"{report.failures()}")
    rows = sum(3 * len(geom.stratum(t.alpha, t.rho + t.beta)) for t in mults)
    counts["decompose.rows"] = counts.get("decompose.rows", 0) + rows


def run_module(spec: ModuleWorkload, seed: int, tracer: Tracer, book: Book,
               answers: dict) -> dict:
    counts = {"verify.relations": 0, "modules.types": 0, "modules.basis_total": 0}
    ring = SymbolicRing()
    types = [t for h in range(2, spec.hmax + 1) for k in range(1, min(h - 1, spec.kmax) + 1)
             for t in enumerate_types(h, k)]
    rng = random.Random(seed)
    # Types whose basis holds pairs on two levels, so every control can cross levels.
    eligible = [p for p, t in enumerate(types) if len(t.j_range) > 1 or len(t.i_range) > 2]
    chosen = sorted(rng.sample(eligible, MODULE_CONTROLS))
    kept = {}
    type_ms = []
    for p, t in enumerate(types):
        label = f"{t} h={t.h} k={t.k}"
        with tracer.span(f"type {label}") as rec:
            with tracer.span("modules.build_abstract_module"):
                module = build_abstract_module(t, ring)
            for suite in MODULE_SUITES:
                _suite(tracer, book, answers, "module", module, suite, label, counts)
        type_ms.append((rec["end"] - rec["start"]) * 1e3)
        counts["modules.types"] += 1
        counts["modules.basis_total"] += module.dim
        if p in chosen:
            kept[label] = module

    plan = []
    for n, (label, module) in enumerate(kept.items()):
        coords = [(i, i + j) for i, j in module.basis]
        r, c = draw_pair(rng, coords, PERTURBATIONS["A"][2], cross_level=(n % 2 == 0))
        plan.append((label, module, r, c, coords[r][0], coords[c][0]))
    controls = []
    with tracer.span("verify.negative"):
        for label, module, r, c, ir, ic in plan:
            controls.append(_perturbation_control(
                tracer, book, label, module.ops, "A", r, c, module.type.k, ir, ic,
                parse_laurent, lambda poly: poly))
    return {"counts": counts, "controls": controls, "type_ms": type_ms}


# ---------------------------------------------------------------------------
# metrics of one iteration
# ---------------------------------------------------------------------------

def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def run(name: str, seed: int, detailed: bool, run_id: str, t0: float,
        spec=None, answers=None) -> dict:
    """One iteration of workload ``name``; ``t0`` is the clock reading taken
    before pgaw was imported.  ``spec`` and ``answers`` default to the
    registered workload and the recorded known answers."""
    spec = spec if spec is not None else WORKLOADS[name]
    answers = answers if answers is not None else load_answers()
    tracer = Tracer(run_id, detailed)
    book = Book()
    with tracer.span("run"):
        if isinstance(spec, ModuleWorkload):
            out = run_module(spec, seed, tracer, book, answers)
        else:
            out = run_geometry(spec, seed, tracer, book, answers)
    wall = time.perf_counter() - t0

    # Layer metrics only for the layers this workload calls.
    present = {s["name"] for s in tracer.spans}
    layer_spans = {
        "geometry.enumerate_s": "geometry.enumerate_subspaces",
        "geometry.build_s": "geometry.build_geometry",
        "operators.build_s": "operators.build_geometry_operators",
        "decompose.multiplicities_s": "decompose.compute_multiplicities",
        "decompose.bookkeeping_s": "decompose.bookkeeping_check",
        "modules.build_s": "modules.build_abstract_module",
        "verify.negative_s": "verify.negative",
    }
    layer_spans.update({f"{n}_s": n for n in sorted(present) if n.startswith("verify.suite.")})
    if detailed:
        layer_spans.update({f"verify.rel.{rid}_s": f"verify.rel.{rid}" for rid in AW_RELATIONS
                            if f"verify.rel.{rid}" in present})
    metrics = {m: tracer.total(span) for m, span in layer_spans.items() if span in present}
    metrics.update(out["counts"])

    metrics["wall_s"] = wall
    metrics["setup_s"] = sum(metrics.get(m, 0.0) for m in (
        "geometry.build_s", "operators.build_s", "modules.build_s"))
    metrics["verify_s"] = sum(v for m, v in metrics.items() if m.startswith("verify.suite."))
    if "decompose.multiplicities_s" in metrics:
        metrics["decompose_s"] = metrics["decompose.multiplicities_s"] + \
            metrics["decompose.bookkeeping_s"]
    if "type_ms" in out:
        metrics["type_p50_ms"] = statistics.median(out["type_ms"])
        metrics["type_p93_ms"] = percentile(out["type_ms"], 0.93)
    metrics["trace.remainder_s"] = wall - sum(s["end"] - s["start"]
                                              for s in tracer.layer_roots())
    # ru_maxrss is in KiB on Linux; the process is fresh, so this is the
    # peak of this iteration alone.
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "metrics": metrics,
        "attempted": book.attempted,
        "failed": book.failed,
        "mismatches": book.mismatches[:20],
        "controls": out["controls"],
        "spans": tracer.spans if detailed else [],
    }
