"""The certified symmetry reduction of geometry-mode relations.

On a certified set every relation is evaluated once, on the representative
rows, and that result -- pass or witness -- is the outcome; a perturbed
clone of a certified set is evaluated once on its root's row view, at the
rows its perturbation reaches and the first position of each stratum
outside them; a set without a certified root (a module, a set built by
hand, a clone of one) evaluates once, in full.  A certified set also derives its operators from their
representative rows and moves them along the certificate's forest, and
every operator of a builder's set produces its rows when they are first
read.  These tests pin that both give the outcomes and operators of an
uncertified twin (``uncertified_twin``), which holds the batch-built
inputs and derives and evaluates everything in full, byte for byte; that
every row of every operator equals the batch build's
(``oracle_operators``) and the reduced path builds no full operator; that
only a set ``build_geometry_operators`` made is
certified, from the lattice alone; that an evaluator on the row view can
use only the set's own operands and queries; and that a broken certificate
changes no verdict.  Tests that tamper with invariant inputs certify them
by hand (``hand_certified``), after checking each with the invariance
oracle ``permutes``.
"""

import copy
import random

import pytest

from oracles import (
    CONFIGS,
    TESTED_YS,
    builder_inputs,
    hand_certified,
    hand_made,
    oracle_operators,
    permutes,
    uncertified_twin,
    vector_mask_permutations,
)
from pgaw import symmetry, verify
from pgaw.decompose import compute_multiplicities
from pgaw.geometry import COVER_LISTS, Subspace, build_geometry
from pgaw.modules import ModuleType, build_abstract_module
from pgaw.operators import (
    DERIVED,
    FAMILIES,
    TRANSPOSES,
    LazyOperator,
    SparseOperator,
    _stored_operator,
    build_geometry_operators,
    expr_askey1,
)
from pgaw.rings import QuadRing
from pgaw.symmetry import (
    RowView,
    generator_permutations,
    lattice_certificate,
    standard_generators,
)
from pgaw.verify import (
    EVALUATORS,
    Outcome,
    askey1_with_coefficient,
    k1l1_with_coefficient,
    relations_for,
    run_geometry_suite,
    run_relation,
    verify_counts,
)

# (operator, row, col) entries that get +1: each fails some relations
PERTURBATIONS = (("L1", 0, 0), ("F0", 1, 2), ("Omega1", 2, 5), ("Y", 3, 3))


def _perturb(ops):
    for name, r, c in PERTURBATIONS:
        ops = ops.perturbed(name, r, c, 1)
    return ops


def _geometry(q, h, k, y_rows=None):
    y = None if y_rows is None else Subspace(y_rows, h + k, q)
    return build_geometry(q, h, k, y)


def _fresh(q, h, k, y_rows=None):
    """A new OperatorSet, so no certificate is computed yet."""
    return build_geometry_operators(_geometry(q, h, k, y_rows), QuadRing(q))


def _replaced(geom, name, op):
    """The builder's inputs for geom with name replaced by op."""
    return {**builder_inputs(geom), name: op}


def _full(twin, rel_id):
    """The outcome of rel_id evaluated in full on twin, a set with no
    certified ancestor: an ``uncertified_twin`` or a clone of one."""
    witness = EVALUATORS[rel_id](twin)
    return Outcome(rel_id, "pass" if witness is None else "fail", witness)


def _seen(ops):
    return "reduced" if isinstance(ops, RowView) else "full"


@pytest.fixture
def spy(monkeypatch):
    """Records, per call of the spied evaluator, whether it saw the row view."""
    def install(rel_id):
        real = EVALUATORS[rel_id]
        calls = []

        def evaluate(ops):
            calls.append(_seen(ops))
            return real(ops)

        monkeypatch.setitem(EVALUATORS, rel_id, evaluate)
        return calls
    return install


@pytest.mark.parametrize("q,h,k,y_rows", CONFIGS)
def test_reduced_and_full_outcomes_agree(q, h, k, y_rows):
    ops = _fresh(q, h, k, y_rows)
    cert = ops.certificate
    assert cert is not None
    assert len(cert.reps) == len(ops.geometry.strata)
    twin = uncertified_twin(ops)
    for rel in relations_for("geometry"):
        assert EVALUATORS[rel.id](RowView(ops)) is None, rel.id
        assert run_relation(ops, rel.id) == _full(twin, rel.id) == Outcome(rel.id, "pass")


# What the clone tests perturb: inputs (A, L1, F0, the last also a DERIVED
# name) and derived operators whose column preimage is a union of strata
# (Omega1) and a diagonal (Y).
CLONE_TARGETS = ("A", "L1", "F0", "Omega1", "Y")


def _seeded_perturbations(ops, seed=20261021):
    """(name, r, c) for each of CLONE_TARGETS, r and c away from the
    representatives, so the representative rows alone would miss them."""
    reps = set(ops.certificate.reps)
    others = [p for p in range(ops.dim) if p not in reps]
    rng = random.Random(seed)
    return [(name, rng.choice(others), rng.choice(others)) for name in CLONE_TARGETS]


def _clone_mismatches(ops, perturbations):
    """(perturbations, relation id) for every relation whose outcome on a
    clone of ops differs from the full evaluation of the same clone of an
    uncertified twin: each perturbation alone, then all of them chained
    with PERTURBATIONS, whose entries lie on representative rows too."""
    twin = uncertified_twin(ops)
    geometry_ids = [rel.id for rel in relations_for("geometry")]
    assert len(geometry_ids) == 88
    bad = []
    for chain in [[p] for p in perturbations] + [[*perturbations, *PERTURBATIONS]]:
        clone, twin_clone = ops, twin
        for name, r, c in chain:
            clone, twin_clone = clone.perturbed(name, r, c, 1), twin_clone.perturbed(name, r, c, 1)
        want = [_full(twin_clone, rel_id) for rel_id in geometry_ids]
        assert any(not o.passed for o in want), chain
        got = run_geometry_suite(clone).outcomes
        bad += [(chain, w.id) for o, w in zip(got, want) if o != w]
    return bad


@pytest.mark.parametrize("q,h,k,y_rows", CONFIGS)
def test_perturbed_outcomes_and_witnesses_agree(q, h, k, y_rows):
    ops = _fresh(q, h, k, y_rows)
    assert not _clone_mismatches(ops, _seeded_perturbations(ops))


def test_a_reach_without_the_column_preimage_breaks_the_agreement(monkeypatch):
    # the same clones agree at (2,3,1) in test_perturbed_outcomes_and_witnesses_agree;
    # a product's reach taken as its left factor's alone misses the rows
    # whose entries meet a perturbed row of the right factor
    monkeypatch.setattr(symmetry, "_product_reach", lambda x, y: x.reach)
    ops = _fresh(2, 3, 1)
    assert _clone_mismatches(ops, _seeded_perturbations(ops))


@pytest.mark.parametrize("q,h,k,y_rows", CONFIGS)
def test_coefficient_controls_run_once_on_the_representative_rows(
        monkeypatch, q, h, k, y_rows):
    ops = _fresh(q, h, k, y_rows)
    twin = uncertified_twin(ops)
    coeff = ops.ring.q_power(1) + 1
    want_askey1 = verify._residual_witness(expr_askey1(twin, middle=coeff), twin)
    want_k1l1 = verify._residual_witness(
        verify._q_commutation(twin, "K1", "L1", right=coeff), twin)
    calls = []

    def spied(real):
        def wrapper(o, *args, **kwargs):
            calls.append(_seen(o))
            return real(o, *args, **kwargs)
        return wrapper

    for name in ("expr_askey1", "_q_commutation"):
        monkeypatch.setattr(verify, name, spied(getattr(verify, name)))
    out = askey1_with_coefficient(ops, coeff)
    assert out == Outcome("aw.askey1[tampered-coefficient]", "fail", want_askey1)
    assert calls == ["reduced"]
    del calls[:]
    out = k1l1_with_coefficient(ops, coeff)
    assert out == Outcome("gen.k1l1[tampered-coefficient]", "fail", want_k1l1)
    assert calls == ["reduced"]


def test_every_installed_operator_is_certified():
    ops = _fresh(2, 3, 2)
    inputs = dict(ops.ops)  # a fresh set holds its inputs alone
    cert = ops.certificate
    assert set(inputs) == {"K1", "K1i", "K2", "K2i", "L1", "L2", "R1", "R2",
                           "F0", "Fplus", "Fminus", "F", "R", "L", "A"}
    every = [ops[name] for name in {*inputs, *DERIVED}]
    assert {name for name, op in ops.ops.items() if op is not inputs.get(name)} \
        == {"Astar", "Omega0", "Omega1", "Omega2", "Y", "P", "Omega", "G", "Gstar"}
    # the certified set holds every one of them, so its certificate covers them
    assert cert is not None and set(ops.ops) == {*inputs, *DERIVED}
    # what the certificate derives from the lattice, and trusts of the
    # derived operators, holds here
    assert all(permutes(op, perm) for op in every for perm in cert.perms)


def test_operators_are_derived_when_first_read():
    ops = _fresh(2, 3, 2)
    inputs = dict(ops.ops)
    assert run_geometry_suite(ops, ["generators"]).passed
    assert ops.ops == inputs
    compute_multiplicities(ops.geometry, ops)
    assert set(ops.ops) - set(inputs) == {"Omega0", "Omega1", "Omega2"}


def test_same_inputs_by_hand_get_no_certificate(spy):
    ops = _fresh(2, 3, 2)
    assert ops.from_lattice is True and ops.certificate is not None
    # the very operators the builder made, in a set built by hand
    by_hand = hand_made(ops.geometry, dict(ops.ops))
    assert by_hand.from_lattice is False and by_hand.certificate is None
    calls = spy("aw.askey2")
    assert run_relation(by_hand, "aw.askey2") == run_relation(ops, "aw.askey2")
    assert calls == ["full", "reduced"]


def test_operator_derived_after_the_certificate_is_covered(spy):
    ops = _fresh(2, 3, 2)
    cert = ops.certificate
    assert "Omega" not in ops.ops
    calls = spy("aw.comm_omega_a")
    assert run_relation(ops, "aw.comm_omega_a").passed
    assert calls == ["reduced"]
    assert "Omega" in ops.ops and ops.certificate is cert


def test_operator_sets_take_no_item_assignment():
    ops = _fresh(2, 2, 1)
    inputs = dict(ops.ops)
    for target in (ops, ops.perturbed("A", 0, 1, 1)):
        with pytest.raises(TypeError):
            target["F0"] = ops["F0"].with_entry_added(1, 2, 1)
    assert ops.ops == inputs


def test_operand_an_evaluator_builds_raises_type_error(ops_cache, monkeypatch):
    ops = ops_cache(2, 2, 1)
    reps = ops.certificate.reps
    r = next(p for p in range(ops.dim) if p not in reps)
    other = ops["A"].with_entry_added(r, 0, 1)  # differs from A off the reps
    seen = []

    def evaluate(o):
        seen.append(_seen(o))
        return verify._residual_witness(o["A"] - other, o)

    monkeypatch.setitem(EVALUATORS, "a.sum", evaluate)
    with pytest.raises(TypeError, match="SparseOperator is not an expression of this row view"):
        run_relation(ops, "a.sum")
    assert seen == ["reduced"]
    # without a certificate the same evaluator runs once, in full
    twin = uncertified_twin(ops)
    out = run_relation(twin, "a.sum")
    assert seen == ["reduced", "full"]
    assert out == Outcome("a.sum", "fail", verify._residual_witness(ops["A"] - other, ops))
    assert out.witness.startswith(f"row={ops.labels[r]}, col={ops.labels[0]}, ")


def test_perturbed_clone_keeps_the_parents_derived_operators():
    ops = _fresh(2, 3, 2)
    clone = ops.perturbed("F0", 1, 2, 1)
    assert clone.from_lattice is False and clone.certificate is None
    assert clone["F0"] is not ops["F0"]
    assert clone["Omega0"] is ops["Omega0"]
    assert clone["L1"] is ops["L1"]
    assert set(clone.ops) == {"F0"}  # what it reads from ops stays on ops


def test_perturbed_clone_derives_nothing_on_its_parent(geometry_cache):
    ops = build_geometry_operators(geometry_cache(2, 4, 2), QuadRing(2))
    inputs = set(ops.ops)
    clone = ops.perturbed("A", 0, 1, 1)
    assert not run_relation(clone, "a.sum").passed
    assert set(ops.ops) == inputs


def test_clone_of_a_clone_reads_through_both_levels():
    ops = _fresh(2, 2, 1)
    clone = ops.perturbed("A", 0, 1, 1)
    twice = clone.perturbed("K1", 0, 0, 1)
    assert set(twice.ops) == {"K1"} and twice.certificate is None
    assert twice["A"] is clone["A"] is not ops["A"]
    assert twice["K1"] is not ops["K1"]
    assert twice["L1"] is ops["L1"] and twice["Omega"] is ops["Omega"]


def test_counts_relations_compute_no_certificate(monkeypatch):
    computed = []
    real = symmetry.lattice_certificate
    monkeypatch.setattr(symmetry, "lattice_certificate",
                        lambda geom: computed.append(geom) or real(geom))
    report = verify_counts(_geometry(2, 2, 1))
    assert report.passed and len(report.outcomes) == 5
    assert computed == []
    # a builder's set takes its certificate once, before its first relation
    # runs, whatever that relation reads
    ops = _fresh(2, 2, 1)
    for rel in relations_for("geometry", ["counts"]):
        assert run_relation(ops, rel.id).passed
    assert computed == [ops.geometry]
    assert ops.certificate is not None


def test_perturbed_set_takes_its_roots_row_view(ops_cache, spy):
    ops = ops_cache(2, 3, 2)
    calls = spy("aw.askey2")
    assert run_relation(ops, "aw.askey2").passed
    assert calls == ["reduced"]
    tampered = ops.perturbed("A", 3, 40, 1)
    assert tampered.from_lattice is False and tampered.certificate is None
    assert tampered.root is ops and set(tampered.deltas) == {"A"}
    del calls[:]
    out = run_relation(tampered, "aw.askey2")
    assert calls == ["reduced"]
    twin = uncertified_twin(ops).perturbed("A", 3, 40, 1)
    assert out == _full(twin, "aw.askey2") and not out.passed
    assert out.witness.startswith(f"row={ops.labels[3]}, col={ops.labels[40]}, ")
    # a clone of a set without a certificate runs in full
    del calls[:]
    assert run_relation(twin, "aw.askey2") == out
    assert calls == ["full"]


def _pair_off_the_reps(ops, same_i=False):
    """The first (r, c), r != c, with neither a representative (and with
    dim(r ∩ y) == dim(c ∩ y) when same_i)."""
    reps, ij = set(ops.certificate.reps), ops.ij
    return next((r, c) for r in range(ops.dim) for c in range(ops.dim)
                if r != c and r not in reps and c not in reps
                and (not same_i or ij[r][0] == ij[c][0]))


def test_a_perturbed_leafs_transpose_is_read_from_the_perturbed_operator(ops_cache, spy):
    ops = ops_cache(2, 3, 2)
    r, c = _pair_off_the_reps(ops)
    twin = uncertified_twin(ops)
    calls = spy("a.rl_transpose")
    # L's transpose on the clone is R plus the perturbation transposed, so
    # R - L^T has its one nonzero entry at (c, r) ...
    out = run_relation(ops.perturbed("L", r, c, 1), "a.rl_transpose")
    assert out == _full(twin.perturbed("L", r, c, 1), "a.rl_transpose")
    assert out.witness == f"row={ops.labels[c]}, col={ops.labels[r]}, residual=-1"
    # ... and with R perturbed instead, L's transpose is the root's R, not
    # the clone's
    out = run_relation(ops.perturbed("R", r, c, 1), "a.rl_transpose")
    assert out == _full(twin.perturbed("R", r, c, 1), "a.rl_transpose")
    assert out.witness == f"row={ops.labels[r]}, col={ops.labels[c]}, residual=1"
    assert calls == ["reduced", "full", "reduced", "full"]


def test_a_control_leaves_every_root_operator_partial():
    ops = _fresh(2, 4, 2)
    r, c = _pair_off_the_reps(ops, same_i=True)  # fails both relations below
    for name, rel_id in (("A", "aw.askey2"), ("L1", "gen.k1l1")):
        out = run_relation(ops.perturbed(name, r, c, 1), rel_id)
        assert out.witness.startswith(f"row={ops.labels[r]}, col={ops.labels[c]}, "), rel_id
    held = [*ops.ops.values(), *ops._diagonals.values()]
    assert {"A", "L1", "Astar", "Omega", "Gstar"} <= set(ops.ops)
    for op in held:
        assert len(op.rows_produced()) < ops.dim, op


def test_a_clone_reaches_every_row_through_an_input_of_no_known_kind(ops_cache):
    # K1 + A is invariant but neither a family, nor derived, nor diagonal:
    # its column preimage is every position, and the outcomes still agree
    geom = ops_cache(2, 3, 1).geometry
    builder = ops_cache(2, 3, 1)
    inputs = _replaced(geom, "K1", builder["K1"] + builder["A"])
    root, twin = hand_certified(geom, inputs), hand_made(geom, inputs)
    r, c = _pair_off_the_reps(root)
    clone = root.perturbed("L1", r, c, 1)
    view = RowView(clone)
    reach = (view["K1"] @ view["L1"]).reach
    assert reach == frozenset(range(root.dim)) and view["L1"].reach == {r}
    want = [_full(twin.perturbed("L1", r, c, 1), rel.id)
            for rel in relations_for("geometry", ["generators"])]
    assert run_geometry_suite(clone, ["generators"]).outcomes == want
    assert any(not o.passed for o in want)


def test_a_perturbation_undone_by_a_second_clone_leaves_the_root():
    ops = _fresh(2, 3, 1)
    r, c = _pair_off_the_reps(ops)
    undone = ops.perturbed("Omega1", r, c, 1).perturbed("Omega1", r, c, -1)
    assert undone.root is ops and undone.deltas["Omega1"].is_zero()
    assert undone["Omega1"] == ops["Omega1"]
    assert run_geometry_suite(undone).passed


@pytest.mark.parametrize("rel_id", ["aw.askey2", "a.sum"])
@pytest.mark.parametrize("where", ["zero,y", "full,full"])
def test_invariant_perturbation_is_caught_on_a_representative_row(
        ops_cache, spy, rel_id, where):
    ops = ops_cache(2, 3, 2)
    geom = ops.geometry
    at = {"zero": 0, "y": geom.position(geom.y.rows), "full": geom.size - 1}
    r, c = (at[name] for name in where.split(","))
    # the zero subspace, y and the whole space are singleton orbits, so the
    # perturbation is invariant
    assert (r,) in geom.strata.values() and (c,) in geom.strata.values()
    inputs = _replaced(geom, "A", ops["A"].with_entry_added(r, c, 1))
    tampered = hand_certified(geom, inputs)
    assert tampered.certificate is not None
    calls = spy(rel_id)
    out = run_relation(tampered, rel_id)
    assert calls == ["reduced"]
    assert not out.passed
    assert out == _full(hand_made(geom, inputs), rel_id)
    assert out.witness.startswith(f"row={ops.labels[r]}, col={ops.labels[c]}")


# The geometry relations that read A.  No DERIVED operator reads A, so on a
# set that differs from a passing one only in A every other relation has the
# passing set's outcome, which test_reduced_and_full_outcomes_agree pins.
READS_A = ("struct.a_support", "a.sum", "a.via_lr", "a.via_rl", "aw.askey1", "aw.askey2",
           *(f"aw.comm_{coeff}_a" for coeff in ("y", "p", "omega", "g", "gstar")))


def test_every_stratum_has_a_representative_row(ops_cache):
    ops = ops_cache(2, 3, 2)
    geom = ops.geometry
    for i, j in geom.strata:
        inputs = _replaced(geom, "A", ops["A"] + ops.estar_stratum(i, j))  # invariant
        tampered = hand_certified(geom, inputs)
        assert tampered.certificate is not None
        assert EVALUATORS["a.sum"](RowView(tampered)) is not None, (i, j)
        twin = hand_made(geom, inputs)
        for rel_id in READS_A:
            assert run_relation(tampered, rel_id) == _full(twin, rel_id), (i, j, rel_id)


def test_operand_on_either_side_of_a_view_expression_raises_type_error(ops_cache,
                                                                       monkeypatch):
    ops = ops_cache(2, 3, 2)
    reps = ops.certificate.reps
    p = next(p for p in range(ops.dim) if p not in reps)
    spike = SparseOperator(ops.dim, {p: {p: 1}})
    other_view = RowView(ops)
    operands = {
        "right": lambda o: o.identity() @ spike,
        "left": lambda o: spike @ o.identity(),
        "a zero to add to": lambda o: SparseOperator(o.dim) + o.estar_level(0),
        "another view's expression": lambda o: o.identity() - other_view.identity(),
    }
    for where, build in operands.items():
        seen = []

        def evaluate(o):
            seen.append(_seen(o))
            return None if build(o).is_zero() else "nonzero"

        monkeypatch.setitem(EVALUATORS, "a.sum", evaluate)
        with pytest.raises(TypeError):
            run_relation(ops, "a.sum")
        assert seen == ["reduced"], where


def test_any_weight_diagonal_reads_the_same_on_both_paths():
    ops = _fresh(2, 3, 2)
    assert ops.certificate is not None

    def probe(w):
        return w[0] + 1

    leaf = RowView(ops).diagonal(("probe",), probe)
    assert isinstance(leaf, symmetry._Leaf) and leaf.name is None
    assert leaf.op is ops.diagonal(("probe",), probe)
    seen = []

    def evaluate(o):
        seen.append(_seen(o))
        residual = o.diagonal(("probe",), probe) - o.identity()  # the diagonal of i
        return verify._residual_witness(residual, o)

    witness = symmetry.evaluate(ops, evaluate)
    assert witness is not None
    assert witness == evaluate(uncertified_twin(ops))
    assert seen == ["reduced", "full"]


def test_recompleted_set_does_not_trust_its_derived_operators(ops_cache, spy):
    ops = ops_cache(2, 2, 1)
    inputs = _replaced(ops.geometry, "F0", ops["F0"].with_entry_added(1, 2, 1))
    # the invariance oracle refuses the tampered F0, and a set built by hand
    # has no certificate at all: even a relation that reads no operator
    # derived from F0 runs in full
    with pytest.raises(AssertionError, match="F0 is not invariant"):
        hand_certified(ops.geometry, inputs)
    tampered = hand_made(ops.geometry, inputs)
    assert tampered.certificate is None
    calls = spy("gen.k1l1")
    assert run_relation(tampered, "gen.k1l1").passed
    assert calls == ["full"]
    assert ops.certificate is not None


def test_unsupported_query_raises_attribute_error(ops_cache, monkeypatch):
    ops = ops_cache(2, 2, 1)
    seen = []

    def evaluate(o):
        seen.append(_seen(o))
        return None if o["A"].nnz() else "A is empty"

    monkeypatch.setitem(EVALUATORS, "a.sum", evaluate)
    with pytest.raises(AttributeError, match="nnz"):
        run_relation(ops, "a.sum")
    assert seen == ["reduced"]


def test_only_a_family_has_a_transpose_on_the_row_view(ops_cache):
    assert TRANSPOSES == {"L1": "R1", "R1": "L1", "L2": "R2", "R2": "L2", "L": "R", "R": "L",
                          **{name: name for name in ("F0", "Fplus", "Fminus", "F", "A")}}
    assert set(TRANSPOSES) == set(FAMILIES)
    ops = ops_cache(2, 3, 2)
    view = RowView(ops)
    for name, transposed in TRANSPOSES.items():
        assert view[name].transpose().op is ops[transposed]
    for leaf in (view["Omega0"], view["Astar"], view.identity(), view.estar_level(1),
                 view.estar_stratum(1, 1), view["L1"] @ view["R1"]):
        with pytest.raises(AttributeError):
            leaf.transpose()


def _bad_generator(h, k):
    """A transvection e_(h+1) -> e_(h+1) + e_1, which moves y."""
    n = h + k
    g = [[int(r == c) for c in range(n)] for r in range(n)]
    g[h][0] = 1
    return g


# generator sets whose orbits are not the strata, so check (b) fails
BROKEN_GENERATORS = pytest.mark.parametrize("generators", [
    lambda h, k: standard_generators(h, k) + [_bad_generator(h, k)],
    lambda h, k: standard_generators(h, k)[:-1],  # no bridge transvection
], ids=["moves-y", "no-bridge"])


@BROKEN_GENERATORS
def test_broken_certificate_changes_no_verdict(monkeypatch, spy, generators):
    q, h, k = 3, 2, 1
    want_clean = run_geometry_suite(_fresh(q, h, k)).outcomes
    want_tampered = run_geometry_suite(_perturb(_fresh(q, h, k))).outcomes
    monkeypatch.setattr(symmetry, "standard_generators", generators)
    ops = _fresh(q, h, k)
    assert generator_permutations(ops.geometry) is not None
    assert ops.certificate is None
    calls = spy("aw.askey1")
    assert run_geometry_suite(ops).outcomes == want_clean
    assert calls == ["full"]
    tampered = _perturb(_fresh(q, h, k))
    assert run_geometry_suite(tampered).outcomes == want_tampered


def test_singular_generator_voids_the_certificate(monkeypatch):
    monkeypatch.setattr(symmetry, "standard_generators",
                        lambda h, k: [[[0] * (h + k) for _ in range(h + k)]])
    ops = _fresh(2, 2, 1)
    assert generator_permutations(ops.geometry) is None
    assert ops.certificate is None
    assert run_geometry_suite(ops).passed


def test_generator_counts():
    # a block cycle, a block transvection and the bridge, for every (h, k)
    # and, as the matrices do not depend on q, every q
    for h, k in ((4, 2), (2, 1), (3, 2), (5, 1), (3, 1), (4, 3)):
        assert len(standard_generators(h, k)) == 3


@pytest.mark.parametrize("q,h,k,y_rows", TESTED_YS)
def test_three_generators_certify_every_tested_configuration(q, h, k, y_rows):
    # a set whose orbits are not the strata fails check (b), and every
    # relation then runs in full with the same verdict, so no verdict
    # test would notice
    cert = _fresh(q, h, k, y_rows).certificate
    assert cert is not None
    assert len(cert.perms) == 3


def test_generators_fix_y_and_preserve_strata(geometry_cache):
    geom = geometry_cache(3, 3, 1)
    for perm in generator_permutations(geom):
        assert sorted(perm) == list(range(geom.size))
        assert all(geom.ij[perm[p]] == geom.ij[p] for p in range(geom.size))


def test_module_mode_is_untouched(spy):
    from pgaw.modules import ModuleType, build_abstract_module
    module = build_abstract_module(ModuleType(0, 1, 0, h=3, k=2), QuadRing(3))
    calls = spy("aw.askey1")
    assert run_relation(module.ops, "aw.askey1").passed
    assert calls == ["full"]
    assert module.ops.certificate is None


def _permutes_by_entries(op, perm) -> bool:
    """The statement of check (c) on every position, as an oracle."""
    return all(op.entry(perm[r], perm[c]) == op.entry(r, c)
               for r in range(op.dim) for c in range(op.dim))


def test_permutes_is_false_at_any_mismatch():
    """Check (c) on each part: a changed value under an unchanged support, an
    extra entry in an image row, a missing image row and a difference in
    the sqrt(q) part alone each make it fail."""
    root = QuadRing(2).sqrt_q
    perm = [1, 0, 2]  # swaps positions 0 and 1
    rows = {0: {0: 5, 2: 1}, 1: {1: 5, 2: 1}, 2: {0: 3, 1: 3}}
    cases = {
        "invariant": (rows, True),
        "value": ({**rows, 1: {1: 5, 2: 2}}, False),
        "extra entry": ({**rows, 1: {0: 7, 1: 5, 2: 1}}, False),
        "missing image row": ({0: rows[0], 2: rows[2]}, False),
        "sqrt(q) part alone": ({**rows, 0: {0: 5 + root, 2: 1}, 1: {1: 5 + 2 * root, 2: 1}},
                               False),
        "invariant sqrt(q) part": ({**rows, 0: {0: 5 + root, 2: 1}, 1: {1: 5 + root, 2: 1}},
                                   True),
    }
    for name, (entries, want) in cases.items():
        op = SparseOperator(3, entries)
        assert permutes(op, perm) is want, name
        assert _permutes_by_entries(op, perm) is want, name
    assert SparseOperator(3, cases["sqrt(q) part alone"][0]).m0 == \
        SparseOperator(3, rows).m0


def test_permutes_agrees_with_the_entrywise_statement():
    rng = random.Random(3)
    for _ in range(300):
        dim = rng.randint(1, 4)
        perm = rng.sample(range(dim), dim)
        entries = {}
        for r in range(dim):
            for c in range(dim):
                if rng.randrange(3):
                    v = rng.choice((1, 2, QuadRing(3).sqrt_q))
                    entries.setdefault(r, {})[c] = v
                    entries.setdefault(perm[r], {})[perm[c]] = \
                        v if rng.randrange(4) else rng.choice((0, 1, 3))
        op = SparseOperator(dim, entries)
        assert permutes(op, perm) == _permutes_by_entries(op, perm)


# -- the certificate from the lattice -------------------------------------------

def _list_check(geom, perms) -> bool:
    return symmetry._covers_invert(geom) and _invariant_lists(geom, perms)


def _invariant_lists(geom, perms) -> bool:
    return all(symmetry._preserves_lattice(geom, perm) for perm in perms)


def _matrix_check(inputs, perms) -> bool:
    return all(permutes(op, perm) for op in inputs.values() for perm in perms)


@pytest.mark.parametrize("q,h,k,y_rows", TESTED_YS + ((5, 2, 1, ((1, 2, 3),)),))
def test_join_permutations_equal_the_vector_mask_oracle(q, h, k, y_rows):
    geom = _geometry(q, h, k, y_rows)
    perms = generator_permutations(geom)
    assert perms == vector_mask_permutations(geom)
    # on the true set the list check and the matrix check both pass
    assert _list_check(geom, perms) and _matrix_check(builder_inputs(geom), perms)


def _tampered(geom, name, at, value):
    """A copy of geom whose sequence ``name`` holds value at position at."""
    out = copy.copy(geom)
    seq = list(getattr(geom, name))
    seq[at] = value
    setattr(out, name, tuple(seq))
    return out


def _changes_an_input(true: dict, tampered) -> bool:
    built = builder_inputs(tampered)
    return any(built[name] != op for name, op in true.items())


@pytest.mark.parametrize("name", COVER_LISTS)
def test_dropped_cover_entry_fails_both_checks(name):
    geom = _geometry(2, 3, 2)
    true = builder_inputs(geom)
    perms = vector_mask_permutations(geom)
    lists = getattr(geom, name)
    # the last entry of the first list, at a non-singleton orbit, whose loss
    # changes an input the builder makes
    tampered = next(
        t for u, mine in enumerate(lists)
        if mine and len(geom.stratum(*geom.ij[u])) > 1
        for t in [_tampered(geom, name, u, mine[:-1])] if _changes_an_input(true, t))
    ops = build_geometry_operators(tampered, QuadRing(2))
    assert not _list_check(tampered, perms)
    assert not _matrix_check(ops.ops, perms)
    assert ops.certificate is None


def test_swapped_meet_fails_both_checks():
    geom = _geometry(2, 3, 2)
    true = builder_inputs(geom)
    perms = vector_mask_permutations(geom)
    meet_y = geom.meet_y
    # the first two elements of one stratum whose meets differ and whose
    # swapped meets change an input the builder makes
    tampered = next(
        t for members in geom.strata.values() for a in members for b in members
        if meet_y[a] != meet_y[b]
        for t in [_tampered(_tampered(geom, "meet_y", a, meet_y[b]), "meet_y", b, meet_y[a])]
        if _changes_an_input(true, t))
    ops = build_geometry_operators(tampered, QuadRing(2))
    assert not _list_check(tampered, perms)
    assert not _matrix_check(ops.ops, perms)
    assert ops.certificate is None


def test_generator_that_moves_y_fails_both_checks(monkeypatch):
    geom = _geometry(3, 2, 1)
    monkeypatch.setattr(symmetry, "standard_generators", lambda h, k: [_bad_generator(h, k)])
    perms = generator_permutations(geom)
    assert perms == vector_mask_permutations(geom)
    assert not _list_check(geom, perms)
    assert not _matrix_check(builder_inputs(geom), perms)


@pytest.mark.parametrize("common", [0, 2])
def test_join_without_one_common_cover_gives_none(common):
    geom = _geometry(2, 3, 2)
    identity = symmetry._identity(geom.n)
    assert symmetry._join_permutation(geom, identity) == list(range(geom.size))
    v = geom.by_level[2][0]
    u1, u2 = (geom.slash_covers_of[v] + geom.backslash_covers_of[v])[:2]
    name = "slash_covered_by" if v in geom.slash_covered_by[u1] else "backslash_covered_by"
    above = getattr(geom, name)[u1]
    if common == 0:
        value = tuple(w for w in above if w != v)
    else:  # another upper cover of u2, which does not contain u1
        other = next(w for w in geom.slash_covered_by[u2] + geom.backslash_covered_by[u2]
                     if w != v)
        value = tuple(sorted(above + (other,)))
    assert symmetry._join_permutation(_tampered(geom, name, u1, value), identity) is None


def _rl_transpose_in_full(geom):
    ops = build_geometry_operators(geom, QuadRing(geom.q))
    assert ops.certificate is None
    return run_relation(ops, "a.rl_transpose")


def test_cover_lists_that_do_not_invert_get_no_certificate(monkeypatch):
    geom = _geometry(2, 3, 2)
    assert symmetry._covers_invert(geom)
    # one slash upper cover dropped
    u = next(u for u, above in enumerate(geom.slash_covered_by) if above)
    shortened = _tampered(geom, "slash_covered_by", u, geom.slash_covered_by[u][:-1])
    assert not symmetry._covers_invert(shortened)
    assert lattice_certificate(shortened) is None
    assert not _rl_transpose_in_full(shortened).passed
    # the slash and backslash upper cover lists swapped: checks (a), (b) and
    # the invariance of (c) still hold, and only the inversion fails
    swapped = copy.copy(geom)
    swapped.slash_covered_by = geom.backslash_covered_by
    swapped.backslash_covered_by = geom.slash_covered_by
    perms = generator_permutations(swapped)
    assert perms is not None and symmetry._orbit_forest(perms, swapped) is not None
    assert _invariant_lists(swapped, perms)
    assert not symmetry._covers_invert(swapped)
    assert lattice_certificate(swapped) is None
    assert not _rl_transpose_in_full(swapped).passed
    # without the inversion, the row view would read R for L's transpose and pass
    monkeypatch.setattr(symmetry, "_covers_invert", lambda geom: True)
    ops = build_geometry_operators(swapped, QuadRing(2))
    assert ops.certificate is not None and run_relation(ops, "a.rl_transpose").passed


def test_lattice_certificate_needs_no_operator(geometry_cache, ops_cache):
    geom = geometry_cache(2, 4, 2)
    cert = lattice_certificate(geom)
    assert len(cert.perms) == 3 and len(cert.reps) == len(geom.strata) == 15
    ops = ops_cache(2, 3, 2)
    assert lattice_certificate(ops.geometry) == ops.certificate


# -- operators derived from the representative rows ------------------------------

def _parts(op):
    return op.d, op.m0, op.m1, op.q


def _derived(ops):
    """Every DERIVED operator of a fresh set, which holds its inputs alone."""
    inputs = set(ops.ops)
    return {name: ops[name] for name in DERIVED if name not in inputs}


@pytest.fixture
def derivations(monkeypatch):
    """Records (name, "reduced" or "full") for every DERIVED definition run."""
    seen = []
    for name, definition in list(DERIVED.items()):
        def spied(o, name=name, definition=definition):
            seen.append((name, _seen(o)))
            return definition(o)
        monkeypatch.setitem(DERIVED, name, spied)
    return seen


@pytest.mark.parametrize("q,h,k,y_rows", TESTED_YS + ((5, 2, 1, None),))
def test_derived_operators_equal_the_full_derivation(derivations, q, h, k, y_rows):
    ops = _fresh(q, h, k, y_rows)
    assert ops.certificate is not None
    twin = uncertified_twin(ops)
    derived = _derived(ops)
    for name, op in derived.items():
        assert _parts(op) == _parts(twin[name]), name
    # each definition ran once per set: on the certified set's representative
    # rows, and on the twin in full
    assert sorted(derivations) == sorted([(name, "reduced") for name in derived]
                                         + [(name, "full") for name in derived])


@pytest.mark.parametrize("q,h,k,y_rows", TESTED_YS)
def test_forest_moves_each_other_position_from_one_reached_before_it(q, h, k, y_rows):
    geom = _geometry(q, h, k, y_rows)
    cert = lattice_certificate(geom)
    reps = set(cert.reps)
    rep_of = {geom.ij[p]: p for p in reps}
    for u in set(range(geom.size)) - reps:
        assert cert.perms[cert.gens[u]][cert.preds[u]] == u
        # the predecessors lead back to the representative of u's stratum
        p, steps = u, 0
        while p not in reps and steps < geom.size:
            p, steps = cert.preds[p], steps + 1
        assert p == rep_of[geom.ij[u]], u


@BROKEN_GENERATORS
def test_set_that_fails_check_b_derives_in_full(monkeypatch, derivations, generators):
    q, h, k = 3, 2, 1
    want = {name: _parts(op) for name, op in _derived(_fresh(q, h, k)).items()}
    monkeypatch.setattr(symmetry, "standard_generators", generators)
    ops = _fresh(q, h, k)
    perms = generator_permutations(ops.geometry)
    assert perms is not None and symmetry._orbit_forest(perms, ops.geometry) is None
    assert ops.certificate is None
    del derivations[:]
    assert {name: _parts(op) for name, op in _derived(ops).items()} == want
    assert derivations and {seen for _, seen in derivations} == {"full"}


# -- rows on demand ------------------------------------------------------------------

NAMES = ("K1", "K1i", "K2", "K2i", "L1", "L2", "R1", "R2", "F0", "Fplus", "Fminus", "F",
         "R", "L", "A", *(name for name in DERIVED if name not in
                          ("F0", "Fplus", "Fminus", "F", "R", "L", "A")))


def _row(op, u):
    """Row u of op as the product e_u @ op reads it: its denominator and
    its two parts' rows, in lowest terms."""
    rows = _stored_operator(op.dim, 1, {u: {u: 1}}, {}, None) @ op
    return rows.d, rows.m0.get(u), rows.m1.get(u)


@pytest.mark.parametrize("q,h,k,y_rows", TESTED_YS + ((5, 2, 1, None),))
def test_rows_on_demand_equal_the_batch_oracle(q, h, k, y_rows):
    ops = _fresh(q, h, k, y_rows)
    want = oracle_operators(ops.geometry)
    assert len(NAMES) == len(set(NAMES)) == len(want) == 24 and set(NAMES) == set(want)
    # the transposed family of each family, row by row, is the transpose of
    # the family's batch build
    for name, transposed in TRANSPOSES.items():
        ref = want[name].transpose()
        for u in range(ops.dim):
            assert _row(ops[transposed], u) == _row(ref, u), (name, u)
    for name in NAMES:
        op, ref = ops[name], want[name]
        assert isinstance(op, LazyOperator), name
        assert (op.d, op.q) == (ref.d, ref.q), name  # known before any row is read
        # row by row, last position first, so a derived row walks the forest
        for u in reversed(range(ops.dim)):
            assert _row(op, u) == _row(ref, u), (name, u)
        assert _parts(op) == _parts(ref), name  # then in full
        assert _row(op, 0) == _row(ref, 0), name


@pytest.mark.parametrize("q,h,k,y_rows", TESTED_YS[:5] + ((5, 2, 1, None),))
def test_lazy_nnz_equals_the_materialised_nnz(q, h, k, y_rows):
    ops = _fresh(q, h, k, y_rows)
    reps = set(ops.certificate.reps)
    for name in NAMES:
        op = ops[name]
        lazy = op.nnz()
        # only the representative rows were read, and not every row if
        # some orbit has two positions
        assert set(op.rows_produced()) == reps, name
        assert len(op.rows_produced()) < ops.dim
        assert op.is_zero() == (lazy == 0)
        op.m0  # produces every row
        assert len(op.rows_produced()) == ops.dim
        assert op.nnz() == SparseOperator.nnz(op) == lazy, name
    for estar in (ops.identity(), ops.estar_level(1), ops.estar_stratum(1, 1)):
        lazy = estar.nnz()
        assert lazy == SparseOperator.nnz(SparseOperator(ops.dim, estar.m0))


def test_lazy_nnz_counts_the_positions_of_both_parts():
    # an invariant operator whose sqrt(q) part sits off the rational part's
    # positions: L1's ones, plus sqrt(q) on the diagonal
    ops = _fresh(3, 2, 1)
    l1 = ops["L1"]
    both = LazyOperator(ops.dim, 1, 3, lambda u: (_row(l1, u)[1], {u: 1}), owner=ops)
    assert both.nnz() == l1.nnz() + ops.dim
    assert both.nnz() == SparseOperator.nnz(SparseOperator(ops.dim, {
        u: {**dict.fromkeys(row, 1), u: ops.ring.sqrt_q} for u, row in enumerate(
            ops.geometry.slash_covered_by)}))


def test_reduced_path_builds_no_full_operator():
    ops = _fresh(2, 3, 2)
    report = run_geometry_suite(ops, ["counts", "structure", "generators"])
    assert report.passed
    ops.identity()
    held = [*ops.ops.values(), *ops._diagonals.values()]
    assert set(ops.ops) >= {"Omega0", "Omega1", "Omega2"} and len(held) > 24
    for op in held:
        assert isinstance(op, LazyOperator)
        assert len(op.rows_produced()) < ops.dim, op
    assert set(ops["A"].rows_produced()) == set(ops.certificate.reps)
    # every suite, a.rl_transpose included.  At (2,3,2) A^2 reaches every
    # position from the representatives, so A* is read at every row there;
    # (2,4,2) is the smallest default lattice where no product reaches all.
    ops = _fresh(2, 4, 2)
    assert run_geometry_suite(ops).passed
    ops.identity()
    for op in [*ops.ops.values(), *ops._diagonals.values()]:
        assert isinstance(op, LazyOperator) and len(op.rows_produced()) < ops.dim, op
    # L's transpose is read from R's representative rows
    assert set(ops["L"].rows_produced()) == set(ops.certificate.reps)


def test_a_product_reads_a_lazy_right_operand_only_at_the_rows_it_reaches():
    ops = _fresh(2, 3, 2)
    twin = uncertified_twin(ops)
    rows = _stored_operator(ops.dim, 1, {5: {3: 1, 40: 2}}, {}, None)
    assert rows @ ops["A"] == rows @ twin["A"]
    assert set(ops["A"].rows_produced()) == {3, 40}
    # a lazy operator times itself, before any of its rows is read: E*_l on
    # a module, and a clone's A*, read from its certified parent
    module = build_abstract_module(ModuleType(0, 0, 0, h=2, k=1), QuadRing(2)).ops
    for level in range(4):
        estar = module.estar_level(level)
        plain = SparseOperator.diagonal([int(i + j == level) for i, j in module.ij])
        assert not estar.rows_produced()
        assert estar @ estar == plain @ plain
    astar = ops.perturbed("A", 0, 1, 1)["Astar"]
    assert len(astar.rows_produced()) < ops.dim
    assert astar @ astar == twin["Astar"] @ twin["Astar"]


def test_perturbed_clone_and_decompose_on_a_lazy_set():
    ops = _fresh(2, 3, 2)
    twin = uncertified_twin(ops)
    for name, r, c in PERTURBATIONS:
        clone, twin_clone = ops.perturbed(name, r, c, 1), twin.perturbed(name, r, c, 1)
        got = run_geometry_suite(clone).outcomes
        assert got == [_full(twin_clone, rel.id) for rel in relations_for("geometry")]
        assert any(not o.passed for o in got)
    fresh = _fresh(2, 3, 2)
    mults = compute_multiplicities(fresh.geometry, fresh)
    assert mults == compute_multiplicities(twin.geometry, twin)
    # the corners' rows of the Omegas, and no full operator
    for name, op in fresh.ops.items():
        assert len(op.rows_produced()) < fresh.dim, name
