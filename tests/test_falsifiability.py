"""Every data row of the registry can fail.

For each row of the relation tables, some single-entry perturbation (+1) of
an operand the row names must make that row fail.  Entries are searched in
row-major order, operand by operand, in geometry mode at (2,2,1) and on a
numeric module.  A count row names a cover list instead; dropping one entry
of it must make the row fail, and dropping one element of a level, or
repeating one in the enumeration, must make ``counts.level_sizes`` fail.
The hand-written relations ``gen.mixed_balance`` and ``module.k_eigen`` must fail under a perturbation
of each operator they name, and the ``struct.estar_*`` relations under a
tampered projection E*.
"""

import copy
import dataclasses

import pytest

from pgaw import geometry
from pgaw.modules import ModuleType, build_abstract_module
from pgaw.operators import GEOMETRY, MODULE, OperatorSet
from pgaw.rings import QuadRing
from pgaw.verify import (
    COUNT_ROWS,
    CUBIC_ROWS,
    IDENTITY_ROWS,
    MODULE_ROWS,
    Q_COMMUTATION_ROWS,
    SUPPORT_ROWS,
    run_relation,
    verify_counts,
)

# Rows given as a single residual expression name no operand; perturb the
# operators the relation is a polynomial in.
EXPRESSION_OPERANDS = {"aw.askey1": ("A", "Astar"), "aw.askey2": ("A", "Astar")}


def _spec_names(spec):
    if isinstance(spec, str):
        return (spec,)
    if isinstance(spec, tuple):
        return spec
    if dataclasses.is_dataclass(spec):
        return dataclasses.astuple(spec)
    return ()


def _operator_rows():
    """(id, modes, operand names) for every row whose operands are operators."""
    both = (GEOMETRY, MODULE)
    for rel_id, _, names, _ in SUPPORT_ROWS:
        yield rel_id, both, names
    for rel_id, _, x, y, *_ in Q_COMMUTATION_ROWS + CUBIC_ROWS:
        yield rel_id, both, (x, y)
    for rel_id, _, _, modes, lhs, rhs in IDENTITY_ROWS:
        names = _spec_names(lhs) + _spec_names(rhs)
        yield rel_id, modes, names or EXPRESSION_OPERANDS[rel_id]
    for rel_id, _, lhs, _ in MODULE_ROWS:
        yield rel_id, (MODULE,), _spec_names(lhs)


def _detecting_perturbation(ops, rel_id, names):
    for name in names:
        for r in range(ops.dim):
            for c in range(ops.dim):
                if not run_relation(ops.perturbed(name, r, c, 1), rel_id).passed:
                    return name, r, c
    return None


def _ops(ops_cache, mode):
    if mode == GEOMETRY:
        return ops_cache(2, 2, 1)
    return build_abstract_module(ModuleType(0, 0, 0, h=3, k=2), QuadRing(2)).ops


@pytest.mark.parametrize("mode", [GEOMETRY, MODULE])
def test_every_operator_row_is_falsifiable(ops_cache, mode):
    ops = _ops(ops_cache, mode)
    rows = [(rel_id, names) for rel_id, modes, names in _operator_rows() if mode in modes]
    assert rows
    for rel_id, _ in rows:
        assert run_relation(ops, rel_id).passed, rel_id
    undetected = [rel_id for rel_id, names in rows
                  if _detecting_perturbation(ops, rel_id, names) is None]
    assert not undetected


# Hand-written relations (not table rows) and the operators they name.
HAND_WRITTEN = (
    ("gen.mixed_balance", (GEOMETRY, MODULE), ("L1", "R1", "L2", "R2")),
    ("module.k_eigen", (MODULE,), ("K1", "K1i", "K2", "K2i")),
)


@pytest.mark.parametrize("mode", [GEOMETRY, MODULE])
def test_hand_written_relations_are_falsifiable(ops_cache, mode):
    ops = _ops(ops_cache, mode)
    for rel_id, modes, names in HAND_WRITTEN:
        if mode not in modes:
            continue
        assert run_relation(ops, rel_id).passed, rel_id
        for name in names:
            assert _detecting_perturbation(ops, rel_id, (name,)), (rel_id, name)


def test_every_count_row_is_falsifiable(geometry_cache):
    geom = geometry_cache(2, 2, 1)
    for rel_id, _, lists, _ in COUNT_ROWS:
        covers = list(getattr(geom, lists))
        p = next(p for p, cs in enumerate(covers) if cs)
        covers[p] = covers[p][1:]
        clone = copy.copy(geom)
        setattr(clone, lists, tuple(covers))
        assert verify_counts(geom).outcome(rel_id).passed
        assert not verify_counts(clone).outcome(rel_id).passed, rel_id


def test_level_sizes_is_falsifiable(geometry_cache):
    geom = geometry_cache(2, 2, 1)
    assert verify_counts(geom).outcome("counts.level_sizes").passed
    for d, members in enumerate(geom.by_level):
        by_level = list(geom.by_level)
        by_level[d] = members[1:]
        clone = copy.copy(geom)
        clone.by_level = tuple(by_level)
        assert not verify_counts(clone).outcome("counts.level_sizes").passed, d


def test_a_wrong_enumeration_fails_level_sizes_or_the_build(monkeypatch):
    # the levels are cut by the dimensions of the enumerated elements: a
    # repeated point makes level 1 one too long, and a dropped subspace
    # leaves a cover with no position
    real = geometry._enumerate_codes
    monkeypatch.setattr(geometry, "_enumerate_codes", lambda q, n: real(q, n)[:2] + real(q, n)[1:])
    outcome = verify_counts(geometry.build_geometry(2, 2, 1)).outcome("counts.level_sizes")
    assert not outcome.passed and outcome.witness == "level 1: 8 elements, expected 7"
    monkeypatch.setattr(geometry, "_enumerate_codes", lambda q, n: real(q, n)[:-1])
    with pytest.raises(KeyError):
        geometry.build_geometry(2, 2, 1)


# (relation, the projection tampered: "level" or "stratum")
ESTAR_TAMPERS = (("struct.estar_sum", "level"), ("struct.estar_orth", "level"),
                 ("struct.estar_split", "level"), ("struct.estar_split", "stratum"))


@pytest.mark.parametrize("mode", [GEOMETRY, MODULE])
@pytest.mark.parametrize("rel_id,projection", ESTAR_TAMPERS)
def test_estar_relations_are_falsifiable(ops_cache, mode, rel_id, projection):
    ops = _ops(ops_cache, mode)
    assert run_relation(ops, rel_id).passed
    # the projections are computed, not stored, so no perturbed() reaches
    # them; a set built by hand from the same operators has no certificate
    # (nor a certified root, as a clone has) and evaluates every entry in full
    tampered = OperatorSet(ops.ring, dict(ops.ops), ops.basis)
    assert tampered.root.certificate is None
    i, j = ops.ij[0]
    method = f"estar_{projection}"
    real = getattr(tampered, method)
    target = (i + j,) if projection == "level" else (i, j)

    def estar(*key):
        op = real(*key)
        return op.with_entry_added(0, 0, 1) if key == target else op

    setattr(tampered, method, estar)
    assert not run_relation(tampered, rel_id).passed
