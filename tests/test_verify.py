import pytest

from pgaw.cli import parse_args, run
from pgaw.geometry import GeometryIndex, Subspace, build_geometry
from pgaw.modules import ModuleType, build_abstract_module, enumerate_types
from pgaw.operators import GEOMETRY, MODULE, build_geometry_operators
from pgaw.rings import QuadRing, SymbolicRing
from pgaw.verify import (
    EVALUATORS,
    REGISTRY,
    SUITES,
    askey1_with_coefficient,
    k1l1_with_coefficient,
    relations_for,
    run_geometry_suite,
    run_module_suite,
    run_relation,
    verify_counts,
    verify_y_invariance,
)

# The complete inventory of verifiable identities.  Adding or removing a
# relation must be a conscious act: update this list alongside the registry.
EXPECTED_IDS = {
    # covering-degree and level-size counts
    "counts.level_sizes", "counts.slash_down", "counts.backslash_down",
    "counts.slash_up", "counts.backslash_up",
    # projections and block supports
    "struct.estar_sum", "struct.estar_orth", "struct.estar_split",
    "struct.l1_support", "struct.l2_support", "struct.r1_support",
    "struct.r2_support", "struct.r_support", "struct.l_support",
    "struct.f_support", "struct.a_support", "struct.omega_support",
    # the seventeen generator relations
    "gen.k1l1", "gen.k1l2", "gen.k1r1", "gen.k1r2",
    "gen.k2l1", "gen.k2l2", "gen.k2r1", "gen.k2r2",
    "gen.l1r2", "gen.l2r1", "gen.l1l2", "gen.r1r2",
    "gen.cubic_r1", "gen.cubic_r2", "gen.cubic_l1", "gen.cubic_l2",
    "gen.mixed_balance",
    # the F family
    "f.f0_slash", "f.f0_backslash", "f.fplus_def", "f.fminus_def", "f.fsum",
    "f.via_lr", "f.via_rl",
    "f.back_l1r1", "f.back_r1l1", "f.back_l2r2", "f.back_r2l2",
    "f.comm_0p", "f.comm_0m", "f.comm_pm",
    # R, L, A, A*
    "a.r_prod", "a.l_prod", "a.rl_transpose", "a.sum",
    "a.via_lr", "a.via_rl", "a.astar_diag",
    # centrality and the rebuilds of the F family from the center
    *{f"center.omega{i}_{x}" for i in (0, 1, 2)
      for x in ("l1", "l2", "r1", "r2", "k1", "k2")},
    "center.f0_rebuild", "center.fplus_rebuild", "center.fminus_rebuild",
    # the generalized Askey-Wilson pair and the centrality of its coefficients
    "aw.askey1", "aw.askey2",
    *{f"aw.comm_{c}_{a}" for c in ("y", "p", "omega", "g", "gstar")
      for a in ("a", "astar")},
    # module-mode eigenvalue tables and actions
    "module.k_eigen",
    "module.double_l1r1", "module.double_r1l1",
    "module.double_l2r2", "module.double_r2l2",
    "module.f0_eigen", "module.fplus_eigen", "module.fminus_eigen",
    "module.f_eigen_sum",
    "module.omega0_scalar", "module.omega1_scalar", "module.omega2_scalar",
    "module.y_eigen", "module.p_eigen", "module.omega_eigen",
    "module.g_eigen", "module.gstar_eigen",
    "module.r_action", "module.l_action", "module.a_action",
}


def test_registry_completeness():
    ids = [r.id for r in REGISTRY]
    assert len(ids) == len(set(ids)), "duplicate relation ids"
    assert set(ids) == EXPECTED_IDS
    assert set(EVALUATORS) == EXPECTED_IDS
    # seventeen generator relations, as advertised
    assert sum(1 for r in REGISTRY if r.suite == "generators") == 17


def test_registry_modes_are_sane():
    for r in REGISTRY:
        assert r.modes and set(r.modes) <= {GEOMETRY, MODULE}
        if r.suite == "counts":
            assert r.modes == (GEOMETRY,)
        if r.suite == "module":
            assert r.modes == (MODULE,)
    geo_ids = {r.id for r in relations_for(GEOMETRY)}
    mod_ids = {r.id for r in relations_for(MODULE)}
    assert "aw.askey1" in geo_ids and "aw.askey1" in mod_ids
    assert "counts.level_sizes" not in mod_ids
    assert "module.g_eigen" not in geo_ids


def test_relations_for_rejects_unknown_suite():
    with pytest.raises(ValueError):
        relations_for(GEOMETRY, ["nonsense"])


def test_geometry_suite_passes_221_and_321(ops_cache):
    for q, h, k in [(2, 2, 1), (3, 2, 1)]:
        rep = run_geometry_suite(ops_cache(q, h, k))
        assert rep.passed, rep.failures()
        assert len(rep.outcomes) == len(relations_for(GEOMETRY))
        assert rep.context["q"] == q
        assert set(rep.timings) == {o.id for o in rep.outcomes}


def test_suite_filter(ops_cache):
    rep = run_geometry_suite(ops_cache(2, 2, 1), ["aw"])
    assert {o.id.split(".")[0] for o in rep.outcomes} == {"aw"}
    assert rep.passed


def test_module_suite_passes_symbolic_spec_example():
    t = ModuleType(0, 1, 0, h=3, k=2)
    rep = run_module_suite(build_abstract_module(t, SymbolicRing()))
    assert rep.passed, rep.failures()
    gen_ids = {o.id for o in rep.outcomes if o.id.startswith("gen.")}
    assert len(gen_ids) == 17


def test_verify_counts_standalone(geometry_cache):
    rep = verify_counts(geometry_cache(2, 3, 2))
    assert rep.passed
    assert len(rep.outcomes) == 5


def test_failure_carries_rowcol_witness(ops_cache):
    ops = ops_cache(2, 2, 1)
    tampered = ops.perturbed("A", 0, 3, 1)
    out = run_relation(tampered, "aw.askey1")
    assert out.status == "fail"
    assert "row=" in out.witness and "col=" in out.witness
    assert "residual=" in out.witness


def test_negative_control_wrong_askey_coefficient(ops_cache):
    ops = ops_cache(2, 2, 1)
    out = askey1_with_coefficient(ops, 2 + 1)
    assert out.status == "fail" and out.witness
    # and the true coefficient q + 1/q passes
    ring = ops.ring
    good = askey1_with_coefficient(ops, ring.q_power(1) + ring.q_power(-1))
    assert good.status == "pass"


def test_negative_control_wrong_k1l1_coefficient(ops_cache):
    ops = ops_cache(2, 2, 1)
    out = k1l1_with_coefficient(ops, 2 + 1)
    assert out.status == "fail" and out.witness
    assert k1l1_with_coefficient(ops, 2).status == "pass"


def test_negative_control_perturbed_entry(ops_cache):
    ops = ops_cache(2, 2, 1)
    for (r, c) in [(0, 5), (3, 3), (7, 2)]:
        tampered = ops.perturbed("A", r, c, 1)
        assert run_relation(tampered, "aw.askey1").status == "fail"


def test_y_invariance_small():
    y_list = [Subspace.span_of_basis_vectors([3], 3, 2),
              Subspace.span_of_basis_vectors([1], 3, 2)]
    rep = verify_y_invariance(2, 2, 1, y_list, suites=["generators", "aw"])
    assert rep.passed, rep.failures()
    ids = {o.id for o in rep.outcomes}
    assert "yinv.verdicts_agree" in ids and "yinv.multiplicities_agree" in ids


def _y_choices_221():
    return [Subspace.span_of_basis_vectors([3], 3, 2),
            Subspace.span_of_basis_vectors([1], 3, 2),
            Subspace([[1, 1, 0]], 3, 2)]


def _yinv_ids(report):
    return [o.id for o in report.outcomes if not o.id.startswith("yinv.suite[")]


def test_y_invariance_reports_each_disagreement_once(monkeypatch):
    import pgaw.decompose
    import pgaw.verify

    real_suite = pgaw.verify.run_geometry_suite
    real_mults = pgaw.decompose.compute_multiplicities
    calls = {"suite": 0, "mults": 0}

    def skewed_suite(ops, suites=None, relation_ids=None):
        calls["suite"] += 1
        rep = real_suite(ops, suites, relation_ids)
        if calls["suite"] > 1:
            first = rep.outcomes[0]
            rep.outcomes[0] = type(first)(first.id, "fail", "forced")
        return rep

    def skewed_mults(geom, ops):
        calls["mults"] += 1
        mults = dict(real_mults(geom, ops))
        if calls["mults"] > 1:
            t = next(iter(mults))
            mults[t] += calls["mults"]
        return mults

    monkeypatch.setattr(pgaw.verify, "run_geometry_suite", skewed_suite)
    monkeypatch.setattr(pgaw.decompose, "compute_multiplicities", skewed_mults)
    rep = verify_y_invariance(2, 2, 1, _y_choices_221(), suites=["generators"])
    assert _yinv_ids(rep) == ["yinv.verdicts_agree", "yinv.multiplicities_agree"]
    assert not rep.outcome("yinv.verdicts_agree").passed
    assert rep.outcome("yinv.verdicts_agree").witness == (
        "relation verdicts differ for y=100")
    assert not rep.outcome("yinv.multiplicities_agree").passed


def test_y_invariance_agreement_reported_when_suites_fail_alike(monkeypatch):
    import pgaw.verify

    real_suite = pgaw.verify.run_geometry_suite

    def failing_suite(ops, suites=None, relation_ids=None):
        rep = real_suite(ops, suites, relation_ids)
        first = rep.outcomes[0]
        rep.outcomes[0] = type(first)(first.id, "fail", "forced")
        return rep

    monkeypatch.setattr(pgaw.verify, "run_geometry_suite", failing_suite)
    rep = verify_y_invariance(2, 2, 1, _y_choices_221()[:2], suites=["generators"])
    assert not rep.passed
    assert _yinv_ids(rep) == ["yinv.verdicts_agree", "yinv.multiplicities_agree"]
    assert rep.outcome("yinv.verdicts_agree").passed
    assert rep.outcome("yinv.multiplicities_agree").passed


def test_module_failure_when_action_is_tampered():
    t = ModuleType(0, 0, 0, h=2, k=1)
    module = build_abstract_module(t, QuadRing(2))
    tampered = module.ops.perturbed("L1", 0, 1, 1)
    failed = [rel.id for rel in relations_for(MODULE)
              if run_relation(tampered, rel.id).status == "fail"
              and rel.id.startswith("gen.")]
    assert failed, "tampering with L1 must break at least one generator relation"


def test_suites_constant():
    assert SUITES == ("counts", "structure", "generators", "f", "rla",
                      "center", "aw", "module")


@pytest.mark.parametrize("suite,check", [
    ("generators", lambda ids: len(ids) == 17),
    ("f", lambda ids: all(i.startswith("f.") for i in ids)),
    ("center", lambda ids: len(ids) == 21),
    ("aw", lambda ids: {"aw.askey1", "aw.askey2"} <= set(ids)),
])
def test_single_suite_run(ops_cache, suite, check):
    rep = run_geometry_suite(ops_cache(2, 2, 1), [suite])
    assert rep.passed
    assert check([o.id for o in rep.outcomes])
    assert rep.context["mode"] == GEOMETRY


def test_relation_id_selection(ops_cache):
    ops = ops_cache(2, 2, 1)
    rep = run_geometry_suite(ops, relation_ids=["aw.askey2", "gen.k1l1"])
    assert [o.id for o in rep.outcomes] == ["aw.askey2", "gen.k1l1"]
    # a repeated id runs once, where it first appears
    rep = run_geometry_suite(ops, relation_ids=["gen.k1l1", "aw.askey2", "gen.k1l1"])
    assert [o.id for o in rep.outcomes] == list(rep.timings) == ["gen.k1l1", "aw.askey2"]
    with pytest.raises(ValueError):
        run_geometry_suite(ops, relation_ids=["no.such.relation"])
    with pytest.raises(ValueError):
        run_geometry_suite(ops, relation_ids=["module.g_eigen"])  # wrong mode


def test_module_suite_numeric_all_supported_q():
    # the full relation suite must hold numerically for every supported q
    for q in (2, 3, 5, 7):
        ring = QuadRing(q)
        for h in range(2, 5):
            for k in range(1, min(h, 4)):
                for t in enumerate_types(h, k):
                    rep = run_module_suite(build_abstract_module(t, ring))
                    assert rep.passed, (q, h, k, t.triple(), rep.failures())


def test_passing_runs_build_no_labels(monkeypatch):
    """Only a failure witness reads a label: a passing all-suites verify, a
    decompose and a passing module run build none."""
    def no_labels(*args):
        raise AssertionError("a passing run built a label")

    for basis in (GeometryIndex, ModuleType):
        monkeypatch.setattr(basis, "label", no_labels)
    for argv in (["verify", "--q", "2", "--h", "3", "--k", "2"],
                 ["decompose", "--q", "2", "--h", "3", "--k", "2"],
                 ["module", "--h", "4", "--k", "2", "--alpha", "0", "--beta", "1",
                  "--rho", "1", "--symbolic", "--tables"]):
        status, out = run(parse_args(argv))
        assert status == 0, out


def test_perturbed_clone_reads_its_parents_labels(monkeypatch):
    """A clone's witnesses name positions by its parent's labels, each made
    once, and only for the positions a witness names."""
    made = []
    label = GeometryIndex.label
    monkeypatch.setattr(GeometryIndex, "label",
                        lambda self, p: made.append(p) or label(self, p))
    ops = build_geometry_operators(build_geometry(2, 3, 2), QuadRing(2))
    clone = ops.perturbed("A", 60, 253, 1)
    failures = [(o.id, o.witness) for o in run_geometry_suite(clone).failures()]
    at = "row=01011/00111, col=10001/01010/00100, residual="
    assert failures[:3] == [
        ("struct.a_support", "A[01011/00111, 10001/01010/00100] = 1 maps stratum "
                             "(0, 3) outside its allowed image"),
        ("a.sum", at + "1"), ("a.via_lr", at + "1")]
    assert run_relation(clone, "aw.askey2").witness == at + "-1/2"
    assert clone.labels is ops.labels
    # the positions the failing witnesses name, of the 374, each labelled once
    assert sorted(made) == sorted(set(made)) == sorted(ops.labels) == [35, 42, 60, 253]
