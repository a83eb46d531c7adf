import json
import subprocess
import sys

import pytest

from pgaw import cli
from pgaw.cli import parse_args, run
from pgaw.decompose import compute_multiplicities
from pgaw.geometry import build_geometry
from pgaw.operators import build_geometry_operators
from pgaw.rings import QuadRing
from pgaw.verify import relations_for, run_geometry_suite

# --timings: the lattice build's total, then its parts
GEOMETRY_PHASES = ["phase.geometry_build", "phase.geometry_build.enumerate",
                   "phase.geometry_build.covers", "phase.geometry_build.meets"]

# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def test_parse_verify():
    cfg = parse_args(["verify", "--q", "2", "--h", "2", "--k", "1",
                      "--suite", "all", "--format", "json"])
    assert cfg.command == "verify"
    assert (cfg.q, cfg.h, cfg.k) == (2, 2, 1)
    assert cfg.suite == ["all"]
    assert cfg.format == "json"


def test_parse_module_symbolic():
    cfg = parse_args(["module", "--h", "3", "--k", "2", "--alpha", "0",
                      "--beta", "1", "--rho", "0", "--symbolic"])
    assert cfg.command == "module"
    assert cfg.symbolic and cfg.q is None
    assert cfg.mtype.triple() == (0, 1, 0)


def test_parse_rejects_unsupported_q():
    with pytest.raises(SystemExit) as exc:
        parse_args(["verify", "--q", "4", "--h", "2", "--k", "1"])
    assert exc.value.code == 2


def test_parse_rejects_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        parse_args(["verify", "--q", "2", "--h", "2", "--k", "1", "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,message", [
    (["verify", "--q", "2", "--h", "2", "--k", "1", "--y", "0,1"],
     "--y rows must have length h+k=3"),
    (["verify", "--q", "2", "--h", "2", "--k", "1", "--y", "0,0,1;0,1,0"],
     "--y must span a subspace of dimension k=1, got dimension 2"),
    (["enumerate", "--q", "2", "--h", "3", "--k", "2", "--y", "0,0,0,0,1;0,0,0,0,1"],
     "--y must span a subspace of dimension k=2, got dimension 1"),
    (["verify", "--q", "2", "--h", "2", "--k", "1", "--y", "0,x,1"],
     "cannot parse --y value"),
    (["verify", "--q", "2", "--h", "2", "--k", "1", "--max-elements", "0"],
     "--max-elements must be at least 1, got 0"),
    (["enumerate", "--q", "2", "--h", "2", "--k", "1", "--max-elements", "-5"],
     "--max-elements must be at least 1, got -5"),
    (["convert", "--h", "3", "--k", "2", "--alpha", "0", "--beta", "0", "--rho", "9"],
     "invalid module type: rho=9 outside [0, k]"),
    (["enumerate", "--q", "2", "--h", "2", "--k", "1", "--y", "0,0,3"],
     "--y entry 3 is outside 0..1 for q=2"),
    (["verify", "--q", "3", "--h", "2", "--k", "1", "--y", "0,5,7"],
     "--y entry 5 is outside 0..2 for q=3"),
    (["verify", "--q", "2", "--h", "2", "--k", "1", "--y", "0,-1,1"],
     "--y entry -1 is outside 0..1 for q=2"),
    (["verify", "--q", "2", "--h", "2", "--k", "1", "--suite", "aw", "--relation", "gen.k1l1"],
     "argument --relation: not allowed with argument --suite"),
    (["module", "--h", "2", "--k", "1", "--alpha", "0", "--beta", "0", "--rho", "0",
      "--q", "2", "--relation", "module.k_eigen", "--suite", "module"],
     "argument --suite: not allowed with argument --relation"),
    # an empty --y is no subspace, not the default y
    (["verify", "--q", "2", "--h", "2", "--k", "1", "--y", ""],
     "cannot parse --y value ''"),
    # "all" would absorb the other suite, while the context names both
    (["verify", "--q", "2", "--h", "2", "--k", "1", "--suite", "all", "--suite", "counts"],
     "--suite all cannot be combined with another suite"),
    (["module", "--h", "2", "--k", "1", "--alpha", "0", "--beta", "0", "--rho", "0",
      "--symbolic", "--suite", "module", "--suite", "all"],
     "--suite all cannot be combined with another suite"),
])
def test_parse_usage_errors_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_repeated_suite_all_is_all():
    ns = parse_args(["verify", "--q", "2", "--h", "2", "--k", "1",
                     "--suite", "all", "--suite", "all"])
    assert relations_for("geometry", ns.suite) == relations_for("geometry")


@pytest.mark.parametrize("argv", [
    ["convert", "--h", "2", "--k", "1", "--alpha", "0", "--beta", "0", "--rho", "0",
     "--max-elements", "100"],
    ["convert", "--h", "2", "--k", "1", "--alpha", "0", "--beta", "0", "--rho", "0",
     "--timings"],
    ["enumerate", "--q", "2", "--h", "2", "--k", "1", "--timings"],
    ["module", "--h", "2", "--k", "1", "--alpha", "0", "--beta", "0", "--rho", "0",
     "--symbolic", "--max-elements", "100"],
])
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_parse_rejects_bad_geometry():
    with pytest.raises(SystemExit):
        parse_args(["verify", "--q", "2", "--h", "1", "--k", "1"])
    with pytest.raises(SystemExit):
        parse_args(["verify", "--q", "2", "--h", "2", "--k", "0"])


def test_parse_rejects_invalid_type():
    with pytest.raises(SystemExit):
        parse_args(["module", "--h", "2", "--k", "1", "--alpha", "1",
                    "--beta", "0", "--rho", "0", "--q", "2"])


def test_parse_module_requires_ring_choice():
    with pytest.raises(SystemExit):
        parse_args(["module", "--h", "3", "--k", "2", "--alpha", "0",
                    "--beta", "0", "--rho", "0"])


def test_parse_geometry_commands_require_numeric_q():
    with pytest.raises(SystemExit):
        parse_args(["verify", "--h", "2", "--k", "1"])


# ---------------------------------------------------------------------------
# command execution
# ---------------------------------------------------------------------------

def test_run_verify_all_passes():
    cfg = parse_args(["verify", "--q", "2", "--h", "2", "--k", "1"])
    status, text = run(cfg)
    assert status == 0
    assert "aw.askey1: pass" in text
    assert "fail" not in text.replace("0 fail", "")


def test_run_verify_json_schema_and_determinism():
    cfg = parse_args(["verify", "--q", "2", "--h", "2", "--k", "1",
                      "--suite", "aw", "--format", "json"])
    status1, out1 = run(cfg)
    status2, out2 = run(cfg)
    assert status1 == status2 == 0
    assert out1 == out2, "reports must be byte-identical for identical inputs"
    payload = json.loads(out1)
    assert payload["context"]["q"] == 2
    assert payload["context"]["mode"] == "geometry"
    assert {r["id"] for r in payload["relations"]} >= {"aw.askey1", "aw.askey2"}
    assert all(r["status"] == "pass" for r in payload["relations"])
    assert payload["summary"]["failed"] == 0
    assert "timings" not in payload


def test_run_verify_with_timings_flag():
    argv = ["verify", "--q", "2", "--h", "2", "--k", "1",
            "--suite", "counts", "--suite", "aw", "--format", "json"]
    _, plain = run(parse_args(argv))
    _, out = run(parse_args(argv + ["--timings"]))
    payload = json.loads(out)
    timings = payload.pop("timings")
    assert list(timings)[:6] == GEOMETRY_PHASES + ["phase.operators_build", "phase.symmetry"]
    parts = sum(timings[key] for key in GEOMETRY_PHASES[1:])
    # the parts are timed inside the total; each value is rounded to 1e-6 s
    assert 0 < parts < timings["phase.geometry_build"] + 1e-5
    assert "counts.slash_down" in timings and "aw.askey1" in timings
    # the aw suite holds every operator, and reads each at some of the 16
    # positions or none
    operators = payload.pop("operators")
    assert len(operators) == 24
    assert all(set(size) == {"nnz", "rows"} and 0 <= size["rows"] <= 16
               for size in operators.values())
    assert operators["A"] == {"nnz": 84, "rows": 16} and operators["L1"]["rows"] == 0
    assert json.dumps(payload, indent=2) + "\n" == plain


def test_verify_counts_suite_builds_no_operators(monkeypatch):
    argv = ["verify", "--q", "2", "--h", "3", "--k", "2"]
    ids = [rel.id for rel in relations_for("geometry", ["counts"])]
    # the same relations on a full operator set, as every other suite runs
    full = run_geometry_suite(
        build_geometry_operators(build_geometry(2, 3, 2), QuadRing(2)), ["counts"])
    want = {o.id: {"id": o.id, "status": o.status} for o in full.outcomes}

    def no_operators(*args):
        raise AssertionError("a counts-only run built the operators")

    monkeypatch.setattr(cli, "build_geometry_operators", no_operators)
    # a selection of counts relations alone, by suite or by id, builds none
    for selection, suites, rel_ids in (
            (["--suite", "counts"], ["counts"], ids),
            (["--relation", "counts.slash_down"], ["all"], ["counts.slash_down"]),
            ([a for rid in ids[::-1] for a in ("--relation", rid)], ["all"], ids[::-1])):
        status, out = run(parse_args(argv + selection + ["--format", "json"]))
        payload = json.loads(out)
        assert status == 0
        assert payload["context"] == {"command": "verify", **full.context, "suites": suites}
        assert payload["relations"] == [want[rid] for rid in rel_ids]
    assert run(parse_args(argv + ["--suite", "counts", "--suite", "counts"]))[0] == 0
    _, out = run(parse_args(argv + ["--suite", "counts", "--timings", "--format", "json"]))
    timings = json.loads(out)["timings"]
    assert [key for key in timings if key.startswith("phase.")] == GEOMETRY_PHASES
    assert list(timings)[4:] == ids
    assert json.loads(out)["operators"] == {}


def test_run_decompose_timings_phases():
    argv = ["decompose", "--q", "2", "--h", "2", "--k", "1", "--format", "json"]
    _, plain = run(parse_args(argv))
    assert "timings" not in json.loads(plain)
    _, out = run(parse_args(argv + ["--timings"]))
    payload = json.loads(out)
    assert list(payload.pop("timings")) == GEOMETRY_PHASES + [
        "phase.operators_build", "phase.symmetry", "phase.multiplicities",
        "phase.bookkeeping"]
    payload.pop("operators")
    assert json.dumps(payload, indent=2) + "\n" == plain


def test_decompose_timings_list_the_operators_it_built():
    argv = ["decompose", "--q", "2", "--h", "3", "--k", "2", "--timings"]
    ops = build_geometry_operators(build_geometry(2, 3, 2), QuadRing(2))
    compute_multiplicities(ops.geometry, ops)
    # the rows each operator produced for the multiplicities, then its nnz
    rows = {name: len(op.rows_produced()) for name, op in ops.ops.items()}
    assert all(n < ops.dim for n in rows.values()) and rows["A"] == 0
    want = {name: {"nnz": ops[name].nnz(), "rows": rows[name]} for name in sorted(
        ["K1", "K1i", "K2", "K2i", "L1", "L2", "R1", "R2", "F0", "Fplus", "Fminus",
         "F", "R", "L", "A", "Omega0", "Omega1", "Omega2"])}
    _, out = run(parse_args(argv + ["--format", "json"]))
    assert json.loads(out)["operators"] == want
    _, text = run(parse_args(argv))
    _, plain = run(parse_args(argv[:-1]))
    lines = text.splitlines()
    assert lines[-1] == "operators: " + json.dumps(want)
    assert lines[-2].startswith("timings: ")
    assert "\n".join(lines[:-2]) + "\n" == plain


def test_run_verify_with_y_override():
    cfg = parse_args(["verify", "--q", "2", "--h", "2", "--k", "1",
                      "--suite", "generators", "--y", "1,0,0"])
    status, text = run(cfg)
    assert status == 0
    assert "y=100" in text


def test_run_enumerate():
    cfg = parse_args(["enumerate", "--q", "2", "--h", "2", "--k", "1",
                      "--format", "json"])
    status, out = run(cfg)
    assert status == 0
    payload = json.loads(out)
    assert payload["context"]["size"] == 16
    assert payload["strata"]["0,1"]["size"] == 6


def test_run_module_numeric_and_tables():
    cfg = parse_args(["module", "--h", "2", "--k", "1", "--alpha", "0",
                      "--beta", "0", "--rho", "0", "--q", "2",
                      "--tables", "--format", "json"])
    status, out = run(cfg)
    assert status == 0
    payload = json.loads(out)
    assert payload["context"]["type"] == [0, 0, 0]
    assert payload["tables"]["0,0"]["Omega0"] == "1"
    assert payload["summary"]["failed"] == 0


def test_run_module_symbolic():
    cfg = parse_args(["module", "--h", "3", "--k", "2", "--alpha", "0",
                      "--beta", "1", "--rho", "0", "--symbolic",
                      "--suite", "generators"])
    status, text = run(cfg)
    assert status == 0
    assert "q=symbolic" in text


def test_run_decompose_matches_oracle():
    cfg = parse_args(["decompose", "--q", "2", "--h", "2", "--k", "1",
                      "--format", "json"])
    status, out = run(cfg)
    assert status == 0
    payload = json.loads(out)
    assert payload["dimension_identity"] == "16 = 16"
    assert payload["multiplicities"] == [
        {"alpha": 0, "beta": 0, "rho": 0, "dim": 6, "multiplicity": 1},
        {"alpha": 0, "beta": 1, "rho": 0, "dim": 2, "multiplicity": 2},
        {"alpha": 0, "beta": 0, "rho": 1, "dim": 2, "multiplicity": 3},
    ]


def test_run_convert_spec_example():
    cfg = parse_args(["convert", "--h", "2", "--k", "1", "--alpha", "0",
                      "--beta", "1", "--rho", "0", "--format", "json"])
    status, out = run(cfg)
    assert status == 0
    conv = json.loads(out)["conversion"]
    assert conv == {"nu": 1, "mu": 1, "d": 0, "case": "C2", "e": -1,
                    "round_trip": "ok"}


def test_capacity_cap():
    cfg = parse_args(["verify", "--q", "2", "--h", "3", "--k", "2",
                      "--max-elements", "100"])
    status, text = run(cfg)
    assert status == 1
    assert "capacity error" in text and "374" in text


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv,error", [
    (["verify", "--q", "2", "--h", "5", "--k", "2"],
     "capacity error: lattice has 29212 elements, above the cap of 10000; "
     "raise --max-elements to proceed"),
    (["verify", "--q", "2", "--h", "2", "--k", "1", "--relation", "module.k_eigen"],
     "relation module.k_eigen does not apply to geometry mode"),
    (["module", "--h", "2", "--k", "1", "--alpha", "0", "--beta", "1", "--rho", "0",
      "--symbolic", "--suite", "counts"],
     "suite counts has no relations in module mode"),
    (["decompose", "--q", "2", "--h", "2", "--k", "1"],
     "type (0,1,0): (Omega2 - 1003) E_t is nonzero at row 010"),
], ids=["capacity", "wrong_mode_relation", "empty_suite", "failed_decompose"])
def test_errors_after_parsing_are_reports(tmp_path, capsys, monkeypatch, argv, error, fmt):
    """Every error a command raises is one report: rendered per --format,
    printed, written to --output, exit status 1."""
    if argv[0] == "decompose":
        import pgaw.decompose
        real = pgaw.decompose._central_triple

        def triple(t, ring):  # distinct from every other triple, but not (0,1,0)'s eigenvalues
            lam = real(t, ring)
            return (*lam[:2], lam[2] + 1000) if t.triple() == (0, 1, 0) else lam

        monkeypatch.setattr(pgaw.decompose, "_central_triple", triple)
    target = tmp_path / "report"
    status = cli.main(argv + ["--format", fmt, "--output", str(target)])
    out = capsys.readouterr().out
    assert status == 1
    assert target.read_bytes() == out.encode("utf-8")
    if fmt == "json":
        payload = json.loads(out)
        assert payload["error"] == error
        assert payload["summary"] == {"total": 0, "passed": 0, "failed": 1}
    else:
        assert out.splitlines() == [f"context: command={argv[0]}", f"error: {error}",
                                    "summary: 0/0 pass, 1 fail"]


def test_output_file(tmp_path):
    target = tmp_path / "report.json"
    cfg = parse_args(["convert", "--h", "2", "--k", "1", "--alpha", "0",
                      "--beta", "0", "--rho", "1", "--format", "json",
                      "--output", str(target)])
    status, out = run(cfg)
    assert status == 0
    assert target.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("where", ["missing_dir/x.json", "."])
def test_unwritable_output_exits_2_without_traceback(tmp_path, where):
    target = tmp_path / where
    proc = subprocess.run(
        [sys.executable, "-m", "pgaw", "convert", "--h", "2", "--k", "1",
         "--alpha", "0", "--beta", "1", "--rho", "0", "--output", str(target)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: cannot write report to {target}: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_exit_zero_iff_no_fail():
    cfg = parse_args(["verify", "--q", "2", "--h", "2", "--k", "1"])
    status, text = run(cfg)
    assert (status == 0) == ("fail" not in text.replace("0 fail", ""))


def test_relation_id_filter():
    argv = ["verify", "--q", "2", "--h", "2", "--k", "1",
            "--relation", "aw.askey1", "--relation", "gen.k1l1"]
    # a repeated id runs once
    for repeat in ([], ["--relation", "aw.askey1"]):
        status, text = run(parse_args(argv + repeat))
        assert status == 0
        lines = [ln for ln in text.splitlines() if ": pass" in ln or ": fail" in ln]
        assert [ln.split(":")[0] for ln in lines] == ["aw.askey1", "gen.k1l1"]
        assert text.splitlines()[-1] == "summary: 2/2 pass, 0 fail"


@pytest.mark.parametrize("argv,mode", [
    (["verify", "--q", "2", "--h", "2", "--k", "1", "--suite", "module"], "geometry"),
    (["module", "--h", "2", "--k", "1", "--alpha", "0", "--beta", "1", "--rho", "0",
      "--q", "2", "--suite", "counts"], "module"),
])
def test_suite_without_relations_in_mode_is_an_error(argv, mode):
    status, text = run(parse_args(argv))
    assert status == 1
    assert text.splitlines() == [
        f"context: command={argv[0]}",
        f"error: suite {argv[-1]} has no relations in {mode} mode",
        "summary: 0/0 pass, 1 fail",
    ]


def test_relation_id_filter_rejects_unknown():
    with pytest.raises(SystemExit) as exc:
        parse_args(["verify", "--q", "2", "--h", "2", "--k", "1",
                    "--relation", "no.such.id"])
    assert exc.value.code == 2


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "pgaw", "convert", "--h", "2", "--k", "1",
         "--alpha", "0", "--beta", "1", "--rho", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert '"case": "C2"' in proc.stdout or "case" in proc.stdout
