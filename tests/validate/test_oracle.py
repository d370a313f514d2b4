"""Oracle suite: agreement on known-good programs, the divergence
taxonomy on hand-injected faults, and the build-verification mutation
test — an intentionally broken packed-backend operator must be caught,
classified, and minimized to a handful of lines."""

import pytest

import repro.semantics as semantics
from repro.validate import (
    DETERMINISTIC_METRIC_FIELDS,
    Divergence,
    check_batch_routes,
    check_program,
    generate,
    legal_schemas,
    run_fuzz,
)

pytestmark = pytest.mark.fuzz

SRC = "x := 2;\ny := x * 3;\n"


@pytest.mark.tier1
def test_all_routes_agree_on_seeded_programs():
    for seed in range(4):
        gp = generate(seed)
        report = check_program(gp.source, gp.inputs)
        assert report.ok, report.summary()
        # sanity: the sweep really fanned out (2 interpreters + per
        # schema: 2 loops + finite-PE + region + 2 cached, x input vectors)
        assert report.routes_run >= 2 + len(report.schemas) * 6


def test_legal_schemas_shrink_under_aliasing():
    assert len(legal_schemas(SRC)) == 6
    aliased = "alias (x, y);\n" + SRC
    assert legal_schemas(aliased) == (
        "schema1", "schema3", "schema3_opt", "memory_elim"
    )
    report = check_program(aliased)
    assert report.ok, report.summary()
    assert report.schemas == legal_schemas(aliased)


def test_disk_cache_route(tmp_path):
    report = check_program(SRC, cache_dir=tmp_path)
    assert report.ok, report.summary()
    assert any(tmp_path.rglob("*.pkl"))  # the disk tier really engaged


def test_ref_crash_classification():
    """A program the reference itself cannot finish (step limit) is a
    generator bug — classified ref_crash, no other routes attempted."""
    endless = "l: x := x + 1;\ngoto l;\n"
    report = check_program(endless, max_steps=1000)
    assert not report.ok
    assert [d.kind for d in report.divergences] == ["ref_crash"]


def test_mutation_is_caught_classified_and_localized(monkeypatch):
    """Break `*` for the packed interpreter only (it binds BINOP_FUNCS at
    init; the step loop calls apply_binop directly).  The oracle must
    flag exactly the packed routes."""
    monkeypatch.setitem(semantics.BINOP_FUNCS, "*", lambda a, b: a * b + 1)
    report = check_program("x := 3;\ny := x * 5;\n")
    assert not report.ok
    assert report.divergences
    assert all("/packed" in d.route for d in report.divergences)
    kinds = {d.kind for d in report.divergences}
    assert "sim_divergence" in kinds


@pytest.mark.slow
def test_mutation_fuzz_end_to_end_minimizes_small(monkeypatch, tmp_path):
    """The ISSUE acceptance bar: an injected semantics bug is found by a
    short fuzz campaign and the minimized repro is <= 10 source lines."""
    monkeypatch.setitem(semantics.BINOP_FUNCS, "*", lambda a, b: a * b + 1)
    report = run_fuzz(
        seed=0, count=15, minimize_findings=True, out_dir=tmp_path,
        pooled=False,  # pool workers are separate processes: no mutation
        max_findings=1,
    )
    assert not report.ok, "mutation escaped the fuzzer"
    finding = report.findings[0]
    assert finding.divergence.kind == "sim_divergence"
    assert "/packed" in finding.divergence.route
    assert 0 < finding.minimized_lines <= 10
    assert finding.regression_path is not None
    assert finding.regression_path.exists()


def test_metrics_drift_classification(monkeypatch):
    """Poison one deterministic Metrics field on the packed route only:
    the oracle must report metrics_drift (not sim_divergence) since the
    memory still matches."""
    from repro.machine import packed as packed_mod

    real = packed_mod.PackedSimulator.run

    def warped(self, *a, **kw):
        res = real(self, *a, **kw)
        res.metrics.operations += 1
        return res

    monkeypatch.setattr(packed_mod.PackedSimulator, "run", warped)
    report = check_program(SRC, sim_modes=("step", "packed"),
                           finite_pes=False)
    assert not report.ok
    assert {d.kind for d in report.divergences} == {"metrics_drift"}
    drift = report.divergences[0]
    assert "operations" in drift.detail


def test_deterministic_fields_exist_on_metrics():
    from repro.machine.metrics import Metrics

    m = Metrics()
    for f in DETERMINISTIC_METRIC_FIELDS:
        assert hasattr(m, f), f


@pytest.mark.tier1
def test_batch_routes_agree_serial_vs_pooled():
    programs = [generate(s) for s in range(3)]
    assert check_batch_routes(programs) == []


def test_batch_routes_report_error_mismatch():
    class Fake:
        source = "x := ;;; broken"
        inputs = ({},)
        name = "broken"

    # both routes fail identically -> no divergence (errors must match)
    assert check_batch_routes([Fake()], schema_pick="schema1") == []


def test_divergence_str_is_readable():
    d = Divergence("sim_divergence", "schema1/packed", "ast", "x: 1 != 2")
    assert "schema1/packed" in str(d) and "sim_divergence" in str(d)


def test_divergence_str_carries_guilty_pass():
    d = Divergence(
        "pass_certificate", "schema2_opt", "ast", "placement differs",
        guilty_pass="switch_placement",
    )
    assert "[guilty pass: switch_placement]" in str(d)


BRANCH_SRC = "if p == 0 then goto sk;\nx := x + 1;\nsk: y := x;\n"


def test_pass_certificate_taxonomy(monkeypatch):
    """With the misplaced-switch hook live and verify on, the oracle
    classifies the failure as pass_certificate with the pass name
    attached — not as an anonymous compile_crash."""
    import repro.translate.passes as passes

    monkeypatch.setattr(passes, "_TEST_MISPLACE_SWITCH", True)
    report = check_program(BRANCH_SRC, verify_passes="full")
    assert not report.ok
    certs = [d for d in report.divergences if d.kind == "pass_certificate"]
    assert certs, report.summary()
    assert all(d.guilty_pass == "switch_placement" for d in certs)
    assert all(d.certificate for d in certs)
    # only the optimized schemas run switch placement
    assert {d.route for d in certs} <= {
        "schema2_opt", "schema3_opt", "memory_elim"
    }


def test_assign_blame_annotates_unverified_divergences(monkeypatch):
    """verify off during the sweep, blame afterwards: assign_blame must
    recompile at full and upgrade the compile_crash with a guilty pass."""
    from repro.validate import assign_blame
    import repro.translate.passes as passes

    monkeypatch.setattr(passes, "_TEST_MISPLACE_SWITCH", True)
    report = check_program(BRANCH_SRC)
    assert not report.ok
    assert all(not d.guilty_pass for d in report.divergences)
    assign_blame(report)
    blamed = [d for d in report.divergences if d.guilty_pass]
    assert blamed, report.summary()
    assert all(d.guilty_pass == "switch_placement" for d in blamed)


@pytest.mark.slow
def test_blame_fuzz_end_to_end_minimizes_against_pass(monkeypatch, tmp_path):
    """The ISSUE acceptance bar for blame: with a hook enabled,
    ``run_fuzz(blame=True)`` labels the guilty pass and the minimizer
    converges against that pass's verifier alone (compile-only probes)."""
    from repro.validate import parse_regression
    import repro.translate.passes as passes

    monkeypatch.setattr(passes, "_TEST_MISPLACE_SWITCH", True)
    report = run_fuzz(
        seed=0, count=10, minimize_findings=True, out_dir=tmp_path,
        pooled=False, max_findings=1, blame=True,
    )
    assert not report.ok, "hooked bug escaped the fuzzer"
    finding = report.findings[0]
    assert finding.divergence.guilty_pass == "switch_placement"
    assert finding.minimized_via == "pass:switch_placement"
    assert 0 < finding.minimized_lines <= 10
    meta = parse_regression(finding.regression_path)
    assert meta["guilty_pass"] == "switch_placement"
    assert meta["seed"] is not None
