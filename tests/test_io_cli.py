"""Input parsing, report rendering, pipeline commands, CLI entry point."""

import glob
import json
from pathlib import Path

import numpy as np
import pytest

from kacforge.cli import main, run_pipeline
from kacforge.config import DEFAULT_CONFIG
from kacforge.errors import ParseError, ValidationError
from kacforge.io_formats import (InputBundle, Report, load_group,
                                 load_measure, load_pair, load_ring,
                                 parse_inputs, parse_line_file,
                                 ring_from_spec)

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
DATA = Path(__file__).resolve().parent / "data"

_state = {}


def bundle():
    if "bundle" not in _state:
        _state["bundle"] = parse_inputs(sorted(glob.glob(str(SAMPLES / "*"))))
    return _state["bundle"]


# ---------------------------------------------------------------------------
# parsing the sample corpus


def test_sample_corpus_loads_completely():
    b = bundle()
    assert sorted(b.groups) == ["s3", "s4", "sl2f3", "z2", "z3", "z4"]
    assert {n: g.order for n, g in b.groups.items()} == {
        "s3": 6, "s4": 24, "sl2f3": 24, "z2": 2, "z3": 3, "z4": 4}
    assert sorted(b.pairs) == ["conj-sample", "dual-sample",
                               "inversion-base", "s4-sample",
                               "split-sample", "v4-twist"]
    assert sorted(b.rings) == ["free-o3", "s3-elements", "s3-irreps"]
    assert sorted(b.measures) == ["skew", "uniform_s3"]


def test_ambient_pair_has_both_actions_nontrivial():
    mp = bundle().pairs["s4-sample"]
    assert mp.discrete.order == 6 and mp.compact.order == 4
    assert not mp.alpha_trivial and not mp.beta_trivial


def test_deformation_file_changes_the_group():
    mp = bundle().pairs["v4-twist"]
    # the parity cocycle turns the cyclic order-4 law into the Klein group
    assert sorted(mp.compact.element_order(g) for g in range(4)) == [1, 2, 2, 2]
    base = bundle().pairs["inversion-base"]
    assert sorted(base.compact.element_order(g) for g in range(4)) == [1, 2, 4, 4]


def test_matrix_group_loader():
    G = load_group(str(SAMPLES / "sl2f3.group"))
    assert G.order == 24
    assert not G.is_abelian()


def test_ring_specs():
    assert ring_from_spec("free-orthogonal:N=3,cutoff=6").n == 7
    assert ring_from_spec("group:s3.group", base_dir=SAMPLES).n == 3
    assert ring_from_spec("dual-group:s3.group", base_dir=SAMPLES).n == 6
    with pytest.raises(ValidationError):
        ring_from_spec("banana:whatever")
    with pytest.raises(ValidationError):
        ring_from_spec("free-orthogonal:N=3")


def test_measure_loader_defaults_missing_weights_to_zero():
    mu = bundle().measures["skew"]
    assert mu.support() == [2, 5]
    assert float(sum(mu.weights)) == 1.0


# ---------------------------------------------------------------------------
# parse and validation failures


def test_nonassociative_table_names_witness_triple():
    with pytest.raises(ValidationError) as exc:
        load_group(str(DATA / "bad_cayley.group"))
    assert exc.value.invariant == "associativity"
    assert "(1,1,2)" in str(exc.value).replace(" ", "")


def test_parse_errors_carry_line_and_column():
    with pytest.raises(ParseError) as exc:
        load_group(str(DATA / "noninteger.group"))
    assert exc.value.line == 3 and exc.value.column == 3
    with pytest.raises(ParseError) as exc:
        load_group(str(DATA / "ragged.group"))
    assert exc.value.line == 3
    with pytest.raises(ParseError) as exc:
        load_group(str(DATA / "orphan_row.group"))
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        load_group(str(DATA / "bad_kind.group"))
    assert "banana" in str(exc.value)


def test_unknown_extension_rejected():
    with pytest.raises(ParseError):
        parse_inputs([str(DATA / "bad_cayley.group") + ".xyz"])


def test_measure_file_errors(tmp_path):
    (tmp_path / "g.group").write_text("kind: cayley\ntable:\n0 1\n1 0\n")
    bad1 = tmp_path / "a.measure"
    bad1.write_text("group: g.group\nweights:\n0 1/2 extra\n")
    with pytest.raises(ParseError):
        load_measure(str(bad1))
    bad2 = tmp_path / "b.measure"
    bad2.write_text("group: g.group\nweights:\n7 1\n")
    with pytest.raises(ParseError):
        load_measure(str(bad2))
    bad3 = tmp_path / "c.measure"
    bad3.write_text("group: g.group\nweights:\n0 1/3\n")
    with pytest.raises(ValidationError):
        load_measure(str(bad3))


def test_duplicate_headers_and_blocks_rejected(tmp_path):
    f = tmp_path / "dup.group"
    f.write_text("kind: cayley\nkind: cayley\ntable:\n0\n")
    with pytest.raises(ParseError):
        parse_line_file(str(f))


def test_missing_required_pieces(tmp_path):
    f = tmp_path / "x.group"
    f.write_text("name: nothing-else\n")
    with pytest.raises(ParseError):
        load_group(str(f))
    p = tmp_path / "x.pair"
    p.write_text("kind: tables\nname: no-groups\n")
    with pytest.raises(ParseError):
        load_pair(str(p))


def test_bad_permutation_row(tmp_path):
    f = tmp_path / "p.group"
    f.write_text("kind: perm\ndegree: 3\ngens:\n0 0 1\n")
    with pytest.raises(ParseError) as exc:
        load_group(str(f))
    assert "permutation" in str(exc.value)


# ---------------------------------------------------------------------------
# reports


def test_report_statuses_and_exit_codes():
    r = Report(command="demo", seed=7)
    r.add("m", "fine", "PASS", residual=0.0)
    assert r.exit_code() == 0 and not r.failed
    r.add("m", "finding", "AUDIT-DISAGREE", witness="expected discovery")
    assert r.exit_code() == 0           # audit findings are not failures
    r.add("m", "broken", "FAIL", residual=1.0)
    assert r.exit_code() == 2 and r.failed


def test_report_text_and_json_round_trip():
    r = Report(command="demo", seed=0xC0FFEE)
    r.add("alpha", "thing", "PASS", residual=1.25e-10, witness="w")
    text = r.render_text()
    assert "kacforge demo" in text and "PASS" in text and "result: PASS" in text
    doc = json.loads(r.render_json())
    assert doc["result"] == "PASS"
    assert doc["sections"][0]["entries"][0]["residual"] == "1.250000e-10"


def test_reports_byte_identical_across_runs():
    paths = [str(SAMPLES / "s3_split.pair")]
    a = run_pipeline("invariants", paths).render_text()
    b = run_pipeline("invariants", paths).render_text()
    assert a == b


# ---------------------------------------------------------------------------
# pipeline commands


def test_pipeline_validate_reports_partition_matrices():
    rep = run_pipeline("validate", bundle())
    names = [e.name for e in rep.entries()]
    assert any("partition-matrices" in n for n in names)
    assert rep.exit_code() == 0


def test_pipeline_build_certifies_samples():
    paths = [str(SAMPLES / "s4_s3_z4.pair"), str(SAMPLES / "v4_twist.pair")]
    rep = run_pipeline("build", paths)
    assert rep.exit_code() == 0
    assert all(e.status == "PASS" for e in rep.entries())
    assert any("axioms" in e.name for e in rep.entries())


def test_pipeline_irreps_prints_catalog():
    rep = run_pipeline("irreps", [str(SAMPLES / "s3_split_dual.pair")])
    entry = next(e for e in rep.entries() if "catalog" in e.name)
    assert "dims [1, 1, 2]" in entry.witness


def test_pipeline_fusion_agrees_between_routes():
    rep = run_pipeline("fusion", [str(SAMPLES / "s3_split_dual.pair")])
    entry = next(e for e in rep.entries() if "route-agreement" in e.name)
    assert entry.status == "PASS" and entry.residual == 0.0


def test_pipeline_invariants_matches_models():
    rep = run_pipeline("invariants", [str(SAMPLES / "s3_split.pair")])
    texts = {e.name: e.witness for e in rep.entries()}
    assert any("order 6" in w for w in texts.values())
    assert all(e.status == "PASS" for e in rep.entries())


def test_pipeline_audit_logs_the_distinctness_finding():
    rep = run_pipeline("audit", [str(SAMPLES / "s3_split_dual.pair")])
    statuses = {e.status for e in rep.entries()}
    assert "AUDIT-DISAGREE" in statuses
    assert rep.exit_code() == 0         # audit-only findings exit clean
    entry = next(e for e in rep.entries() if e.status == "AUDIT-DISAGREE")
    assert "candidate-distinctness" in entry.name


def test_pipeline_crossed_runs_conjugation_sample():
    rep = run_pipeline("crossed", [str(SAMPLES / "conj_s3.pair")])
    assert rep.exit_code() == 0
    assert any("transform-decomposition" in e.name for e in rep.entries())
    assert any("polynomial-bound" in e.name for e in rep.entries())


def test_pipeline_flags_breaches_with_exit_two():
    # a deliberately corrupted pair (constructed unvalidated, bypassing the
    # loaders) must surface as FAIL entries and exit code 2
    from kacforge.matched import MatchedPair
    base = bundle().pairs["split-sample"]
    beta_bad = np.array(base.beta)
    beta_bad[1] = beta_bad[1][::-1]
    broken = MatchedPair(base.discrete, base.compact, base.alpha, beta_bad,
                         name="broken", validate=False)
    fake = InputBundle(pairs={"broken": broken}, config=DEFAULT_CONFIG)
    rep = run_pipeline("build", fake)
    assert rep.failed and rep.exit_code() == 2
    entry = next(e for e in rep.entries() if e.status == "FAIL")
    assert entry.witness            # names the violated laws


# ---------------------------------------------------------------------------
# CLI entry point


def test_cli_validate_ok(capsys):
    code = main(["validate", str(SAMPLES / "s3.group")])
    out = capsys.readouterr().out
    assert code == 0
    assert "group s3" in out and "result: PASS" in out


def test_cli_validation_failure_exits_one(capsys):
    code = main(["validate", str(DATA / "bad_cayley.group")])
    err = capsys.readouterr().err
    assert code == 1
    assert "associativity" in err


def test_cli_crossed_accepts_identity_not_first(capsys):
    # the order-2 table lists t before e; the grading length must take its
    # generators from the identity's index, not from position 0
    code = main(["crossed", str(DATA / "split_identity_last.pair")])
    out, err = capsys.readouterr()
    assert err == ""
    assert code == 0
    assert "split-identity-last polynomial-bound sample" in out
    assert "result: PASS" in out


def test_cli_unmatched_ambient_pair_is_one_error_line(tmp_path, capsys):
    (tmp_path / "s4.group").write_text((SAMPLES / "s4.group").read_text())
    pair = tmp_path / "bad.pair"
    pair.write_text("kind: ambient\nambient: s4.group\n"
                    "discrete-gens:\n1\ncompact-gens:\n2\n")
    code = main(["validate", str(pair)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_oversized_group_is_one_error_line(tmp_path, capsys):
    group = tmp_path / "s7.group"
    group.write_text("kind: perm\ndegree: 7\ngens:\n"
                     "1 0 2 3 4 5 6\n1 2 3 4 5 6 0\n")
    code = main(["shadow", "separation", str(group)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_separation_on_trivial_group_is_one_error_line(tmp_path,
                                                           capsys):
    group = tmp_path / "trivial.group"
    group.write_text("kind: perm\ndegree: 1\ngens:\n0\n")
    code = main(["shadow", "separation", str(group)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_numeric_breach_error_exits_two(capsys, monkeypatch):
    from kacforge import cli
    from kacforge.errors import SeedDegenerate

    def degenerate(*args, **kwargs):
        raise SeedDegenerate("still degenerate")
    monkeypatch.setattr(cli, "run_pipeline", degenerate)
    code = main(["shadow", "chebyshev"])
    assert code == 2
    assert capsys.readouterr().err == "error: still degenerate\n"


def test_cli_shadow_chebyshev_table(capsys):
    code = main(["shadow", "chebyshev", "--N", "3", "--t", "2",
                 "--cutoff", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1, 2/3, 3/8" in out


def test_cli_structured_output_is_json(capsys):
    code = main(["--output", "structured", "shadow", "chebyshev",
                 "--N", "3", "--t", "2", "--cutoff", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["command"] == "shadow"
    assert doc["result"] == "PASS"


def test_cli_seed_flag_and_env_precedence(capsys, monkeypatch):
    main(["--seed", "0x1", "shadow", "chebyshev", "--cutoff", "1"])
    assert "seed 0x1" in capsys.readouterr().out
    monkeypatch.setenv("KACFORGE_SEED", "0x2")
    main(["--seed", "0x1", "shadow", "chebyshev", "--cutoff", "1"])
    assert "seed 0x2" in capsys.readouterr().out


@pytest.mark.parametrize("flag, env", [([], "abc"), ([], "-1"),
                                       (["--seed", "-1"], None)],
                         ids=["env-abc", "env-negative", "flag-negative"])
def test_cli_bad_seed_is_one_error_line(flag, env, capsys, monkeypatch):
    if env is not None:
        monkeypatch.setenv("KACFORGE_SEED", env)
    code = main(flag + ["validate", str(SAMPLES / "s3.group")])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("t", ["abc", "1/0"])
def test_cli_chebyshev_bad_t_is_one_error_line(t, capsys):
    code = main(["shadow", "chebyshev", "--t", t])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("draws", ["0", "-1"])
def test_cli_crossed_refuses_fewer_than_one_draw(draws, capsys):
    code = main(["crossed", str(SAMPLES / "conj_s3.pair"), "--draws", draws])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == f"error: --draws must be at least 1, got {draws}\n"


def test_cli_shadow_separation_and_transform(capsys):
    code = main(["shadow", "separation", str(SAMPLES / "s3.group")])
    out = capsys.readouterr().out
    assert code == 0 and "2*(1 - mu(e))" in out
    code = main(["shadow", "transform", str(SAMPLES / "uniform_s3.measure")])
    out = capsys.readouterr().out
    assert code == 0 and "uniform-check" in out


def test_cli_ring_over_the_cap_is_one_error_line(tmp_path, capsys):
    ring = tmp_path / "big.ring"
    ring.write_text("spec: free-orthogonal:N=3,cutoff=256\n")
    code = main(["validate", str(ring)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_partial_ring_law_check_says_so(capsys):
    code = main(["fusion", str(SAMPLES / "free_o3.ring")])
    out = capsys.readouterr().out
    assert code == 0
    assert ("PASS           ring free-o3 laws residual=0.000000e+00 -- "
            "associativity on 84 of 343 triples; 259 leave the cutoff "
            "window\n") in out
    code = main(["fusion", str(SAMPLES / "s3_irreps.ring")])
    out = capsys.readouterr().out
    assert "ring s3-irreps laws residual=0.000000e+00\n" in out


def test_audit_witnesses_say_when_the_audit_was_sampled(monkeypatch):
    import functools
    from kacforge import cli, reps
    path = [str(SAMPLES / "s4_s3_z4.pair")]
    full = {e.name: e.witness for e in run_pipeline("audit", path).entries()}
    monkeypatch.setattr(cli, "audit_fusion",
                        functools.partial(reps.audit_fusion, max_triples=10))
    part = {e.name: e.witness for e in run_pipeline("audit", path).entries()}
    name = next(n for n in full if n.endswith("solver-vs-haar"))
    total = int(full[name].split()[0])
    assert total > 10 and part.keys() == full.keys()
    note = f"checked 10 of {total} triples (sampled, seed 0xc0ffee)"
    assert part[name] == note
    fusion = name.replace("solver-vs-haar", "closed-form-fusion")
    assert full[fusion].startswith(f"{total} triples checked, ")
    assert part[fusion].startswith(note + ", ")


def test_cli_measure_listing_an_element_twice_is_one_error_line(tmp_path,
                                                                 capsys):
    (tmp_path / "s3.group").write_text((SAMPLES / "s3.group").read_text())
    dup = tmp_path / "dup.measure"
    dup.write_text("group: s3.group\nweights:\n0 1/2\n1 1/2\n  0 1/2\n")
    code = main(["validate", str(dup)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == (f"error: {dup}:5:3: element 0 already has a weight on "
                   f"line 3\n")
