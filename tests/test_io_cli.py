"""Input parsing, report rendering, pipeline commands, CLI entry point."""

import copy
import glob
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kacforge import measures
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
    a = run_pipeline("invariants", parse_inputs(paths)).render_text()
    b = run_pipeline("invariants", parse_inputs(paths)).render_text()
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
    rep = run_pipeline("build", parse_inputs(paths))
    assert rep.exit_code() == 0
    assert all(e.status == "PASS" for e in rep.entries())
    assert any("axioms" in e.name for e in rep.entries())


def test_pipeline_irreps_prints_catalog():
    rep = run_pipeline("irreps",
                       parse_inputs([str(SAMPLES / "s3_split_dual.pair")]))
    entry = next(e for e in rep.entries() if "catalog" in e.name)
    assert "dims [1, 1, 2]" in entry.witness


def test_pipeline_fusion_agrees_between_routes():
    rep = run_pipeline("fusion",
                       parse_inputs([str(SAMPLES / "s3_split_dual.pair")]))
    entry = next(e for e in rep.entries() if "route-agreement" in e.name)
    assert entry.status == "PASS" and entry.residual == 0.0


def test_pipeline_invariants_matches_models():
    rep = run_pipeline("invariants",
                       parse_inputs([str(SAMPLES / "s3_split.pair")]))
    texts = {e.name: e.witness for e in rep.entries()}
    assert any("order 6" in w for w in texts.values())
    assert all(e.status == "PASS" for e in rep.entries())


def test_pipeline_audit_logs_the_distinctness_finding():
    rep = run_pipeline("audit",
                       parse_inputs([str(SAMPLES / "s3_split_dual.pair")]))
    statuses = {e.status for e in rep.entries()}
    assert "AUDIT-DISAGREE" in statuses
    assert rep.exit_code() == 0         # audit-only findings exit clean
    entry = next(e for e in rep.entries() if e.status == "AUDIT-DISAGREE")
    assert "candidate-distinctness" in entry.name


def test_pipeline_crossed_runs_conjugation_sample():
    rep = run_pipeline("crossed",
                       parse_inputs([str(SAMPLES / "conj_s3.pair")]))
    assert rep.exit_code() == 0
    assert any("transform-decomposition" in e.name for e in rep.entries())
    assert any("polynomial-bound" in e.name for e in rep.entries())


def test_pipeline_defaults_are_the_command_line_defaults(capsys):
    path = str(SAMPLES / "conj_s3.pair")
    assert main(["crossed", path]) == 0
    assert run_pipeline("crossed", parse_inputs([path])).render("text") == \
        capsys.readouterr().out


def test_pipeline_flags_breaches_with_exit_two():
    # a deliberately corrupted pair (an honest pair copied with its beta
    # rebound, bypassing validation) must surface as FAIL entries and exit
    # code 2
    base = bundle().pairs["split-sample"]
    beta_bad = np.array(base.beta)
    beta_bad[1] = beta_bad[1][::-1]
    broken = copy.copy(base)
    broken.beta, broken.name = beta_bad, "broken"
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


def test_cli_separation_over_the_grid_cap_is_one_error_line(capsys,
                                                            monkeypatch):
    monkeypatch.setattr(measures, "SEPARATION_CAP", 100)
    code = main(["shadow", "separation", str(SAMPLES / "s4.group")])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == ("error: separation grid of order 24 has 20474 points, "
                   "over the grid cap 100\n")


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


@pytest.mark.parametrize("cutoff", ["256", "6000"])
def test_cli_chebyshev_cutoff_over_the_ring_cap_is_one_error_line(capsys,
                                                                  cutoff):
    """Labels 0..cutoff of the ladder: 257 are over the cap of 256, and at
    6001 the values pass the integer-to-text digit limit."""
    code = main(["shadow", "chebyshev", "--N", "3", "--t", "5/2",
                 "--cutoff", cutoff])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_chebyshev_values_past_the_digit_limit_are_one_error_line(
        capsys):
    """At N = 10^20 the values of level 255 pass the integer-to-text digit
    limit; level 200 stays under it and prints."""
    code = main(["shadow", "chebyshev", "--N", "100000000000000000000",
                 "--t", "1", "--cutoff", "255"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "digit limit" in err
    assert main(["shadow", "chebyshev", "--N", "100000000000000000000",
                 "--t", "1", "--cutoff", "200"]) == 0


@pytest.mark.parametrize("command", ["validate", "fusion"])
def test_cli_free_ring_past_the_float_range_is_one_error_line(tmp_path,
                                                              capsys,
                                                              command):
    """The N = 100 ladder passes the float range at label 155."""
    ring = tmp_path / "big.ring"
    ring.write_text("spec: free-orthogonal:N=100,cutoff=255\n")
    code = main([command, str(ring)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: [free-ring] ") and err.count("\n") == 1
    ring.write_text("spec: free-orthogonal:N=100,cutoff=154\n")
    assert main(["validate", str(ring)]) == 0


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


@pytest.mark.parametrize("params", ["N=3,cutoff=4,extra",
                                    "N=3,cutoff=4,N=5"],
                         ids=["unknown-key", "repeated-key"])
def test_cli_ring_spec_key_it_would_ignore_is_one_error_line(params, tmp_path,
                                                             capsys):
    ring = tmp_path / "o3.ring"
    ring.write_text(f"spec: free-orthogonal:{params}\n")
    code = main(["validate", str(ring)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: [ring-spec] ") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["group", "dual-group"])
def test_cli_ring_spec_without_a_group_file_is_one_error_line(kind, tmp_path,
                                                              capsys):
    ring = tmp_path / "r.ring"
    ring.write_text(f"spec: {kind}:\n")
    code = main(["validate", str(ring)])
    assert (code, capsys.readouterr()) == (
        1, ("", f"error: [ring-spec] {kind} needs a group file\n"))


def test_ring_spec_group_file_resolves_like_pair_references(tmp_path,
                                                            capsys):
    """A ring's group file is resolved against the ring's directory, as a
    pair's and a measure's are: the error names the resolved file."""
    ring = tmp_path / "r.ring"
    ring.write_text("spec: dual-group:sub/../nope.group\n")
    code = main(["validate", str(ring)])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {tmp_path / 'nope.group'}: cannot read "
                          f"file: ")


@pytest.mark.parametrize("name", ["nope.group", "input.txt"])
def test_cli_file_level_parse_error_names_no_position(name, tmp_path,
                                                      capsys):
    """A file that cannot be read, or has no known extension, is named
    without a line and column."""
    path = tmp_path / name
    code = main(["validate", str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {path}: ")


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
    from kacforge import reps
    inputs = parse_inputs([str(SAMPLES / "s4_s3_z4.pair")])
    full = {e.name: e.witness for e in run_pipeline("audit", inputs).entries()}
    monkeypatch.setattr(reps, "AUDIT_TRIPLES", 10)
    part = {e.name: e.witness for e in run_pipeline("audit", inputs).entries()}
    name = next(n for n in full if n.endswith("solver-vs-haar"))
    total = int(full[name].split()[0])
    assert total > 10 and part.keys() == full.keys()
    note = f"checked 10 of {total} triples (sampled, seed 0xc0ffee)"
    assert part[name] == note
    fusion = name.replace("solver-vs-haar", "closed-form-fusion")
    assert full[fusion].startswith(f"{total} triples checked, ")
    assert part[fusion].startswith(note + ", ")


def test_cli_intertwiner_block_over_the_cap_is_one_error_line(capsys,
                                                              monkeypatch):
    from kacforge import reps
    path = str(SAMPLES / "s4_s3_z4.pair")
    assert main(["irreps", path]) == 0
    capsys.readouterr()
    monkeypatch.setattr(reps, "INTERTWINER_CAP", 8)
    code = main(["irreps", path])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: intertwiner block of ")
    assert err.endswith(" is over the cap of 8 cells\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("copied", [False, True])
def test_cli_two_inputs_of_one_name_are_one_error_line(copied, tmp_path,
                                                       capsys):
    """The same pair file twice, or a copy whose header repeats its name."""
    first = second = SAMPLES / "s3_split.pair"
    if copied:
        for group in ("z2.group", "z3.group"):
            (tmp_path / group).write_text((SAMPLES / group).read_text())
        second = tmp_path / "other.pair"
        second.write_text(first.read_text())
    code = main(["build", str(first), str(second)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == (f"error: [duplicate-name] pair 'split-sample' of {second} "
                   f"is already loaded from {first}\n")


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


@pytest.mark.parametrize("element", ["9", "-1"])
@pytest.mark.parametrize("block", ["discrete", "compact", "discrete-gens",
                                   "compact-gens"])
def test_cli_subgroup_element_out_of_range_is_one_error_line(block, element,
                                                             tmp_path, capsys):
    """Subgroup elements index the ambient S3, 0..5: a 9 used to raise an
    IndexError, and a -1 generator wrapped to element 5."""
    (tmp_path / "s3.group").write_text((SAMPLES / "s3.group").read_text())
    other = "compact" if block.startswith("discrete") else "discrete"
    pair = tmp_path / "bad.pair"
    pair.write_text(f"kind: ambient\nambient: s3.group\n{block}:\n"
                    f"0 {element}\n{other}-gens:\n1\n")
    code = main(["validate", str(pair)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == f"error: {pair}:4:3: element {element} out of range 0..5\n"


def test_cli_unnamed_rings_are_named_by_their_file_stems(tmp_path, capsys):
    """Two rings of one construction without a ``name:`` header are two
    inputs, not one name loaded twice."""
    (tmp_path / "s3.group").write_text((SAMPLES / "s3.group").read_text())
    paths = [tmp_path / "a.ring", tmp_path / "d.ring"]
    for path in paths:
        path.write_text("spec: group:s3.group\n")
    assert load_ring(paths[0]).name == "a"
    code = main(["validate", *map(str, paths)])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert "PASS           ring a -- 3 labels" in out
    assert "PASS           ring d -- 3 labels" in out


# ---------------------------------------------------------------------------
# integers past int64 and argument errors: one error line, exit 1

BIG = "99999999999999999999"
_TABLES_PAIR = ("kind: tables\ndiscrete: z2.group\ncompact: z4.group\n"
                "alpha:\n0 1 2 3\n0 3 2 1\nbeta:\n0 1\n0 1\n0 1\n0 1\n")


@pytest.mark.parametrize("name, text, where", [
    ("g.group", f"kind: cayley\ntable:\n0 1\n1 {BIG}\n", "4:3"),
    ("p.pair", _TABLES_PAIR.replace("0 3 2 1", f"0 3 2 {BIG}"), "6:7"),
    ("p.pair", _TABLES_PAIR.replace("beta:\n0 1", f"beta:\n0 {BIG}"), "8:3"),
    ("g.group", f"kind: matmod\nmodulus: 3\ngens:\n1 1 0 {BIG}\n", "4:7"),
    ("g.group", f"kind: matmod\nmodulus: {BIG}\ngens:\n1 1 0 1\n", "2:1"),
    ("g.group", f"kind: perm\ndegree: {BIG}\ngens:\n0\n", "2:1"),
], ids=["cayley", "alpha", "beta", "matmod-entry", "modulus", "degree"])
def test_cli_integer_past_int64_is_one_error_line(name, text, where, tmp_path,
                                                  capsys):
    for group in ("z2.group", "z4.group"):
        (tmp_path / group).write_text((SAMPLES / group).read_text())
    path = tmp_path / name
    path.write_text(text)
    code = main(["validate", str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == (f"error: {path}:{where}: integer {BIG} is outside the "
                   f"int64 range\n")


def test_cli_perm_degree_one_is_the_trivial_group(tmp_path, capsys):
    path = tmp_path / "g.group"
    path.write_text("kind: perm\ndegree: 1\ngens:\n")
    assert main(["validate", str(path)]) == 0
    assert "order 1" in capsys.readouterr().out


def test_cli_matmod_modulus_past_int64_products_is_refused(tmp_path, capsys):
    # [[m-1, m-1], [1, 0]] has order 3 mod any m, but its int64 products
    # overflow for m = 2^40 + 15
    m = 2 ** 40 + 15
    path = tmp_path / "big.group"
    path.write_text(f"kind: matmod\nmodulus: {m}\ngens:\n{m - 1} {m - 1} 1 0\n")
    code = main(["validate", str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: [modulus] ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--seed", "abc", "validate"],
    ["crossed", "--draws", "x"],
    ["shadow", "chebyshev", "--N", "x"],
    ["shadow", "nowhere"],
    ["validate", "--bogus"],
    [],
    ["deform"],
    ["shadow", "separation"],
    ["shadow", "transform"],
], ids=["seed", "draws", "N", "target", "unknown-flag", "no-command",
        "deform-no-pair", "separation-no-group", "transform-no-measure"])
def test_cli_argument_error_is_one_error_line(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("cmd, files, wanted", [
    pytest.param(*case, id=case[0]) for case in (
        ("validate", [], "group, pair, ring or measure"),
        ("build", [], "pair"),
        ("irreps", ["s3.group"], "pair"),
        ("fusion", ["s3.group"], "pair or ring"),
        ("invariants", ["uniform_s3.measure"], "pair"),
        ("deform", [], "pair"),
        ("crossed", ["s3_irreps.ring"], "pair"),
        ("audit", ["free_o3.ring"], "pair"))])
def test_pair_command_with_nothing_to_check_refuses(cmd, files, wanted,
                                                    capsys):
    """A pair command given none of the inputs it reads prints one error
    line and exits 1, rather than a PASS over nothing."""
    code = main([cmd] + [str(SAMPLES / name) for name in files])
    assert (code, capsys.readouterr()) == (
        1, ("", f"error: [{cmd}-inputs] no {wanted} files given\n"))


def test_cli_deform_chi_of_the_wrong_shape_is_one_error_line(tmp_path,
                                                               capsys):
    for sample in ("z2.group", "z4.group", "z2_on_z4.pair"):
        (tmp_path / sample).write_text((SAMPLES / sample).read_text())
    path = tmp_path / "d.pair"
    path.write_text("kind: deform\nbase: z2_on_z4.pair\nside: compact\n"
                    "chi:\n0 1 0\n")
    code = main(["deform", str(path)])
    assert (code, capsys.readouterr()) == (
        1, ("", "error: chi has shape (3,), expected (4,)\n"))


@pytest.mark.parametrize("argv", [["--help"], ["shadow", "--help"]],
                         ids=["top", "subcommand"])
def test_cli_help_still_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: kacforge")


@pytest.mark.parametrize("name, text, message", [
    ("p.pair", _TABLES_PAIR.replace("0 3 2 1", "0 3 2 -7"),
     "[alpha-bijection] row r=1"),
    ("d.pair", "kind: deform\nbase: p.pair\nside: compact\nchi:\n0 1 0 -7\n",
     "chi takes values outside 0..1"),
    ("g.group", "kind: matmod\nmodulus: 3\ngens:\n", "[matrix] no generators"),
    # 2^32 + 1 and 2^32 would wrap to valid indices in an int32 cast
    ("g.group", "kind: cayley\ntable:\n0 4294967297\n1 0\n",
     "[index-range] table entries out of range"),
    ("p.pair", _TABLES_PAIR.replace("alpha:\n0 1 2 3",
                                    "alpha:\n4294967296 1 2 3"),
     "[alpha-range] entries outside the int32 range"),
    ("g.group", "kind: perm\ndegree: -3\ngens:\n",
     "g.group:2:1: degree -3 is not positive"),
    ("g.group", "kind: perm\ndegree: 0\ngens:\n",
     "g.group:2:1: degree 0 is not positive"),
    # faults of table shape, group law, deformation base and file layout
    ("g.group", "kind: cayley\ntable:\n0\ntable:\n0\n",
     "g.group:4:1: duplicate block 'table:'"),
    ("g.group", "kind: cayley\nlabels: a b c\ntable:\n0 1\n1 0\n",
     "g.group:2:1: 3 labels for order 2"),
    ("g.group", "kind: matmod\nmodulus: 3\ngens:\n1 0 1\n",
     "g.group:4:1: 3 entries is not a square matrix"),
    ("g.group", "kind: cayley\ntable:\n0 1\n1 1\n",
     "[inverses] element without inverse"),
    ("g.group", "kind: cayley\ntable:\n0 1 2\n1 0 2\n2 0 1\n",
     "[latin-columns] some column is not a permutation"),
    ("p.pair", _TABLES_PAIR.replace("alpha:\n0 1 2 3\n", "alpha:\n"),
     "[alpha-shape] (1, 4) != (2,4)"),
    ("p.pair", _TABLES_PAIR.replace("beta:\n0 1\n0 1", "beta:\n0 1\n1 0"),
     "[beta-unit] actions must fix the unit of R"),
    ("d.pair", "kind: deform\nbase: d.pair\nside: compact\nchi:\n0\n",
     "deformation chain too deep (cycle?)"),
    ("d.pair", "kind: deform\nbase: s3_split.pair\nside: both\nchi:\n0\n",
     "d.pair:3:1: unknown deformation side 'both'"),
    ("d.pair", "kind: deform\nbase: s3_split_dual.pair\nside: compact\n"
     "chi:\n0 0\n", "base pair must have trivial discrete-side action"),
    ("d.pair", "kind: deform\nbase: s3_split.pair\nside: discrete\n"
     "chi:\n0 0\n", "base pair must have trivial compact-side action"),
    ("d.pair", "kind: deform\nbase: s3_split_dual.pair\nside: discrete\n"
     "chi:\n1 0 0\n", "chi must send the unit to the unit"),
    ("d.pair", "kind: deform\nbase: s3_split_dual.pair\nside: discrete\n"
     "chi:\n0 1 0\n", "twisted multiplicativity fails at (r,s)="),
], ids=["alpha-row", "chi", "matmod-gens", "cayley-int32", "alpha-int32",
        "degree-negative", "degree-zero", "duplicate-block", "label-count",
        "matmod-not-square", "no-inverse", "latin-columns", "alpha-shape",
        "beta-unit", "deform-cycle", "deform-side", "compact-side-base",
        "discrete-side-base", "discrete-side-unit", "discrete-side-law"])
def test_cli_out_of_range_rows_are_one_error_line(name, text, message,
                                                   tmp_path, capsys):
    for sample in ("z2.group", "z3.group", "z4.group", "s3_split.pair",
                   "s3_split_dual.pair"):
        (tmp_path / sample).write_text((SAMPLES / sample).read_text())
    (tmp_path / "p.pair").write_text(_TABLES_PAIR)
    path = tmp_path / name
    path.write_text(text)
    code = main(["validate", str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


def test_cli_huge_perm_degree_is_one_error_line(tmp_path):
    """The row is measured against the degree before 0..degree-1 is built.
    The CLI runs in a child under a 2 GB address-space limit, so a range of
    10^11 entries fails there with MemoryError, not in this process."""
    path = tmp_path / "huge.group"
    path.write_text("kind: perm\ndegree: 100000000000\ngens:\n1 0\n")
    src = os.pathsep.join(filter(None, [str(SAMPLES.parent / "src"),
                                        os.environ.get("PYTHONPATH")]))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    run = subprocess.run(
        [sys.executable, "-c", "import sys; from kacforge.cli import main; "
         "sys.exit(main())", "validate", str(path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        preexec_fn=cap, timeout=120)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == (f"error: {path}:4:1: row is not a permutation of "
                          f"0..99999999999\n")


# ---------------------------------------------------------------------------
# deformations on the discrete side


def test_discrete_side_deformation_file_loads():
    mp = load_pair(str(DATA / "dual_sample_untwisted.pair"))
    base = bundle().pairs["dual-sample"]
    assert mp.name == "dual-sample-untwisted"
    for table in ("alpha", "beta"):
        assert np.array_equal(getattr(mp, table), getattr(base, table))
    assert np.array_equal(mp.discrete.cayley, base.discrete.cayley)


def test_discrete_side_deformation_twists_the_discrete_law(tmp_path):
    # Z2 inverting Z4 on the discrete side; the parity cocycle twists the
    # law to r * s = (-1)^s r + s, the Klein four group
    for group in ("z2.group", "z4.group"):
        (tmp_path / group).write_text((SAMPLES / group).read_text())
    (tmp_path / "base.pair").write_text(
        "kind: tables\ndiscrete: z4.group\ncompact: z2.group\n"
        "alpha:\n0 1\n0 1\n0 1\n0 1\nbeta:\n0 1 2 3\n0 3 2 1\n")
    (tmp_path / "d.pair").write_text(
        "kind: deform\nbase: base.pair\nside: discrete\nchi:\n0 1 0 1\n")
    base = load_pair(str(tmp_path / "base.pair"))
    mp = load_pair(str(tmp_path / "d.pair"))
    orders = [sorted(p.discrete.element_orders().tolist())
              for p in (base, mp)]
    assert orders == [[1, 2, 4, 4], [1, 2, 2, 2]]


# ---------------------------------------------------------------------------
# pipeline refusals


def test_pipeline_refuses_an_unknown_shadow_target():
    from kacforge.cli import _build_parser
    args = _build_parser().parse_args(["shadow", "chebyshev"])
    args.target = "spectrum"
    with pytest.raises(ValidationError,
                       match=r"^\[shadow-target\] unknown shadow target "
                             r"'spectrum'$"):
        run_pipeline("shadow", InputBundle(), args=args)


def test_validate_names_each_broken_partition_relation():
    """A pair whose compact-side table is no action (beta of c2 replaced
    by beta of c1 on s4-cyclic4), kept unchecked, fails the partition
    matrices of two orbits, and the report names each relation there."""
    from kacforge.library import pair_s4
    mp = pair_s4()
    beta = mp.beta.copy()
    beta[2] = beta[1]
    broken = copy.copy(mp)
    broken.beta, broken.name = beta, "broken"
    b = InputBundle()
    b.pairs["broken"] = broken
    report = run_pipeline("validate", b)
    entry = report.entries()[-1]
    assert report.exit_code() == 2
    assert (entry.name, entry.status, entry.residual) == (
        "pair broken partition-matrices", "FAIL", 6.0)
    assert entry.witness == (
        "row-partition@orbit1:3; column-partition@orbit1:3; "
        "coproduct-splitting@orbit1:(3, 3, 3, 1); row-partition@orbit5:5; "
        "column-partition@orbit5:5; coproduct-splitting@orbit5:(5, 5, 3, 1)")
