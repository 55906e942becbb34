"""Corepresentations: invariants of the candidate builders, the two
intertwiner routes against each other and against classical character
theory, honest enumeration with the dimension-count certificate, fusion
audits, and both invariant groups with their structured models."""

from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacforge import groups, reps
from kacforge.cli import main, run_pipeline
from kacforge.errors import (IdentityViolated, NonIntegral, PeterWeylMismatch,
                             SeedDegenerate, ValidationError)
from kacforge.groups import (FiniteGroup, MatrixIrrep, character_table,
                             is_isomorphic_small, rounded_pairings)
from kacforge.hopf import build_algebra, compact_restriction_morphism
from kacforge.io_formats import load_pair, parse_inputs
from kacforge.library import (corpus_pairs, cyclic_group, pair_conjugation,
                              stabilizer_and_cycle, symmetric_group)
from kacforge.matched import (beta_kernel_elements, compact_subpair,
                              derive_actions, orbit_space, orbits_fixed_sets)
from kacforge.reps import (Corepresentation, audit_fusion, build_candidates,
                           candidate_corepresentation, check_corepresentation,
                           decompose, enumerate_irreps, fusion_counts,
                           fusion_formula_table, invariant_groups,
                           mor_dim_haar, mor_dim_solver)

from .helpers import trivial_pair
from .oracles import first_irrep_identification
from .test_groups import _patched
from .test_scripts import load_script

DATA = Path(__file__).resolve().parent / "data"
SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
CORPUS = {mp.name: mp for mp in corpus_pairs()}
SMALL = ["z6-abelian", "s3-split", "s3-split-dual", "conj-s3-rot",
         "s4-cyclic4"]

_state = {}


def algebra_of(name):
    key = ("alg", name)
    if key not in _state:
        _state[key] = build_algebra(CORPUS[name])
    return _state[key]


def catalog_of(name):
    key = ("cat", name)
    if key not in _state:
        _state[key] = enumerate_irreps(algebra_of(name))
    return _state[key]


def orbit_matrix(A, orbit):
    """The orbit matrix, built on an exact all-ones trivial irrep: entry
    (r, s) sums the basis elements u_r d_g over the fiber {g : r -> s}."""
    trivial = MatrixIrrep("1", 1, np.ones((A.nk, 1, 1)))
    return candidate_corepresentation(A, orbit, trivial)


def corep_from_dense(A, values, support, label=None):
    """The corepresentation whose (dim, dim, len(support)) coefficients on
    the basis elements ``support`` are ``values``: every cell is passed as
    an entry, and the constructor drops the zeros."""
    values = np.asarray(values)
    a, b, n = np.indices(values.shape).reshape(3, -1)
    return Corepresentation(A, len(values),
                            (a, b, np.asarray(support)[n], values.ravel()),
                            label=label)


def lifted_irrep(A, mx):
    """A compact irrep on the fixed orbit {e}, via point indicators."""
    return candidate_corepresentation(A, [A.pair.discrete.identity], mx)


# ---------------------------------------------------------------------------
# candidate builders and their invariants


@pytest.mark.parametrize("name", SMALL)
def test_candidates_satisfy_coaction_and_unitarity(name):
    cands, space, irreps = build_candidates(algebra_of(name))
    assert len(cands) == len(space.orbits) * len(irreps)
    for c in cands:
        assert check_corepresentation(c) < 1e-7


def test_candidate_closed_form_equals_actual_tensor():
    A = algebra_of("s3-split-dual")
    cands, space, irreps = build_candidates(A)
    for oi, orbit in enumerate(space.orbits):
        V = orbit_matrix(A, orbit)
        for xi, mx in enumerate(irreps):
            direct = cands[oi * len(irreps) + xi]
            via_tensor = V.tensor(lifted_irrep(A, mx))
            assert np.abs(direct.dense() - via_tensor.dense()).max() < 1e-9


def test_unit_candidate_is_the_unit():
    A = algebra_of("s3-split-dual")
    cands, space, irreps = build_candidates(A)
    # orbit of the discrete identity is a singleton; trivial compact irrep
    unit = cands[0]
    assert unit.dim == 1
    assert np.abs(unit.dense()[0, 0] - A.unit_vec).max() < 1e-12


def test_orbit_corep_matches_hand_expansion():
    # two-point orbit: off-diagonal entries collect the moving fiber
    A = algebra_of("s3-split-dual")
    mp = A.pair
    cands, space, irreps = build_candidates(A)
    orbit = space.orbits[1]
    assert len(orbit) == 2
    V = orbit_matrix(A, orbit)
    for rpos, r in enumerate(orbit):
        for spos, s in enumerate(orbit):
            expect = np.zeros(A.dim, dtype=complex)
            for g in range(A.nk):
                if mp.beta[g, r] == s:
                    expect[r * A.nk + g] += 1.0
            assert np.abs(V.dense()[rpos, spos] - expect).max() < 1e-12


def test_tensor_character_multiplies():
    A = algebra_of("conj-s3-rot")
    cands, _, _ = build_candidates(A)
    u, w = cands[1], cands[2]
    t = u.tensor(w)
    prod = A.mul_vec(u.character(), w.character())
    assert np.abs(t.character() - prod).max() < 1e-9
    assert check_corepresentation(t) < 1e-7


# ---------------------------------------------------------------------------
# the two intertwiner routes


def test_mor_dims_basic_values():
    A = algebra_of("s3-split-dual")
    cands, space, irreps = build_candidates(A)
    unit = cands[0]
    assert mor_dim_haar(unit, unit) == 1
    assert mor_dim_solver(unit, unit)[0] == 1
    two = [c for c in cands if c.dim == 2]
    assert mor_dim_haar(unit, two[0]) == 0
    assert mor_dim_solver(unit, two[0])[0] == 0


def test_equivalent_candidates_linked_by_sign_intertwiner():
    cands, _, _ = build_candidates(algebra_of("s3-split-dual"))
    two = [c for c in cands if c.dim == 2]
    assert len(two) == 2
    assert mor_dim_haar(two[0], two[1]) == 1
    d, basis = mor_dim_solver(two[0], two[1])
    assert d == 1
    T = basis[0] / basis[0][0, 0]
    assert np.abs(T - np.diag([1.0, -1.0])).max() < 1e-9


def test_schur_for_irreducibles():
    cat = catalog_of("conj-s3-rot")
    for c in cat.canonical:
        d, basis = mor_dim_solver(c, c)
        assert d == 1
        T = basis[0] / basis[0][0, 0]
        assert np.abs(T - np.eye(c.dim)).max() < 1e-8


def test_haar_route_rejects_non_integral_pairing():
    cands, _, _ = build_candidates(algebra_of("s3-split"))
    c = cands[1]
    scaled = Corepresentation(c.algebra, c.dim,
                              (c.row, c.col, c.basis, 1.3 * c.value))
    with pytest.raises(NonIntegral):
        mor_dim_haar(scaled, scaled)


@settings(max_examples=40, deadline=None)
@given(i=st.integers(0, 8), j=st.integers(0, 8))
def test_routes_agree_on_candidate_pairs(i, j):
    cands, _, _ = build_candidates(algebra_of("conj-s3-rot"))
    u, w = cands[i], cands[j]
    assert mor_dim_haar(u, w) == mor_dim_solver(u, w)[0]


def test_solver_matches_classical_clebsch_gordan():
    """On the plain function algebra the solver must reproduce the
    character-theoretic tensor multiplicities of the group."""
    G = symmetric_group(3)
    A = build_algebra(trivial_pair(G))
    from kacforge.groups import matrix_irreps
    irreps = matrix_irreps(G)
    lifted = [lifted_irrep(A, mx) for mx in irreps]
    table = character_table(G)
    chars = [table.char_on_elements(k) for k in range(len(irreps))]
    for x in range(3):
        for y in range(3):
            t = lifted[x].tensor(lifted[y])
            for z in range(3):
                classical = np.mean(chars[x] * chars[y] * np.conj(chars[z]))
                want = int(round(classical.real))
                assert mor_dim_solver(lifted[z], t)[0] == want
    # headline: 2dim x 2dim = trivial + sign + 2dim
    t22 = lifted[2].tensor(lifted[2])
    assert [mor_dim_solver(lifted[z], t22)[0] for z in range(3)] == [1, 1, 1]


# ---------------------------------------------------------------------------
# honest enumeration


EXPECTED_DIMS = {
    "z6-abelian": {1: 6},
    "s3-split": {1: 6},
    "s3-split-dual": {1: 2, 2: 1},
    "conj-s3-rot": {1: 6, 2: 3},
    "s4-cyclic4": {1: 8, 4: 1},
    "sign-on-z7": {1: 42},
    "dihedral7-twist": {1: 4, 2: 20},
    "double-s3-twist": {1: 12, 2: 24, 3: 12},
}


@pytest.mark.parametrize("name", list(EXPECTED_DIMS))
def test_catalog_dimensions(name):
    cat = catalog_of(name)
    assert dict(Counter(cat.dims())) == EXPECTED_DIMS[name]
    assert sum(d * d for d in cat.dims()) == algebra_of(name).dim


@pytest.mark.parametrize("name", SMALL)
def test_coefficients_span_everything(name):
    cat = catalog_of(name)
    assert cat.coefficient_span_rank() == algebra_of(name).dim


def test_enumeration_is_deterministic():
    A = build_algebra(CORPUS["s3-split-dual"])
    c1 = enumerate_irreps(A)
    c2 = enumerate_irreps(A)
    assert [c.label for c in c1.canonical] == [c.label for c in c2.canonical]
    assert c1.equivalence_map == c2.equivalence_map


def test_equivalence_map_covers_candidates():
    cat = catalog_of("s3-split-dual")
    # both 2-dim candidates collapse onto the same canonical entry
    ids = [cat.equivalence_map[ci] for ci, c in enumerate(cat.candidates)
           if c.dim == 2]
    assert ids[0] == ids[1]
    # every canonical id shows up somewhere
    seen = {k for ids in cat.equivalence_map.values() for k in ids}
    assert seen == set(range(len(cat.canonical)))


def test_decompose_splits_reducible_tensor():
    A = algebra_of("s3-split-dual")
    cands, _, _ = build_candidates(A)
    two = [c for c in cands if c.dim == 2]
    big = two[0].tensor(two[1])     # 4-dim, decomposes
    pieces = decompose(big)
    assert sum(p.dim for p in pieces) == 4
    assert all(mor_dim_solver(p, p)[0] == 1 for p in pieces)
    for p in pieces:
        assert check_corepresentation(p) < 1e-7


def _pair_named(name):
    """A corpus pair, or a larger one: S5 and S6 as (point stabilizer) *
    (n-cycle), S3 acting on S4 by conjugation, and GL(3,2) factored as
    S4 * C7 and as C7 * S4."""
    if name in CORPUS:
        return CORPUS[name]
    if name in ("s5-cyclic5", "s6-cyclic6"):
        return derive_actions(*stabilizer_and_cycle(int(name[1])), name=name)
    if name == "conj-s4-s3":
        S4 = symmetric_group(4)
        stab = [i for i, p in enumerate(S4.permutations) if p[3] == 3]
        return pair_conjugation(S4, stab, name=name)
    G, stab, seven = load_script("block_memory").gl32(groups)
    sides = (stab, seven) if name == "s4-c7" else (seven, stab)
    return derive_actions(G, *sides, name=name)


@pytest.mark.parametrize("name", list(CORPUS) + [
    "s5-cyclic5", "conj-s4-s3", "s6-cyclic6", "s4-c7", "c7-s4"])
def test_catalog_matches_the_pairing_table_loop(name, monkeypatch):
    """From the same pieces, the first-match rule gives the catalog that the
    loop over a pieces x pieces pairing table gave: the same pieces, in the
    same order, and the same equivalence map."""
    A = build_algebra(_pair_named(name))
    seen = []

    def pieces(coreps, seed, real=reps._irreducible_pieces):
        seen.append(real(coreps, seed))
        return seen[-1]
    monkeypatch.setattr(reps, "_irreducible_pieces", pieces)
    cat = enumerate_irreps(A)
    canonical, equivalence_map = first_irrep_identification(
        A, seen[0], cat.orbit_space)
    assert [id(c) for c in cat.canonical] == [id(c) for c in canonical]
    assert cat.equivalence_map == equivalence_map


def _neighbours(a, b, nk):
    """A pairing in which each piece of an orbit pairs with itself and
    with the pieces listed next to it, and with no other."""
    at = np.arange(len(a))
    return (abs(at[:, None] - at) <= 1).astype(np.int64)


def test_identification_refuses_a_pairing_that_is_not_transitive(
        monkeypatch, capsys):
    """With neighbouring pieces paired, o0*x2 pairs first with o0*x1, which
    pairs first with o0*x0: no single irrep names o0*x2.  The catalog is
    refused, and the command line reports a numeric breach (exit 2)."""
    monkeypatch.setattr(reps, "rounded_pairings", _neighbours)
    message = ("piece o0*x2 pairs first with o0*x1, which pairs first with "
               "o0*x0: the Haar pairing is not an equivalence")
    with pytest.raises(IdentityViolated) as err:
        enumerate_irreps(algebra_of("z6-abelian"))
    assert str(err.value) == message
    code = main(["irreps", str(SAMPLES / "s3_split.pair")])
    assert (code, capsys.readouterr()) == (2, ("", f"error: {message}\n"))


def test_catalog_refuses_a_short_dimension_count(monkeypatch):
    """If all pieces of an orbit paired, each orbit of z6-abelian would
    hold one irrep, and two irreps of dimension 1 do not fill dimension 6."""
    monkeypatch.setattr(reps, "rounded_pairings",
                        lambda a, b, nk: np.ones((len(a), len(b)), int))
    with pytest.raises(PeterWeylMismatch,
                       match=r"^sum of squared dims 2 != algebra dim 6$"):
        enumerate_irreps(algebra_of("z6-abelian"))


def _degenerate_eigh(times):
    """numpy's eigh with every eigenvalue 0 on its first ``times`` calls."""
    return _patched(np.linalg.eigh, lambda vals, vecs: (0 * vals, vecs),
                    times)[0]


def test_split_redraws_an_endomorphism_with_one_eigenvalue():
    """A draw whose two hermitian parts each have a single eigenvalue
    splits nothing and is redrawn; with every draw so, the split gives up
    with SeedDegenerate."""
    A = algebra_of("s3-split-dual")
    two = [c for c in build_candidates(A)[0] if c.dim == 2]
    big = two[0].tensor(two[1])
    want = sorted(p.dim for p in decompose(big))
    with mock.patch.object(np.linalg, "eigh", _degenerate_eigh(2)):
        assert sorted(p.dim for p in decompose(big)) == want == [1, 1, 2]
    with mock.patch.object(np.linalg, "eigh", _degenerate_eigh(99)), \
            pytest.raises(SeedDegenerate,
                          match=r"^could not split o1\*x0\(x\)o1\*x1 \(End "
                                r"dim 3\) after 8 draws$"):
        decompose(big)


def test_tensor_refuses_coreps_on_different_algebras():
    u = build_candidates(algebra_of("s3-split"))[0][0]
    w = build_candidates(algebra_of("s3-split-dual"))[0][0]
    with pytest.raises(ValidationError,
                       match=r"^\[corep-tensor\] different algebras$"):
        u.tensor(w)


# ---------------------------------------------------------------------------
# fusion closed form and the audit


def fusion_formula_of(name):
    """Closed-form fusion values [x, gamma, r, s] of a corpus pair."""
    mp = CORPUS[name]
    space = orbit_space(mp)
    table = character_table(mp.compact)
    return fusion_formula_table(mp, space,
                                table.chars[:, table.classes.class_of])


def test_fusion_formula_split_pair_is_orbit_delta():
    # trivial discrete-side action, trivial compact irrep: the value is the
    # indicator that the orbit product lands in the target orbit
    mp = CORPUS["s3-split"]
    formula = fusion_formula_of("s3-split")
    space = catalog_of("s3-split").orbit_space
    n_orb = len(space.orbits)
    for gi in range(n_orb):
        for ri in range(n_orb):
            for si in range(n_orb):
                r = space.orbits[ri][0]
                s = space.orbits[si][0]
                want = int(space.orbit_of[mp.discrete.cayley[r, s]] == gi)
                assert abs(formula[0, gi, ri, si] - want) < 1e-6


def test_fusion_formula_kills_nontrivial_character():
    # with the full compact group as fiber, a nontrivial character sums to 0
    formula = fusion_formula_of("s3-split")
    n_orb = len(catalog_of("s3-split").orbit_space.orbits)
    for gi in range(n_orb):
        assert abs(formula[1, gi, 0, 0]) < 1e-6


@pytest.mark.parametrize("name", ["s3-split", "s3-split-dual", "conj-s3-rot"])
def test_audit_oracle_consistency(name):
    report = audit_fusion(algebra_of(name), catalog_of(name))
    assert report.oracle_consistent


def test_audit_flags_collapsed_candidates():
    report = audit_fusion(algebra_of("s3-split-dual"),
                          catalog_of("s3-split-dual"))
    bad = [d for d in report.distinctness if d.status == "AUDIT-DISAGREE"]
    assert len(bad) == 1
    assert {bad[0].left, bad[0].right} == {"o1*x0", "o1*x1"}
    T = bad[0].intertwiner / bad[0].intertwiner[0, 0]
    assert np.abs(T - np.diag([1.0, -1.0])).max() < 1e-9


@pytest.mark.parametrize("fname", ["s3_split_dual", "z2_on_z4"])
def test_tensor_counts_equal_the_per_pair_routes(fname):
    """Each (z, u, w) of the canonical irreps, and each (candidate, orbit
    matrix, orbit matrix), listed in a shuffled order: the solver count is
    the solver's on the built tensor, and the tensor's character is the
    product of the factors' characters, so the Haar count is the pairing
    with the tensor and with the product."""
    A = build_algebra(load_pair(str(SAMPLES / f"{fname}.pair")))
    cat = enumerate_irreps(A)
    nx = len(cat.irreps)
    for sources, factors in ((cat.canonical, cat.canonical),
                             (cat.candidates, cat.candidates[::nx])):
        shape = (len(sources), len(factors), len(factors))
        triples = np.unravel_index(
            np.random.default_rng(7).permutation(np.prod(shape)), shape)
        chars = [np.array([c.character() for c in cs])
                 for cs in (sources, factors)]
        haar, solver = fusion_counts(sources, factors, triples, chars)
        for (i, l, r), h, d in zip(zip(*(t.tolist() for t in triples)),
                                   haar.tolist(), solver.tolist()):
            target = factors[l].tensor(factors[r])
            product = A.mul_vec(factors[l].character(),
                                factors[r].character())
            assert np.abs(target.character() - product).max() < 1e-9
            assert h == mor_dim_haar(sources[i], target) == rounded_pairings(
                [sources[i].character()], [product], A.nk)[0, 0]
            assert d == mor_dim_solver(sources[i], target)[0]


def _swapped_tensor(monkeypatch):
    """Make Corepresentation.tensor build w (x) u for u (x) w."""
    real = Corepresentation.tensor
    monkeypatch.setattr(Corepresentation, "tensor",
                        lambda self, other: real(other, self))


@pytest.mark.parametrize("name", ["double-s3-twist", "sign-on-z7"])
def test_audit_catches_a_tensor_with_swapped_factors(name, monkeypatch):
    """The Haar route reads no tensor, so a fault in the tensor builder
    moves the solver alone and the two routes part."""
    A, cat = algebra_of(name), catalog_of(name)
    assert audit_fusion(A, cat).oracle_consistent
    _swapped_tensor(monkeypatch)
    assert not audit_fusion(A, cat).oracle_consistent


def test_fusion_catches_a_tensor_with_swapped_factors(monkeypatch):
    from kacforge import cli
    _swapped_tensor(monkeypatch)
    report = cli.run_pipeline("fusion",
                              parse_inputs([str(SAMPLES / "s4_s3_z4.pair")]))
    agreement = report.entries()[0]
    assert agreement.name.endswith("route-agreement")
    assert agreement.status == "FAIL"


def test_fusion_routes_read_no_tensor_character(monkeypatch):
    """The audit and ``kacforge fusion`` take Haar numbers from products of
    the factors' characters; only the solver reads the built tensors."""
    from kacforge import cli
    real, read, built = Corepresentation.character, [], []
    real_tensor = Corepresentation.tensor

    def spy(self):
        read.append(self.label)
        return real(self)

    def tensor_spy(self, other):
        built.append(1)
        return real_tensor(self, other)

    monkeypatch.setattr(Corepresentation, "character", spy)
    monkeypatch.setattr(Corepresentation, "tensor", tensor_spy)
    audit_fusion(algebra_of("s3-split"), catalog_of("s3-split"))
    cli.run_pipeline("fusion",
                     parse_inputs([str(SAMPLES / "s3_split_dual.pair")]))
    assert read and built
    assert not [label for label in read if "(x)" in label]


def test_audit_counts_a_solver_mismatch_on_a_candidate_pair(monkeypatch):
    """A solver dimension off by one on the collapsed candidate pair alone:
    every triple still agrees, but the routes are no longer consistent and
    ``kacforge audit`` reports solver-vs-haar as FAIL."""
    from kacforge import cli
    A = build_algebra(load_pair(str(SAMPLES / "s3_split_dual.pair")))
    cat = enumerate_irreps(A)
    cands, real = {id(c) for c in cat.candidates}, reps.mor_dims

    def lying(coreps, ui, wi):
        return [(d + (coreps[u] is not coreps[w] and id(coreps[w]) in cands),
                 basis) for u, w, (d, basis) in zip(
                     np.asarray(ui).tolist(), np.asarray(wi).tolist(),
                     real(coreps, ui, wi))]

    monkeypatch.setattr(reps, "mor_dims", lying)
    report = audit_fusion(A, cat)
    assert all(e.solver == e.haar for e in report.entries)
    assert [(d.mor_dim, d.solver) for d in report.distinctness] == [(1, 2)]
    assert not report.oracle_consistent
    monkeypatch.setattr(cli, "_algebra_and_catalog", lambda mp, seed: (A, cat))
    rep = cli.run_pipeline("audit",
                           parse_inputs([str(SAMPLES / "s3_split_dual.pair")]))
    assert {e.name: e.status for e in rep.entries()}[
        "dual-sample solver-vs-haar"] == "FAIL"
    assert rep.exit_code() == 2


def test_audit_no_disagreements_on_distinct_catalog():
    report = audit_fusion(algebra_of("s3-split"), catalog_of("s3-split"))
    assert report.disagreements() == []


def test_audit_finds_flip_partners():
    for name in ["s3-split", "s3-split-dual"]:
        report = audit_fusion(algebra_of(name), catalog_of(name))
        assert all(f.partner is not None for f in report.flips)


@pytest.mark.parametrize("name", ["sign-on-z7", "double-s3-twist"])
def test_audit_computes_each_character_once(name, monkeypatch):
    """One character per candidate and one per orbit tensor built; the
    solver is stubbed out, as it reads no character."""
    A, cat = algebra_of(name), catalog_of(name)
    calls = Counter()

    def counted(method):
        def wrapper(self, *args):
            calls[method.__name__] += 1
            return method(self, *args)
        return wrapper

    for method in (Corepresentation.character, Corepresentation.tensor):
        monkeypatch.setattr(Corepresentation, method.__name__,
                            counted(method))
    monkeypatch.setattr(reps, "mor_dims",
                        lambda coreps, ui, wi: [(0, [])] * len(ui))
    audit_fusion(A, cat)
    assert calls["tensor"] <= len(cat.orbit_space.orbits) ** 2
    assert calls["character"] <= len(cat.candidates) + calls["tensor"]


def test_audit_equals_side_built_route_when_identity_is_listed_second():
    # the discrete identity is element 1, so {e} is orbit 1, not orbit 0
    mp = load_pair(str(DATA / "split_identity_last.pair"))
    A = build_algebra(mp)
    cat = enumerate_irreps(A)
    space, nx = cat.orbit_space, len(cat.irreps)
    assert space.orbit_of[mp.discrete.identity] == 1
    report = audit_fusion(A, cat)
    orbit_coreps = [orbit_matrix(A, orbit) for orbit in space.orbits]
    lifted = [lifted_irrep(A, mx) for mx in cat.irreps]
    labels = [mx.label for mx in cat.irreps]
    assert len(report.entries) == report.triples_total
    for e in report.entries:
        cand = cat.candidates[e.gamma_orbit * nx + labels.index(e.x_label)]
        target = orbit_coreps[e.r_orbit].tensor(orbit_coreps[e.s_orbit])
        assert e.solver == mor_dim_solver(cand, target)[0]
        assert e.haar == mor_dim_haar(cand, target)

    def partner(cand):
        for lx, mx in zip(lifted, cat.irreps):
            for oi, oc in enumerate(orbit_coreps):
                chi = A.mul_vec(lx.character(), oc.character())
                if (lx.dim * oc.dim == cand.dim
                        and np.abs(chi - cand.character()).max() < 1e-8):
                    return mx.label, oi
        return None
    assert [(f.candidate, f.partner) for f in report.flips] == [
        (c.label, partner(c)) for c in cat.candidates]


# ---------------------------------------------------------------------------
# invariant groups


EXPECTED_INVARIANTS = {
    # name: (intrinsic order, spectrum order)
    "z6-abelian": (6, 6),
    "s3-split": (6, 2),
    "s3-split-dual": (2, 6),
    "conj-s3-rot": (6, 9),
    "s4-cyclic4": (8, 2),
    "sign-on-z7": (42, 2),
    "dihedral7-twist": (4, 4),
    "double-s3-twist": (12, 4),
}


@pytest.mark.parametrize("name", list(EXPECTED_INVARIANTS))
def test_invariant_group_orders_and_models(name):
    inv = invariant_groups(algebra_of(name), catalog_of(name))
    want_int, want_sp = EXPECTED_INVARIANTS[name]
    assert inv.intrinsic.order == want_int
    assert inv.spectrum.order == want_sp
    assert inv.intrinsic_iso[0], "structured model mismatch (intrinsic)"
    assert inv.spectrum_iso[0], "structured model mismatch (spectrum)"


def test_intrinsic_of_split_pair_is_full_permutation_group():
    inv = invariant_groups(algebra_of("s3-split"), catalog_of("s3-split"))
    ok, _ = is_isomorphic_small(inv.intrinsic, symmetric_group(3))
    assert ok


def test_conjugation_pair_invariants_split_as_products():
    inv = invariant_groups(algebra_of("conj-s3-rot"), catalog_of("conj-s3-rot"))
    ok6, _ = is_isomorphic_small(inv.intrinsic, cyclic_group(6))
    assert ok6
    z3 = cyclic_group(3)
    from kacforge.groups import direct_product
    ok9, _ = is_isomorphic_small(inv.spectrum, direct_product(z3, z3))
    assert ok9


def test_intrinsic_group_refuses_a_corrupted_one_dim_irrep():
    """The 1-dim irreps are checked together on their direct sum: one
    corrupted irrep among them still raises, and the error gives the worst
    deviation of the corrupted ones."""
    A = algebra_of("s3-split")
    cat = catalog_of("s3-split")
    canonical = list(cat.canonical)
    ones = [k for k, c in enumerate(canonical) if c.dim == 1]
    worst = 0.0
    for k, scale in ((ones[1], 2.0), (ones[-1], 3.0)):
        c = canonical[k]
        value = c.value.copy()
        value[0] *= scale
        canonical[k] = Corepresentation(A, 1, (c.row, c.col, c.basis, value),
                                        label=c.label)
        worst = max(worst, check_corepresentation(canonical[k]))
        with pytest.raises(ValidationError,
                           match="intrinsic-grouplike") as err:
            invariant_groups(A, replace(cat, canonical=canonical))
        assert str(err.value).endswith(f"worst deviation {worst:.3e}")
    invariant_groups(A, cat)        # the catalog itself is untouched


def _failing(real, fails):
    """``real`` with every result entry set to -1 on the calls that
    ``fails`` picks out from their arguments."""
    def call(*args):
        out = real(*args)
        if fails(*args):
            out[...] = -1
        return out
    return call


def _same(table, vectors):
    return table.shape == vectors.shape and np.allclose(table, vectors)


@pytest.mark.parametrize("code", ["intrinsic-closure", "intrinsic-model",
                                  "spectrum-closure", "spectrum-model"])
def test_invariant_groups_name_the_stage_that_fails(code):
    """A product that leaves the set fails its group's closure, and a
    twisted character outside the dual fails its model: on conj-s3-rot
    (|R| = 6, |K| = 3) each of the four stages is made to fail alone."""
    A, cat = algebra_of("conj-s3-rot"), catalog_of("conj-s3-rot")
    inv = invariant_groups(A, cat)
    ones = np.array([c.character() for c in cat.canonical if c.dim == 1])
    spectrum = np.array(inv.spectrum_vectors)
    nr = A.pair.discrete.order
    assert A.pair.compact.order != nr and not _same(ones, spectrum)
    if code.endswith("closure"):
        vectors = ones if code.startswith("intrinsic") else spectrum
        real = groups.row_matcher     # closure_table's matcher per table
        patch = mock.patch.object(groups, "row_matcher", lambda table, tol: (
            _failing(real(table, tol), lambda *_: _same(table, vectors))))
    else:
        on_r = code.startswith("spectrum")
        patch = mock.patch.object(reps, "permuted_rows", _failing(
            reps.permuted_rows, lambda rows, *_: (rows.shape[1] == nr) == on_r))
    with patch, pytest.raises(ValidationError, match=rf"^\[{code}\] "):
        invariant_groups(A, cat)


def _broken_at_point(A, table, g, empty):
    """Tables of ``A`` with the law ``table`` broken for every algebra
    character at compact point g: products of its basis elements, or
    their stars, land on the point ``empty`` (where no character lives),
    or the unit's weight there is doubled."""
    at = A.g_of == g
    moved = A.gamma_of * A.nk + empty              # (r, empty) of each (r, h)
    if table == "result":
        return np.where(at[:, None], moved[A.result], A.result)
    if table == "star_index":
        return np.where(at, moved, A.star_index)
    return np.where(at, 2, 1) * A.unit_vec


@pytest.mark.parametrize("table", ["result", "star_index", "unit_vec"])
def test_spectrum_search_skips_the_characters_that_break_a_law(table):
    """On conj-s3-rot the algebra characters sit at compact points 0, 2
    and 5.  Once the intrinsic group is built, the ``table`` law is broken
    at point 2: the search then skips each character there, at the check
    of that law, and offers the others to the spectrum group."""
    A = build_algebra(CORPUS["conj-s3-rot"])
    cat = catalog_of("conj-s3-rot")
    offered = []

    class Offered(Exception):
        pass

    def offer(vectors, products, labels, name, *rest, broken,
              real=reps._invariant_group):
        if name == "spectrum":
            raise Offered(labels)
        out = real(vectors, products, labels, name, *rest)
        if broken:
            setattr(A, table, _broken_at_point(A, table, 2, 1))
        return out
    for broken in (False, True):
        with mock.patch.object(reps, "_invariant_group",
                               lambda *a, b=broken: offer(*a, broken=b)), \
                pytest.raises(Offered) as err:
            invariant_groups(A, cat)
        offered.append(err.value.args[0])
    K = A.pair.compact.labels
    points = [K.index(label[1:].split(",")[0]) for label in offered[0]]
    assert points == [0, 0, 0, 2, 2, 2, 5, 5, 5]
    assert offered[1] == offered[0][:3] + offered[0][6:]


@pytest.mark.parametrize("name", ["s3-split", "s4-cyclic4"])
def test_an_empty_spectrum_is_refused_at_its_stage(name):
    """With the unit's weight at basis 0 set to 2 no algebra character
    passes the unit check: the spectrum stage refuses the empty set."""
    A = build_algebra(CORPUS[name])
    A.unit_vec[0] = 2
    with pytest.raises(ValidationError, match=r"^\[spectrum-characters\] "):
        invariant_groups(A, catalog_of(name))


def test_candidates_and_validate_build_no_subgroup():
    """Only the orbit space is read by the candidate builder and by
    ``kacforge validate``; neither builds a fixed subgroup."""
    A = algebra_of("conj-s3-rot")
    bundle = parse_inputs([str(SAMPLES / "s4_s3_z4.pair")])
    spy = mock.patch.object(FiniteGroup, "subgroup", autospec=True,
                            side_effect=FiniteGroup.subgroup)
    with spy as subgroup:
        enumerate_irreps(A)
        run_pipeline("validate", bundle)
    assert subgroup.call_count == 0


def test_spectrum_supports_lie_in_fixed_points():
    from kacforge.groups import dual_group
    for name in ["s3-split-dual", "s4-cyclic4", "dihedral7-twist"]:
        A = algebra_of(name)
        inv = invariant_groups(A, catalog_of(name))
        _, _, (fix_k, fix_el) = orbits_fixed_sets(A.pair)
        # compact support points of the algebra characters
        support = {int(A.g_of[i]) for phi in inv.spectrum_vectors
                   for i in np.flatnonzero(np.abs(phi) > 1e-9)}
        assert support == set(fix_el)
        dual_order = dual_group(A.pair.discrete).group.order
        assert inv.spectrum.order == fix_k.order * dual_order


# ---------------------------------------------------------------------------
# restriction to a compact subpair


def test_branching_restriction_dimension_count():
    mp = CORPUS["s4-cyclic4"]
    A = algebra_of("s4-cyclic4")
    cat = catalog_of("s4-cyclic4")
    kernel = beta_kernel_elements(mp)
    sub_mp, embed = compact_subpair(mp, kernel)
    A0 = build_algebra(sub_mp)
    rho = compact_restriction_morphism(A, A0, embed)
    M = np.zeros((A0.dim + 1, A.dim))       # the 0/1 matrix of rho.image
    M[rho.image, np.arange(A.dim)] = 1.0
    cat0 = enumerate_irreps(A0)
    hit = set()
    # every source irrep pushes to a rep whose decomposition fills its dim
    for x in cat.canonical:
        pushed = corep_from_dense(
            A0, np.einsum("mn,ijn->ijm", M[:-1], x.dense()),
            np.arange(A0.dim))
        total = 0
        for yi, y in enumerate(cat0.canonical):
            mult = mor_dim_solver(y, pushed)[0]
            if mult:
                hit.add(yi)
            total += mult * y.dim
        assert total == x.dim
    # and every target irrep is hit by someone
    assert hit == set(range(len(cat0.canonical)))


def test_sampled_audit_says_it_was_sampled():
    A = algebra_of("s4-cyclic4")
    full = audit_fusion(A, catalog_of("s4-cyclic4"))
    with mock.patch.object(reps, "AUDIT_TRIPLES", 10):
        part = audit_fusion(A, catalog_of("s4-cyclic4"))
    assert full.triples_total == part.triples_total == len(full.entries) > 10
    assert len(part.entries) == 10
    assert full.coverage("complete") == "complete"
    assert part.coverage("complete") == (
        f"checked 10 of {part.triples_total} triples (sampled, seed 0xc0ffee)")
