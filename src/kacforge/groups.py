"""Finite groups as dense multiplication tables, and their basic invariants.

Elements are integer indices into a Cayley table.  Constructors exist for
explicit tables, permutation generators, and integer matrix generators mod m.
All randomized steps (character tables, irrep extraction) take an explicit
seed and retry deterministically.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import (CHARTABLE_CAP, CLOSURE_CAP, DEFAULT_SEED, ISO_CAP,
                     RETRY_BUDGET, TABLE_CAP, TOL_EQ, TOL_INT, TOL_MULT)
from .errors import (ExtractionFailed, NotAnAction, SeedDegenerate, SizeBound,
                     ValidationError)


def rng_from(seed, *salt):
    """Deterministic generator from a seed plus integer salt words."""
    return np.random.default_rng((int(seed),) + tuple(int(s) for s in salt))


# entries per row block of the larger temporaries
_BLOCK = 1 << 18


def _row_blocks(n, per_row):
    step = max(1, _BLOCK // max(per_row, 1))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _blockwise(n, per_row, fn):
    """``fn`` over row blocks of ``range(n)``, results concatenated."""
    return np.concatenate([fn(blk) for blk in _row_blocks(n, per_row)])


def match_rows(table, queries, tol):
    """For each query row, the index of the single row of ``table`` within
    ``tol`` of it in max-abs, or -1 when no row or more than one row is
    that close.  Temporaries stay in row blocks of bounded size."""
    out = np.full(len(queries), -1, dtype=np.int64)
    for blk in _row_blocks(len(queries), table.size):
        close = np.abs(queries[blk, None] - table).max(2, initial=0.0) <= tol
        out[blk] = np.where(close.sum(1) == 1, close.argmax(1), -1)
    return out


# ---------------------------------------------------------------------------
# core type


class FiniteGroup:
    """A finite group given by its full multiplication table.

    cayley[a, b] is the index of the product ab.  Construction checks the
    group axioms exactly: a two-sided identity, inverses, latin rows and
    columns, and associativity by Light's test over a generating set.
    """

    def __init__(self, cayley, labels=None, source="cayley"):
        table = np.ascontiguousarray(cayley, dtype=np.int32)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValidationError("square-table", f"table shape {table.shape}")
        n = table.shape[0]
        if n == 0:
            raise ValidationError("nonempty", "empty table")
        if table.min() < 0 or table.max() >= n:
            raise ValidationError("index-range", "table entries out of range")
        self.order = n
        self.cayley = table
        self.cayley.flags.writeable = False
        self.source = source
        self.labels = list(labels) if labels is not None else [f"g{i}" for i in range(n)]
        if len(self.labels) != n:
            raise ValidationError("labels", "label count != order")
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        self._validate()
        self._class_cache = None
        self._orders = None

    # -- construction checks ------------------------------------------------

    def _find_identity(self):
        ar = np.arange(self.order, dtype=np.int32)
        for e in range(self.order):
            if np.array_equal(self.cayley[e], ar) and np.array_equal(self.cayley[:, e], ar):
                return e
        raise ValidationError("identity", "no two-sided identity")

    def _find_inverses(self):
        inv = np.full(self.order, -1, dtype=np.int32)
        rows, cols = np.nonzero(self.cayley == self.identity)
        inv[rows] = cols
        if (inv < 0).any():
            raise ValidationError("inverses", "element without inverse")
        return inv

    def _validate(self):
        n, C = self.order, self.cayley
        ar = np.arange(n)
        if (np.sort(C, 1) != ar).any():
            raise ValidationError("latin-rows", "some row is not a permutation")
        if (np.sort(C, 0) != ar[:, None]).any():
            raise ValidationError("latin-columns", "some column is not a permutation")
        # Light's test: the a with (xa)y = x(ay) for all x, y are closed under
        # the product, so checking a generating set certifies every triple.
        # A group needs at most log2(n) + 1 generators, each checked in O(n^2).
        for a in _generating_sequence(self):
            bad = C[C[:, a]] != C[:, C[a]]
            if bad.any():
                x, y = np.argwhere(bad)[0]
                raise ValidationError("associativity", f"({x},{a},{y}) fails")

    # -- elementwise operations --------------------------------------------

    def mul(self, a, b):
        return int(self.cayley[a, b])

    def inv(self, a):
        return int(self.inverse[a])

    def element_order(self, a):
        return int(self.element_orders()[a])

    def element_orders(self):
        """Order of every element, from the powers of all elements at once;
        computed once and kept on the group."""
        if self._orders is None:
            ar = np.arange(self.order)
            orders = np.zeros(self.order, dtype=np.int64)
            power, k = ar, 1
            while not orders.all():
                orders[(power == self.identity) & (orders == 0)] = k
                power, k = self.cayley[power, ar], k + 1
            orders.flags.writeable = False
            self._orders = orders
        return self._orders

    def is_abelian(self):
        return np.array_equal(self.cayley, self.cayley.T)

    def exponent(self):
        return int(np.lcm.reduce(self.element_orders()))

    # -- subgroup machinery -------------------------------------------------

    def closure(self, gens):
        """Sorted element list of the subgroup generated by ``gens``."""
        gens = np.fromiter(gens, dtype=np.intp)
        reached = np.zeros(self.order, dtype=bool)
        reached[self.identity] = True
        frontier = np.array([self.identity])
        while len(frontier):
            nxt = _blockwise(len(frontier), len(gens), lambda blk: self.cayley[
                np.ix_(gens, frontier[blk])].ravel())
            frontier = np.unique(nxt[~reached[nxt]])
            reached[frontier] = True
        return np.flatnonzero(reached).tolist()

    def subgroup(self, elements):
        """Induced group on a closed subset; returns (group, parent indices)."""
        elements = np.sort(np.fromiter(elements, dtype=np.intp))
        pos = np.full(self.order, -1, dtype=np.int32)
        pos[elements] = np.arange(len(elements))
        table = pos[self.cayley[np.ix_(elements, elements)]]
        open_rows = (table < 0).any(1)
        if open_rows.any():
            raise ValidationError("closed-subset", "subset not closed at "
                                  f"element {elements[open_rows.argmax()]}")
        labels = [self.labels[x] for x in elements]
        return (FiniteGroup(table, labels=labels, source=self.source),
                elements.tolist())

    def commutator_subgroup_elements(self):
        """The subgroup generated by all commutators a^-1 b^-1 a b."""
        C, inv = self.cayley, self.inverse
        comms = _blockwise(self.order, self.order, lambda blk: np.unique(
            C[C[inv[blk, None], inv], C[blk]]))
        return self.closure(np.unique(comms))

    def is_normal(self, elements):
        elems = np.fromiter(elements, dtype=np.intp)
        inside = np.zeros(self.order, dtype=bool)
        inside[elems] = True
        C, inv = self.cayley, self.inverse
        # g x g^-1 for every g (rows) and every x in the subset (columns)
        return bool(_blockwise(self.order, len(elems), lambda blk: inside[
            C[C[blk][:, elems], inv[blk, None]]].all(1)).all())

    def __repr__(self):
        return f"FiniteGroup(order={self.order}, source={self.source!r})"


# ---------------------------------------------------------------------------
# derived records


@dataclass(frozen=True)
class AbelianGroup:
    """Invariant-factor form d1 | d2 | ... (each >= 2) plus free rank."""

    invariant_factors: tuple
    free_rank: int = 0

    @property
    def order(self):
        return None if self.free_rank else math.prod(self.invariant_factors)

    def __str__(self):
        parts = [f"Z/{d}" for d in self.invariant_factors]
        parts += ["Z"] * self.free_rank
        return " x ".join(parts) if parts else "trivial"


@dataclass(frozen=True)
class Presentation:
    """Abelianized presentation: relators as exponent rows over the generators."""

    n_generators: int
    relators: tuple

    def __post_init__(self):
        for row in self.relators:
            if len(row) != self.n_generators:
                raise ValidationError("relator-width",
                                      f"relator {row} has wrong width")


@dataclass
class ConjugacyData:
    group: FiniteGroup
    classes: list            # list of sorted element lists, identity class first
    class_of: np.ndarray     # element index -> class index
    center: list             # sorted central element indices

    def centralizer(self, elements):
        """Elements commuting with every member of ``elements``."""
        C = self.group.cayley
        elems = np.fromiter(elements, dtype=np.intp)
        return np.flatnonzero(_blockwise(len(C), len(elems), lambda blk: (
            C[blk][:, elems] == C[elems, blk].T).all(1))).tolist()


@dataclass
class CharacterTable:
    group: FiniteGroup
    classes: ConjugacyData
    class_reps: list
    class_sizes: list
    chars: np.ndarray        # (n_irreps, n_classes) complex
    dims: list

    @property
    def n_irreps(self):
        return self.chars.shape[0]

    def char_on_elements(self, row):
        """Expand a row to a function on the whole group."""
        return self.chars[row][self.classes.class_of]


@dataclass
class MatrixIrrep:
    label: str
    dim: int
    matrices: np.ndarray     # (order, dim, dim): one unitary per element

    def character(self):
        return np.trace(self.matrices, axis1=1, axis2=2)


@dataclass
class DualGroup:
    """Pontryagin-style dual data: characters of G pulled back from G/[G,G]."""

    abelian: AbelianGroup
    characters: np.ndarray   # (m, |G|) complex, row 0 = trivial character
    group: FiniteGroup       # the characters under pointwise product


# ---------------------------------------------------------------------------
# constructors


def group_from_cayley(table, labels=None):
    return FiniteGroup(table, labels=labels, source="cayley")


def _perm_label(p):
    """Cycle-notation label; identity is 'e'."""
    n = len(p)
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        cycles.append(cyc)
    if not cycles:
        return "e"
    sep = "" if n <= 9 else " "
    return "".join("(" + sep.join(str(x + 1) for x in c) + ")" for c in cycles)


def _spanning_tree(gens, compose, identity, cap):
    """Queue BFS of the Cayley graph from the identity.

    Returns the elements in discovery order (identity first); for each, the
    position of its parent x and of its generator g (y = g x; both 0 for the
    identity); and left[g, x], the position of g x.
    """
    elems, index = [identity], {identity: 0}
    parent, via, left = [0], [0], []
    for i, x in enumerate(elems):            # grows while read: queue order
        for gi, g in enumerate(gens):
            y = compose(g, x)
            j = index.get(y)
            if j is None:
                if len(elems) >= cap:
                    raise SizeBound(f"closure exceeds cap {cap}")
                j = index[y] = len(elems)
                elems.append(y)
                parent.append(i)
                via.append(gi)
            left.append(j)
    left = np.array(left, dtype=np.int32).reshape(len(elems), len(gens)).T
    return elems, np.array(parent), np.array(via), left


def _cayley_from_generators(gens, compose, identity, cap, table_cap):
    """Elements generated by ``gens`` in BFS discovery order, with their
    Cayley table filled from the spanning tree: since y b = g (x b), row y
    is row x gathered through left[g].  That is |gens| n products and n row
    gathers."""
    elems, parent, via, left = _spanning_tree(gens, compose, identity, cap)
    n = len(elems)
    if n > table_cap:
        raise SizeBound(f"order {n} exceeds dense-table cap {table_cap}")
    table = np.empty((n, n), dtype=np.int32)
    table[0] = np.arange(n)
    for y in range(1, n):
        table[y] = left[via[y], table[parent[y]]]
    return elems, table


def group_from_permutations(gens, degree=None, table_cap=TABLE_CAP):
    """Group generated by permutations given as image tuples."""
    gens = [tuple(int(v) for v in g) for g in gens]
    if degree is None:
        degree = max((len(g) for g in gens), default=1)
    norm = []
    for g in gens:
        if sorted(g) != list(range(len(g))):
            raise ValidationError("permutation", f"{g} is not a permutation")
        norm.append(tuple(g) + tuple(range(len(g), degree)))
    ident = tuple(range(degree))

    def compose(p, q):
        return tuple(p[q[i]] for i in range(degree))

    elems, table = _cayley_from_generators(norm, compose, ident, CLOSURE_CAP,
                                           table_cap)
    labels = [_perm_label(p) for p in elems]
    G = FiniteGroup(table, labels=labels, source="permutation-generators")
    G.permutations = elems
    return G


def group_from_matrices_mod(gens, modulus):
    """Group generated by integer matrices modulo m."""
    if modulus < 2:
        raise ValidationError("modulus", "modulus must be >= 2")
    mats = []
    for g in gens:
        a = np.array(g, dtype=np.int64) % modulus
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError("matrix", "generators must be square")
        mats.append(a)
    dim = mats[0].shape[0]
    if any(m.shape[0] != dim for m in mats):
        raise ValidationError("matrix", "generator sizes differ")

    def key(a):
        return tuple(a.ravel().tolist())

    def compose(g, x):              # generator matrix times an element's key
        return key(g @ np.reshape(x, (dim, dim)) % modulus)

    elems, table = _cayley_from_generators(
        mats, compose, key(np.eye(dim, dtype=np.int64)), CLOSURE_CAP, TABLE_CAP)

    def mat_label(k):
        rows = [" ".join(str(v) for v in k[i * dim:(i + 1) * dim]) for i in range(dim)]
        return "(" + "|".join(rows) + ")"

    labels = [mat_label(k) for k in elems]
    return FiniteGroup(table, labels=labels, source="matrix-generators-mod-m")


def semidirect_product(N, Q, action, labels=None):
    """Split extension from a homomorphism Q -> Aut(N).

    ``action[q][n]`` is the image of n under the automorphism attached to q.
    Element (n, q) has index n*|Q| + q and law (n,q)(n',q') = (n act_q(n'), qq').
    Raises NotAnAction when the table fails any action law.
    """
    act = np.ascontiguousarray(action, dtype=np.int32)
    if act.shape != (Q.order, N.order):
        raise NotAnAction(f"action table shape {act.shape} != ({Q.order},{N.order})")
    for q in range(Q.order):
        if len(np.unique(act[q])) != N.order:
            raise NotAnAction(f"action of q={q} is not a bijection")
    if not np.array_equal(act[Q.identity], np.arange(N.order)):
        raise NotAnAction("identity of Q does not act trivially")
    CN, CQ = N.cayley, Q.cayley
    for q in range(Q.order):
        if not np.array_equal(act[q][CN], CN[np.ix_(act[q], act[q])]):
            raise NotAnAction(f"action of q={q} is not an automorphism")
    for p in range(Q.order):
        comp = act[p][act]          # comp[q] = act_p . act_q
        if not np.array_equal(act[CQ[p]], comp):
            q = next(qq for qq in range(Q.order)
                     if not np.array_equal(act[CQ[p, qq]], comp[qq]))
            raise NotAnAction(f"act_(pq) != act_p act_q at p={p}, q={q}")

    nN, nQ = N.order, Q.order
    n_idx, q_idx = np.divmod(np.arange(nN * nQ, dtype=np.int32), nQ)
    # (n,q)(n',q'): first factor n * act_q(n'), second q q'
    first = CN[n_idx[:, None], act[q_idx[:, None], n_idx[None, :]]]
    second = CQ[q_idx[:, None], q_idx[None, :]]
    table = first.astype(np.int64) * nQ + second
    if labels is None:
        labels = [f"({N.labels[n]}|{Q.labels[q]})" for n, q in zip(n_idx, q_idx)]
    return FiniteGroup(table, labels=labels, source="cayley")


def direct_product(A, B):
    action = np.tile(np.arange(A.order, dtype=np.int32), (B.order, 1))
    return semidirect_product(A, B, action)


def quotient_group(G, normal_elements):
    """Quotient by a normal subgroup; returns (Q, projection array)."""
    elems = np.unique(np.fromiter(normal_elements, dtype=np.intp))
    if G.closure(elems) != elems.tolist() or not G.is_normal(elems):
        raise ValidationError("normality", "subset is not a normal subgroup")
    C = G.cayley
    # each coset gN is labelled by its least element
    lead = _blockwise(G.order, len(elems),
                      lambda blk: C[blk][:, elems].min(1))
    reps = np.unique(lead)
    proj = np.searchsorted(reps, lead).astype(np.int32)
    labels = [G.labels[r] + "N" for r in reps]
    return FiniteGroup(proj[C[np.ix_(reps, reps)]], labels=labels), proj


# ---------------------------------------------------------------------------
# conjugacy, classes


def conjugacy_and_center(G):
    """Conjugacy classes (identity class first, then by size/min element)."""
    if G._class_cache is not None:
        return G._class_cache
    n = G.order
    C, inv = G.cayley, G.inverse
    # the class of x is named by its least member, the min of g x g^-1
    lead = _blockwise(n, n, lambda blk: C[C[:, blk], inv[:, None]].min(0))
    reps, lead_at, sizes = np.unique(lead, return_inverse=True,
                                     return_counts=True)
    order = np.lexsort((reps, sizes, reps != G.identity))
    class_of = np.argsort(order).astype(np.int32)[lead_at]
    raw = [c.tolist() for c in np.split(np.argsort(class_of, kind="stable"),
                                        np.cumsum(sizes[order])[:-1])]
    center = np.flatnonzero(sizes[lead_at] == 1).tolist()
    data = ConjugacyData(group=G, classes=raw, class_of=class_of, center=center)
    G._class_cache = data
    return data


# ---------------------------------------------------------------------------
# abelian invariants


def _smith_invariants(rows, n_cols):
    """Invariant factors (>1) and free rank of Z^n_cols / <rows>, exact."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    if not rows:
        return (), n_cols
    m = smith_normal_form(Matrix(list(rows)), domain=ZZ)
    diag = [abs(int(m[i, i])) for i in range(min(m.rows, m.cols))]
    nonzero = [d for d in diag if d != 0]
    free = n_cols - len(nonzero)
    factors = tuple(d for d in nonzero if d > 1)
    return factors, free


def _abelian_invariants_of_group(G):
    if not G.is_abelian():
        raise ValidationError("abelian", "group is not abelian")
    n = G.order
    if n == 1:
        return AbelianGroup((), 0)
    orders = G.element_orders()
    exponent = G.exponent()
    factors_by_prime = {}
    for p in _prime_factors(n):
        # m[j-1] = #{cyclic p-power factors with exponent >= j}, recovered
        # from counting elements of order dividing p^j
        m, prev, j = [], 0, 1
        while p ** (j - 1) < exponent:
            c = sum(1 for o in orders if (p ** j) % o == 0)
            s = _int_log(c, p)
            if s == prev:
                break
            m.append(s - prev)
            prev = s
            j += 1
        e_list = []
        for j in range(1, len(m) + 1):
            cnt = m[j - 1] - (m[j] if j < len(m) else 0)
            e_list += [j] * cnt
        factors_by_prime[p] = sorted(e_list, reverse=True)
    width = max(len(v) for v in factors_by_prime.values())
    inv = []
    for i in range(width):
        d = 1
        for p, exps in factors_by_prime.items():
            if i < len(exps):
                d *= p ** exps[i]
        inv.append(d)
    inv = tuple(sorted(inv))
    assert math.prod(inv) == n, (inv, n)      # sanity: orders multiply back
    return AbelianGroup(inv, 0)


def _prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _int_log(c, p):
    k = 0
    while c > 1:
        if c % p:
            raise ValidationError("abelian", "element-order counts not a p-power")
        c //= p
        k += 1
    return k


def abelian_invariants(obj):
    """Invariant factors of an abelianized presentation or an abelian group."""
    if isinstance(obj, Presentation):
        factors, free = _smith_invariants(obj.relators, obj.n_generators)
        return AbelianGroup(factors, free)
    if isinstance(obj, FiniteGroup):
        return _abelian_invariants_of_group(obj)
    raise TypeError(f"unsupported input {type(obj)!r}")


# ---------------------------------------------------------------------------
# character table (class-sum eigenvector method)


def character_table(G, seed=DEFAULT_SEED, cap=CHARTABLE_CAP):
    if G.order > cap:
        raise SizeBound(f"order {G.order} exceeds character-table cap {cap}")
    data = conjugacy_and_center(G)
    k = len(data.classes)
    reps = [cls[0] for cls in data.classes]
    sizes = np.array([len(cls) for cls in data.classes], dtype=np.int64)
    n = G.order

    # class-sum structure constants a[i][j][t]: C_i C_j = sum_t a_ijt C_t
    # a_ijt counts the x in class i with x^-1 z_t in class j (z_t the
    # representative of class t)
    a = np.zeros((k, k, k), dtype=np.int64)
    class_of = data.class_of
    j_of = class_of[G.cayley[G.inverse[:, None], reps]]
    np.add.at(a, (class_of[:, None], j_of, np.arange(k)), 1)

    last_err = None
    for attempt in range(RETRY_BUDGET):
        rng = rng_from(seed, 2, attempt)
        t = rng.normal(size=k)
        M = np.tensordot(t, a, axes=(0, 0)).astype(float)  # sum_i t_i a[i]
        vals, vecs = np.linalg.eig(M)
        scale = 1.0 + np.abs(vals).max()
        gaps = np.abs(vals[:, None] - vals[None, :]) + np.eye(k) * scale
        if gaps.min() < 1e-6 * scale:
            last_err = f"eigenvalue gap {gaps.min():.2e} too small"
            continue
        e_cls = int(class_of[G.identity])
        rows = []
        ok = True
        for c in range(k):
            v = vecs[:, c]
            if abs(v[e_cls]) < 1e-10:
                ok = False
                last_err = "eigenvector vanishes on the identity class"
                break
            u = v / v[e_cls]
            norm2 = float(np.sum(np.abs(u) ** 2 / sizes))
            d = np.sqrt(n / norm2)
            chi = d * u / sizes
            rows.append((d, chi))
        if not ok:
            continue
        dims = np.array([d for d, _ in rows])
        if np.abs(dims - np.round(dims)).max() > TOL_INT:
            last_err = f"non-integral dimension {dims}"
            continue
        chars = np.array([chi for _, chi in rows])
        # orthonormality of rows under the class-weighted pairing
        gram = (chars * sizes) @ chars.conj().T / n
        if np.abs(gram - np.eye(k)).max() > TOL_EQ:
            last_err = f"row orthogonality residual {np.abs(gram - np.eye(k)).max():.2e}"
            continue
        if abs(np.sum(np.round(dims) ** 2) - n) > TOL_INT:
            last_err = "squared dimensions do not sum to the order"
            continue
        trivial = min(range(k),
                      key=lambda r: float(np.abs(chars[r] - 1.0).max()))
        order = sorted(range(k),
                       key=lambda r: (r != trivial, round(dims[r].real),
                                      _char_sort_key(chars[r])))
        chars = chars[order]
        dims_out = [int(round(dims[r].real)) for r in order]
        return CharacterTable(group=G, classes=data, class_reps=reps,
                              class_sizes=[int(s) for s in sizes],
                              chars=chars, dims=dims_out)
    raise SeedDegenerate(f"character table failed after {RETRY_BUDGET} attempts: {last_err}")


def _char_sort_key(row):
    return tuple((round(z.real, 8), round(z.imag, 8)) for z in row)


# ---------------------------------------------------------------------------
# explicit unitary irreps


def matrix_irreps(G, seed=DEFAULT_SEED, table=None):
    """One explicit unitary matrix representation per irreducible character.

    Extraction: project the left regular representation onto an isotypic
    block, then cut a single copy with a random self-adjoint commutant
    element.  Raises ExtractionFailed when no clean copy appears within the
    retry budget.
    """
    if G.order > 512:
        raise SizeBound(f"order {G.order} exceeds matrix-irrep cap 512")
    if table is None:
        table = character_table(G, seed=seed)
    n = G.order
    C, inv = G.cayley, G.inverse
    # left regular lam[g] sends basis b to C[g, b]; right regular
    # rho[g] sends b to C[b, g^-1] and commutes with it; neither is stored

    out = []
    for row in range(table.n_irreps):
        d = table.dims[row]
        chi = table.char_on_elements(row)
        label = f"x{row}"
        if d == 1:
            out.append(MatrixIrrep(label=label, dim=1,
                                   matrices=chi.reshape(n, 1, 1)))
            continue
        proj = np.conj(chi)[C[:, inv]] * (d / n)     # sum_g conj(chi(g)) lam[g]
        vals, vecs = np.linalg.eigh((proj + proj.conj().T) / 2)
        keep = vals > 0.5
        if int(keep.sum()) != d * d:
            raise ExtractionFailed(
                f"isotypic rank {int(keep.sum())} != {d * d} for {label}")
        B = vecs[:, keep]                      # orthonormal basis of the block
        got = None
        for attempt in range(RETRY_BUDGET):
            rng = rng_from(seed, 3, row, attempt)
            c = rng.normal(size=n) + 1j * rng.normal(size=n)
            Y = c[C[inv]]                              # sum_g c[g] rho[g]
            Z = B.conj().T @ (Y + Y.conj().T) @ B
            vals2, vecs2 = np.linalg.eigh(Z)
            groups = _eigen_groups(vals2, 1e-7 * (1 + np.abs(vals2).max()))
            pick = next((g for g in groups if len(g) == d), None)
            if pick is None:
                continue
            W = B @ vecs2[:, pick]
            mats = np.array([W.conj().T[:, C[g]] @ W             # W* lam[g] W
                             for g in range(n)])
            if _irrep_ok(G, mats, chi):
                got = mats
                break
        if got is None:
            raise ExtractionFailed(f"no clean copy of {label} after retries")
        out.append(MatrixIrrep(label=label, dim=d, matrices=got))
    return out


def _eigen_groups(vals, tol):
    groups, cur = [], [0]
    for i in range(1, len(vals)):
        if vals[i] - vals[i - 1] <= tol:
            cur.append(i)
        else:
            groups.append(cur)
            cur = [i]
    groups.append(cur)
    return groups


def _irrep_ok(G, M, chi):
    """Unitarity, the character and the homomorphism law, each checked as
    stacked products (Frobenius norms against TOL_MULT)."""
    eye = np.eye(M.shape[1])
    if (np.linalg.norm(M @ M.conj().transpose(0, 2, 1) - eye, axis=(1, 2))
            > TOL_MULT).any():
        return False
    if (np.abs(np.trace(M, axis1=1, axis2=2) - chi) > TOL_EQ * 10).any():
        return False
    return not any((np.linalg.norm(M[g] @ M - M[G.cayley[g]], axis=(1, 2))
                    > TOL_MULT).any() for g in range(G.order))


# ---------------------------------------------------------------------------
# dual group


def dual_group(G, seed=DEFAULT_SEED):
    """Characters of G (pulled back from the abelianization) as a group."""
    comm = G.commutator_subgroup_elements()
    Q, proj = quotient_group(G, comm)
    ab = _abelian_invariants_of_group(Q)
    tq = character_table(Q, seed=seed)
    chars = tq.chars[:, tq.classes.class_of]     # rows -> functions on Q
    pulled = chars[:, proj]                      # functions on G
    # pointwise products close on the rows; match to build the dual table
    table = np.stack([match_rows(pulled, pulled[i] * pulled, 1e-6)
                      for i in range(len(pulled))])
    if (table < 0).any():
        raise ValidationError("dual-closure", "character product not in list")
    dual = FiniteGroup(table, labels=[f"w{i}" for i in range(len(pulled))])
    return DualGroup(abelian=ab, characters=pulled, group=dual)


# ---------------------------------------------------------------------------
# isomorphism testing (small orders)


def _class_sizes(G):
    """Size of the conjugacy class of each element."""
    data = conjugacy_and_center(G)
    return np.array([len(c) for c in data.classes])[data.class_of]


def _invariant_profile(G):
    data = conjugacy_and_center(G)
    per_elem = sorted(zip(G.element_orders().tolist(),
                          _class_sizes(G).tolist()))
    return (G.order, bool(G.is_abelian()), len(data.center),
            tuple(sorted(len(c) for c in data.classes)), tuple(per_elem))


def _generating_sequence(G):
    """Greedy generators: each is the least element not yet generated."""
    gens, reached = [], np.zeros(G.order, dtype=bool)
    reached[G.identity] = True
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        reached[G.closure(gens)] = True
    return gens


def is_isomorphic_small(A, B):
    """Exhaustive-with-pruning isomorphism search; returns (flag, witness).

    The witness maps element indices of A to element indices of B.  Raises
    SizeBound above the order cap.
    """
    if A.order > ISO_CAP or B.order > ISO_CAP:
        raise SizeBound(f"orders ({A.order},{B.order}) exceed iso cap {ISO_CAP}")
    if A.order != B.order:
        return False, None
    if _invariant_profile(A) != _invariant_profile(B):
        return False, None

    ordA, ordB = A.element_orders(), B.element_orders()
    sizeA, sizeB = _class_sizes(A), _class_sizes(B)
    gens = _generating_sequence(A)
    candidates = [np.flatnonzero((ordB == ordA[g]) & (sizeB == sizeA[g]))
                  for g in gens]

    # A homomorphism is fixed by the generator images: fill it down a
    # spanning tree of A's Cayley graph, one BFS level at a time.  Discovery
    # order lists the levels one after another with parents nondecreasing,
    # so a level ends where the parents leave the level before it.
    elems, parent, via, _ = _spanning_tree(
        gens, lambda g, x: int(A.cayley[g, x]), A.identity, A.order)
    cuts = [1]
    while cuts[-1] < A.order:
        cuts.append(int(np.searchsorted(parent, cuts[-1])))

    def attempt(images):
        images = np.asarray(images, dtype=np.intp)
        img = np.empty(A.order, dtype=np.int32)
        img[0] = B.identity
        for lo, hi in zip(cuts, cuts[1:]):
            img[lo:hi] = B.cayley[images[via[lo:hi]], img[parent[lo:hi]]]
        perm = np.empty_like(img)
        perm[elems] = img
        if len(np.unique(perm)) != A.order:
            return None
        if not np.array_equal(perm[A.cayley], B.cayley[perm[:, None], perm[None, :]]):
            return None
        return perm

    for images in itertools.product(*candidates):
        perm = attempt(images)
        if perm is not None:
            return True, [int(v) for v in perm]
    return False, None
