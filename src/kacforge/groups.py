"""Finite groups as dense multiplication tables, and their basic invariants.

Elements are integer indices into a Cayley table.  Constructors exist for
explicit tables, permutation generators, and integer matrix generators mod m.
All randomized steps (character tables, irrep extraction) take an explicit
seed and retry deterministically.
"""

import itertools
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
        for a, b in zip(rows, cols):
            inv[a] = b
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
        # BFS by left multiplication from the identity; whenever it stalls the
        # smallest unreached element joins the generators.  A group needs at
        # most log2(n) + 1 of them, each checked in O(n^2).
        reached = np.zeros(n, dtype=bool)
        reached[self.identity] = True
        frontier, gens = [], []
        while True:
            if not len(frontier):
                if reached.all():
                    return
                a = int(np.argmin(reached))
                bad = C[C[:, a]] != C[:, C[a]]
                if bad.any():
                    x, y = np.argwhere(bad)[0]
                    raise ValidationError("associativity", f"({x},{a},{y}) fails")
                gens.append(a)
                frontier = np.flatnonzero(reached)
            nxt = C[np.ix_(gens, frontier)].ravel()
            frontier = np.unique(nxt[~reached[nxt]])
            reached[frontier] = True

    # -- elementwise operations --------------------------------------------

    def mul(self, a, b):
        return int(self.cayley[a, b])

    def inv(self, a):
        return int(self.inverse[a])

    def conjugate(self, g, x):
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def commutator(self, a, b):
        """a^-1 b^-1 a b."""
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    def element_order(self, a):
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    def element_orders(self):
        return [self.element_order(a) for a in range(self.order)]

    def is_abelian(self):
        return np.array_equal(self.cayley, self.cayley.T)

    def exponent(self):
        out = 1
        for k in set(self.element_orders()):
            out = out * k // np.gcd(out, k)
        return int(out)

    # -- subgroup machinery -------------------------------------------------

    def closure(self, gens):
        """Sorted element list of the subgroup generated by ``gens``."""
        seen = {self.identity}
        frontier = [self.identity]
        gens = [int(g) for g in gens]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.mul(g, x)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return sorted(seen)

    def subgroup(self, elements):
        """Induced group on a closed subset; returns (group, parent indices)."""
        elements = sorted(int(x) for x in elements)
        pos = {x: i for i, x in enumerate(elements)}
        k = len(elements)
        table = np.empty((k, k), dtype=np.int32)
        for i, a in enumerate(elements):
            row = self.cayley[a, elements]
            try:
                table[i] = [pos[int(v)] for v in row]
            except KeyError:
                raise ValidationError("closed-subset",
                                      f"subset not closed at element {a}")
        labels = [self.labels[x] for x in elements]
        return FiniteGroup(table, labels=labels, source=self.source), elements

    def commutator_subgroup_elements(self):
        gens = set()
        for a in range(self.order):
            for b in range(self.order):
                gens.add(self.commutator(a, b))
        return self.closure(gens)

    def is_normal(self, elements):
        elems = set(int(x) for x in elements)
        return all(self.conjugate(g, x) in elems for g in range(self.order)
                   for x in elems)

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
        if self.free_rank:
            return None
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

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
        out = []
        elems = [int(x) for x in elements]
        for z in range(self.group.order):
            if all(C[z, x] == C[x, z] for x in elems):
                out.append(z)
        return out


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
    matrices: list           # one unitary per element index

    def character(self):
        return np.array([np.trace(m) for m in self.matrices])


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


def _closure_of_generators(gens, compose, identity, cap):
    """BFS closure; returns elements in discovery order, identity first."""
    elems = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(g, x)
                if y not in index:
                    if len(elems) >= cap:
                        raise SizeBound(f"closure exceeds cap {cap}")
                    index[y] = len(elems)
                    elems.append(y)
                    nxt.append(y)
        frontier = nxt
    return elems, index


def _table_from_elements(elems, index, compose, table_cap):
    n = len(elems)
    if n > table_cap:
        raise SizeBound(f"order {n} exceeds dense-table cap {table_cap}")
    table = np.empty((n, n), dtype=np.int32)
    for i, a in enumerate(elems):
        table[i] = [index[compose(a, b)] for b in elems]
    return table


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

    elems, index = _closure_of_generators(norm, compose, ident, CLOSURE_CAP)
    table = _table_from_elements(elems, index, compose, table_cap)
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
        return tuple(int(v) for v in a.ravel())

    ident = key(np.eye(dim, dtype=np.int64))
    gen_keys = [key(m) for m in mats]

    def unkey(k):
        return np.array(k, dtype=np.int64).reshape(dim, dim)

    def compose(ka, kb):
        return key(unkey(ka) @ unkey(kb) % modulus)

    elems, index = _closure_of_generators(gen_keys, compose, ident, CLOSURE_CAP)
    table = _table_from_elements(elems, index, compose, TABLE_CAP)

    def mat_label(k):
        rows = [" ".join(str(v) for v in k[i * dim:(i + 1) * dim]) for i in range(dim)]
        return "(" + "|".join(rows) + ")"

    labels = [mat_label(k) for k in elems]
    G = FiniteGroup(table, labels=labels, source="matrix-generators-mod-m")
    G.matrices = [unkey(k) for k in elems]
    G.modulus = modulus
    return G


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
    G = FiniteGroup(table, labels=labels, source="cayley")
    G.pair_shape = (nN, nQ)
    return G


def direct_product(A, B):
    action = np.tile(np.arange(A.order, dtype=np.int32), (B.order, 1))
    return semidirect_product(A, B, action)


def quotient_group(G, normal_elements):
    """Quotient by a normal subgroup; returns (Q, projection array)."""
    elems = sorted(set(int(x) for x in normal_elements))
    if not G.is_normal(elems):
        raise ValidationError("normality", "subset is not a normal subgroup")
    proj = np.full(G.order, -1, dtype=np.int32)
    reps = []
    for g in range(G.order):
        if proj[g] >= 0:
            continue
        c = len(reps)
        reps.append(g)
        for k in elems:
            proj[G.mul(g, k)] = c
    m = len(reps)
    table = np.empty((m, m), dtype=np.int32)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            table[i, j] = proj[G.mul(a, b)]
    labels = [G.labels[r] + "N" for r in reps]
    return FiniteGroup(table, labels=labels), proj


# ---------------------------------------------------------------------------
# conjugacy, classes


def conjugacy_and_center(G):
    """Conjugacy classes (identity class first, then by size/min element)."""
    if G._class_cache is not None:
        return G._class_cache
    n = G.order
    C, inv = G.cayley, G.inverse
    assigned = np.full(n, -1, dtype=np.int32)
    raw = []
    for x in range(n):
        if assigned[x] >= 0:
            continue
        orbit = np.unique(C[C[np.arange(n), x], inv])
        for y in orbit:
            assigned[y] = len(raw)
        raw.append(sorted(int(v) for v in orbit))
    raw.sort(key=lambda cls: (G.identity not in cls, len(cls), cls[0]))
    class_of = np.empty(n, dtype=np.int32)
    for ci, cls in enumerate(raw):
        for y in cls:
            class_of[y] = ci
    center = [int(z) for z in range(n) if np.array_equal(C[z], C[:, z])]
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
    # sanity: orders multiply back
    total = 1
    for d in inv:
        total *= d
    assert total == n, (inv, n)
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
    a = np.zeros((k, k, k), dtype=np.int64)
    inv = G.inverse
    class_of = data.class_of
    for i, cls in enumerate(data.classes):
        for t, z in enumerate(reps):
            js = class_of[[G.mul(inv[x], z) for x in cls]]
            for j in np.atleast_1d(js):
                a[i, j, t] += 1

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
            mats = [np.array([[chi[g]]]) for g in range(n)]
            out.append(MatrixIrrep(label=label, dim=1, matrices=mats))
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
            mats = [W.conj().T[:, C[g]] @ W for g in range(n)]   # W* lam[g] W
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


def _irrep_ok(G, mats, chi):
    """Unitarity, the character and the homomorphism law, each checked as
    stacked products (Frobenius norms against TOL_MULT)."""
    M = np.asarray(mats)
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


def _invariant_profile(G):
    data = conjugacy_and_center(G)
    orders = G.element_orders()
    per_elem = sorted((orders[x], len(data.classes[data.class_of[x]]))
                      for x in range(G.order))
    return (G.order, bool(G.is_abelian()), len(data.center),
            tuple(sorted(len(c) for c in data.classes)), tuple(per_elem))


def _generating_sequence(G):
    gens, current = [], {G.identity}
    for x in range(G.order):
        if x in current:
            continue
        gens.append(x)
        current = set(G.closure(gens))
        if len(current) == G.order:
            break
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

    dataB = conjugacy_and_center(B)
    ordA = A.element_orders()
    ordB = B.element_orders()
    sizeB = [len(dataB.classes[dataB.class_of[x]]) for x in range(B.order)]
    dataA = conjugacy_and_center(A)
    sizeA = [len(dataA.classes[dataA.class_of[x]]) for x in range(A.order)]

    gens = _generating_sequence(A)
    candidates = [[b for b in range(B.order)
                   if ordB[b] == ordA[g] and sizeB[b] == sizeA[g]]
                  for g in gens]

    def attempt(images):
        phi = {A.identity: B.identity}
        frontier = [A.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for g, h in zip(gens, images):
                    y = A.mul(g, x)
                    img = B.mul(h, phi[x])
                    if y in phi:
                        if phi[y] != img:
                            return None
                    else:
                        phi[y] = img
                        nxt.append(y)
            frontier = nxt
        if len(phi) != A.order or len(set(phi.values())) != A.order:
            return None
        perm = np.array([phi[x] for x in range(A.order)], dtype=np.int32)
        if not np.array_equal(perm[A.cayley], B.cayley[perm[:, None], perm[None, :]]):
            return None
        return perm

    for images in itertools.product(*candidates):
        perm = attempt(images)
        if perm is not None:
            return True, [int(v) for v in perm]
    return False, None
