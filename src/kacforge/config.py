"""Numeric tolerances, caps, and the run configuration record.

Tolerances and size caps are module constants, read where they apply; the
run configuration carries only what a run chooses: its seed and its output
format.
"""

from dataclasses import dataclass, replace

#: general numeric equality of derived quantities
TOL_EQ = 1e-8
#: residual allowed when a float must round to an integer
TOL_INT = 1e-6
#: structural identities of a built algebra (products, coproducts, antipode...)
TOL_AXIOM = 1e-9
#: Frobenius defect allowed in matrix-representation multiplicativity
TOL_MULT = 1e-7
#: max-abs distance within which two rows of values (characters, dual
#: labels, twisted characters) are the same row
TOL_MATCH = 1e-6
#: ulps of slack, per row entry and per unit of the rows' 1-norms, that
#: `groups.match_rows` adds to its projection window for the round-off of
#: the two projections and of the max-abs test
MATCH_SLACK = 8
#: gap between sorted eigenvalues at or below which a seeded split keeps
#: them in one eigenspace
TOL_EIGEN = 1e-6
#: eigenvalue gap of a character-table draw, relative to 1 + the largest
#: eigenvalue, below which the draw is retried as degenerate
TOL_CLASS_GAP = 1e-6
#: eigenvector entry on the identity class below which a draw is retried
TOL_IDENTITY_ENTRY = 1e-10
#: eigenvalue gap of a matrix irrep's seeded split, relative to 1 + the
#: largest eigenvalue, at or below which two eigenvalues are one
TOL_IRREP_SPLIT = 1e-7
#: total coefficient magnitude on a basis element at or below which a
#: corepresentation drops its entries there as round-off
TOL_COEFF = 1e-14
#: largest entry of a Fourier block at or below which the block is zero
TOL_BLOCK = 1e-12
#: dimension change that makes a ring action row break the dimensions
TOL_RING_DIM = 1e-9
#: negative value or triangle-law excess of a length function that is
#: round-off, not a defect
TOL_LENGTH = 1e-9
#: move of a base length under the action that is round-off, not a break
#: of invariance
TOL_LENGTH_MOVE = 1e-9
#: excess of a rapid-decay ratio over 1 that still passes
TOL_RD = 1e-9

#: default RNG seed for every randomized step
DEFAULT_SEED = 0xC0FFEE

#: closure enumeration cap for generated groups (permutations and matrices)
CLOSURE_CAP = 20_000
#: dense multiplication-table cap (memory guard, ~order^2 ints)
TABLE_CAP = 4096
#: order cap for character-table computation
CHARTABLE_CAP = 2000
#: order cap for explicit matrix irreps (the isotypic projections are
#: order x order)
IRREP_CAP = 512
#: order cap for the isomorphism search
ISO_CAP = 512
#: retry budget for seeded spectral steps
RETRY_BUDGET = 8
#: label cap for fusion rings (the int32 multiplicity tensor is n^3 entries,
#: 64 MB at the cap)
RING_CAP = 256
#: cells of the largest dense block of an intertwiner system (equations x
#: unknowns of one connected component; 256 MB of complex entries at the cap)
INTERTWINER_CAP = 1 << 24
#: fusion-audit triples checked; above it a seeded sample of this size
AUDIT_TRIPLES = 2000
#: points of the exhaustive separation grid, sum over its denominators D of
#: C(order + D - 1, D), at about 0.6 us a point: order 97 at D = 1..4,
#: 4.08 M points in 2.4 s, is the largest group under the cap
SEPARATION_CAP = 1 << 22


@dataclass(frozen=True)
class RunConfig:
    """Immutable per-run choices shared by the pipeline and the CLI."""

    seed: int = DEFAULT_SEED
    output: str = "text"  # "text" | "structured"

    def with_(self, **kw):
        return replace(self, **kw)


DEFAULT_CONFIG = RunConfig()
