"""Invariants of a Lie algebra: derived subalgebra, centers, central series,
nilpotency class, minimal generator number, centralizers, the Moneyhun bound,
and the Schur defect t(L).

t(L) is the nonnegative integer with dim L/Z(L) = d * dim L^2 - t(L), where d
is the minimal generator number of L/Z(L). For nilpotent algebras d is a rank:
d(L/Z) = dim L/Z - dim (L^2+Z)/Z = dim L - dim(L^2 + Z), so t is computed from
three subspace dimensions without building the quotient algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LieAlgebra, product_subspace, quotient
from .errors import NotNilpotent
from .linalg import Subspace, null_space, preimage, subspace_sum


@dataclass(frozen=True)
class InvariantReport:
    """Isomorphism-invariant fingerprint; equality is fingerprint equality."""

    dim: int
    dim_derived: int
    dim_center: int
    dim_second_center: int
    lcs_dims: tuple[int, ...]
    ucs_dims: tuple[int, ...]
    nilpotency_class: int | None
    d_central_quotient: int | None
    t: int | None
    dim_centralizer_derived: int


def _cached(L: LieAlgebra, key: str, builder):
    # algebras are immutable; derived invariants are cached on the instance
    value = L._cache.get(key)
    if value is None:
        value = L._cache[key] = builder(L)
    return value


def derived_subalgebra(L: LieAlgebra) -> Subspace:
    return _cached(L, "derived", lambda a:
                   product_subspace(a, a.full_space(), a.full_space()))


def annihilator(L: LieAlgebra, W: Subspace | None = None,
                U: Subspace | None = None) -> Subspace:
    """{x : [x, u] in W for every u in U}; W defaults to 0 and U to L.

    One linear condition per basis row u of U and closed-form equation phi
    of W: sum_i x_i phi([e_i, u]) = 0. The equations are indexed by
    coordinate and the adjoint entries come from the cached
    `pairs_touching`, so only nonzero contributions are visited.
    """
    f = L.field
    n = L.dim
    W = Subspace.zero(f, n) if W is None else W
    U = L.full_space() if U is None else U
    for s in (W, U):
        f.check_same(s.field)
        if s.ambient_dim != n:
            raise ValueError("subspace ambient dimension must equal the algebra dimension")
    zero, add, sub, mul = f.zero, f.add, f.sub, f.mul
    by_coord: dict[int, list] = {}  # k -> [(equation, its coefficient on e_k)]
    for e, phi in enumerate(W.equation_rows()):
        for k, a in phi.items():
            by_coord.setdefault(k + 1, []).append((e, a))
    touch = L.pairs_touching()
    rows = []
    for u in U.rows():
        system: dict[int, dict] = {}  # equation -> {i: coefficient of x_i}
        for j, uj in u.items():
            # [e_i, e_{j+1}] = +-cs for each (i, cs, negate)
            for i, cs, negate in touch.get(j + 1, ()):
                acc = sub if negate else add
                for k, c in cs.items():
                    cu = mul(c, uj)
                    for e, a in by_coord.get(k, ()):
                        row = system.setdefault(e, {})
                        row[i - 1] = acc(row.get(i - 1, zero), mul(a, cu))
        rows.extend(system.values())
    return null_space(f, n, rows)


def center(L: LieAlgebra) -> Subspace:
    """Z(L) = ann(0, L)."""
    return _cached(L, "center", annihilator)


def second_center(L: LieAlgebra) -> Subspace:
    """Preimage of Z(L/Z(L)) under the quotient projection."""
    z = center(L)
    if z.is_full():
        return z
    Q, proj = quotient(L, z)
    return preimage(proj.matrix, center(Q))


def lower_central_series(L: LieAlgebra) -> list[Subspace]:
    """L^1 = L, L^{i+1} = [L, L^i], listed until the first repeat."""
    def build(a: LieAlgebra):
        full = a.full_space()
        terms = [full]
        while True:
            nxt = product_subspace(a, full, terms[-1])
            if nxt == terms[-1]:
                break
            terms.append(nxt)
        return terms
    return _cached(L, "lcs", build)


def upper_central_series(L: LieAlgebra) -> list[Subspace]:
    """Z_1 = Z(L), Z_{i+1} = ann(Z_i, L) = {x : [x, L] in Z_i}, listed until
    the first repeat (Z_0 = 0 is not listed). Same objects as the
    quotient-preimage description."""
    def build(a: LieAlgebra):
        terms: list[Subspace] = []
        z = center(a)
        # Z_i is an ideal, so Z_{i+1} contains it: a repeat is an equal dim
        while z.dim > (terms[-1].dim if terms else 0):
            terms.append(z)
            z = annihilator(a, z)
        return terms
    return _cached(L, "ucs", build)


def is_nilpotent(L: LieAlgebra) -> bool:
    return lower_central_series(L)[-1].dim == 0


def nilpotency_class(L: LieAlgebra) -> int | None:
    """Least c with L^{c+1} = 0, or None when not nilpotent."""
    terms = lower_central_series(L)
    if terms[-1].dim != 0:
        return None
    return len(terms) - 1


def min_generators(L: LieAlgebra) -> int:
    """d = dim L - dim L^2, valid for nilpotent algebras."""
    if not is_nilpotent(L):
        raise NotNilpotent("minimal generator number requires a nilpotent algebra")
    return L.dim - derived_subalgebra(L).dim


def centralizer(L: LieAlgebra, u: Subspace) -> Subspace:
    """{x : [x, v] = 0 for every v in u} = ann(0, u)."""
    return annihilator(L, None, u)


def _d_and_t(L: LieAlgebra, z: Subspace, l2: Subspace) -> tuple[int, int]:
    d = L.dim - subspace_sum(l2, z).dim
    t = d * l2.dim - (L.dim - z.dim)
    return d, t


def t_invariant(L: LieAlgebra) -> int:
    """Schur defect t(L) = d(L/Z(L)) * dim L^2 - dim L/Z(L), for nilpotent L."""
    if not is_nilpotent(L):
        raise NotNilpotent("t(L) is defined for nilpotent algebras only")
    return _d_and_t(L, center(L), derived_subalgebra(L))[1]


def moneyhun_check(L: LieAlgebra) -> bool:
    """dim L^2 <= q(q-1)/2 where q = dim L/Z(L)."""
    q = L.dim - center(L).dim
    return derived_subalgebra(L).dim <= q * (q - 1) // 2


def report(L: LieAlgebra) -> InvariantReport:
    l2 = derived_subalgebra(L)
    lcs = lower_central_series(L)
    ucs = upper_central_series(L)
    z = ucs[0] if ucs else Subspace.zero(L.field, L.dim)
    nilp = lcs[-1].dim == 0
    cls = len(lcs) - 1 if nilp else None
    if ucs:
        z2_dim = ucs[1].dim if len(ucs) > 1 else ucs[0].dim
    else:
        z2_dim = 0
    if nilp:
        d, t = _d_and_t(L, z, l2)
    else:
        d, t = None, None
    return InvariantReport(
        dim=L.dim,
        dim_derived=l2.dim,
        dim_center=z.dim,
        dim_second_center=z2_dim,
        lcs_dims=tuple(s.dim for s in lcs),
        ucs_dims=tuple(s.dim for s in ucs),
        nilpotency_class=cls,
        d_central_quotient=d,
        t=t,
        dim_centralizer_derived=centralizer(L, l2).dim,
    )
