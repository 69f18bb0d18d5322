"""Invariants of a Lie algebra: derived subalgebra, centers, central series,
nilpotency class, minimal generator number, centralizers, the Moneyhun bound,
and the Schur defect t(L).

t(L) is the nonnegative integer with dim L/Z(L) = d * dim L^2 - t(L), where d
is the minimal generator number of L/Z(L). For nilpotent algebras d is a rank:
d(L/Z) = dim L/Z - dim (L^2+Z)/Z = dim L - dim(L^2 + Z), so t is computed from
three subspace dimensions without building the quotient algebra.

Z(L), the centralizer C_L(U) and every later term of the upper central
series are one kind of subspace, {x : [x, u] in W for every u in U} with W
an ideal, and all are solved by one kernel, `annihilator`; Z_2 is the
chain's second term, checked in the tests against the preimage of Z(L/Z(L)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LieAlgebra, _ad, product_subspace
from .errors import NotNilpotent
from .linalg import Subspace, null_space, subspace_sum


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
    """{x : [x, u] in W for every u in U}, for W an ideal of L (0 by
    default) and U a subspace (L by default).

    [W, U] lies in the ideal W, so W lies in the result, and x is solved for
    only on the columns C off W's pivots: L = W + span(e_c : c in C). The
    conditions come from U's rows u through `_ad` (U = L gives the unit
    rows; at a pivot b of W, e_b = w + sum_c a_c e_c with [x, w] in W, so
    e_b's equations follow from those of the e_c). Each column [u, e_c], c
    in C, is reduced modulo W by `W._remainder`, and entry k of the
    remainder gives one equation sum_c x_c [u, e_c]_k = 0, as [x, u] =
    -[u, x] flips every sign alike. `null_space` solves the equations on C
    only and starts the kernel that spans the solutions from W.
    """
    f, n = L.field, L.dim
    W = Subspace.zero(f, n) if W is None else W
    U = L.full_space() if U is None else U
    for s in (W, U):
        f.check_same(s.field)
        if s.ambient_dim != n:
            raise ValueError("subspace ambient dimension must equal the algebra dimension")
    pivots, remainder = W._rows, W._remainder
    off = [c for c in range(n) if c not in pivots]
    system: dict[tuple, dict] = {}  # (u, k) -> {c: coefficient of x_c}
    for a, u in enumerate(U.rows()):
        for c, col in _ad(L, u).items():
            if c not in pivots:
                for k, x in remainder(col).items():
                    system.setdefault((a, k), {})[c] = x
    return null_space(f, n, system.values(), off, W)


def center(L: LieAlgebra) -> Subspace:
    """Z(L) = ann(0, L) = `annihilator(L)`."""
    return _cached(L, "center", annihilator)


def second_center(L: LieAlgebra) -> Subspace:
    """Z_2(L) = ann(Z(L), L), the upper central series' second term, or Z(L)
    when the series stops there; the tests check it against the preimage of
    Z(L/Z(L)) under the quotient projection."""
    ucs = upper_central_series(L)
    return ucs[1] if len(ucs) > 1 else center(L)


def lower_central_series(L: LieAlgebra) -> list[Subspace]:
    """L^1 = L, L^{i+1} = [L, L^i], listed until the first repeat."""
    def build(a: LieAlgebra):
        full = a.full_space()
        terms = [full]
        nxt = derived_subalgebra(a)
        # L^{i+1} is inside L^i, so a repeat is an equal dim
        while nxt.dim < terms[-1].dim:
            terms.append(nxt)
            nxt = product_subspace(a, full, nxt)
        return terms
    return _cached(L, "lcs", build)


def upper_central_series(L: LieAlgebra) -> list[Subspace]:
    """Z_1 = Z(L), Z_{i+1} = ann(Z_i, L) = {x : [x, L] in Z_i}, listed until
    the first repeat or L itself (Z_0 = 0 is not listed). Same objects as
    the quotient-preimage description.

    Each term after the center is `annihilator(L, Z_i, G)`: Z_i is an ideal,
    so the term is grown from Z_i alone, on the columns off Z_i's pivots,
    never solved again over all of L. For nilpotent L, G is the span of the
    unit vectors e_c with c off L^2's pivots: L = L^2 + G, and a complement
    of L^2 generates a nilpotent L. If [x, g] lies in the ideal W for
    every generator g, then so does [x, [g, h]] = [[x, g], h] + [g, [x, h]],
    so {x : [x, G] in W} = ann(W). The lemma needs nilpotency, and G is used
    only then: for r2 + A(1), [e1, e2] = e2, G is spanned by e1 and e3, and
    ann(Z, G) would hold e1, which is not in Z_2 = Z."""
    def build(a: LieAlgebra):
        terms: list[Subspace] = []
        gens = None
        if is_nilpotent(a):
            one, pivots = a.field.one, derived_subalgebra(a)._rows
            gens = Subspace(a.field, a.dim,
                            {c: {c: one} for c in range(a.dim) if c not in pivots})
        z = center(a)
        # Z_i is an ideal, so Z_{i+1} contains it: a repeat is an equal dim
        while z.dim > (terms[-1].dim if terms else 0):
            terms.append(z)
            if z.is_full():
                break
            z = annihilator(a, z, gens)
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
    """C_L(u) = {x : [x, v] = 0 for every v in u} = ann(0, u) =
    `annihilator(L, None, u)`."""
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
    """The fingerprint of L, cached on the instance like its parts."""
    return _cached(L, "report", _report)


def _report(L: LieAlgebra) -> InvariantReport:
    l2 = derived_subalgebra(L)
    z = center(L)
    cls = nilpotency_class(L)
    d, t = _d_and_t(L, z, l2) if cls is not None else (None, None)
    return InvariantReport(
        dim=L.dim,
        dim_derived=l2.dim,
        dim_center=z.dim,
        dim_second_center=second_center(L).dim,
        lcs_dims=tuple(s.dim for s in lower_central_series(L)),
        ucs_dims=tuple(s.dim for s in upper_central_series(L)),
        nilpotency_class=cls,
        d_central_quotient=d,
        t=t,
        dim_centralizer_derived=centralizer(L, l2).dim,
    )
