"""Shared test helpers: seeded random scalars, vectors and base changes, a
canonical-row predicate, the golden corpus, dense textbook brackets,
products, Gauss-Jordan, annihilators and the quotient-preimage second center
as oracles, an isomorphism test for witnesses, and algebra documents of a
given bracket count."""

from fractions import Fraction
from itertools import combinations, islice

from schurdefect import catalog
from schurdefect.algebra import direct_sum, quotient
from schurdefect.fields import QQ, PrimeField
from schurdefect.invariants import center
from schurdefect.linalg import Matrix, Subspace, preimage


def random_scalar(field, rng, zero_ok=True):
    if isinstance(field, PrimeField):
        lo = 0 if zero_ok else 1
        return rng.randrange(lo, field.p)
    num = rng.randint(-4, 4)
    if not zero_ok and num == 0:
        num = 1
    den = rng.choice((1, 1, 1, 2, 3))
    return Fraction(num, den)


def random_vector(field, n, rng):
    return [random_scalar(field, rng) for _ in range(n)]


def random_invertible(field, n, rng, steps=None):
    """Product of random transvections, swaps and unit scalings; exact and
    sparse enough to keep base-changed tensors small."""
    if steps is None:
        steps = max(4, (3 * n) // 2)
    m = [[field.one if i == j else field.zero for j in range(n)]
         for i in range(n)]
    if n < 2:
        return Matrix(field, m, n)
    for _ in range(steps):
        op = rng.random()
        if op < 0.7:
            r, s = rng.sample(range(n), 2)
            lam = random_scalar(field, rng, zero_ok=False)
            row_s = m[s]
            m[r] = [field.add(x, field.mul(lam, y))
                    for x, y in zip(m[r], row_s)]
        elif op < 0.85:
            r, s = rng.sample(range(n), 2)
            m[r], m[s] = m[s], m[r]
        else:
            r = rng.randrange(n)
            if isinstance(field, PrimeField):
                u = rng.randrange(1, field.p)
            else:
                u = rng.choice((Fraction(-1), Fraction(2), Fraction(-2),
                                Fraction(1, 2)))
            m[r] = [field.mul(u, x) for x in m[r]]
    return Matrix(field, m, n)


def fields_for_tests():
    from schurdefect.fields import GF
    return [QQ, GF(2), GF(3), GF(5)]


def central_document(count, width=1):
    """`count` structure constants in brackets [e_i, e_j] = e_{m+1} + ... +
    e_{m+width} over i < j <= m (the last bracket may take fewer): every
    target is central, so Jacobi holds and its check has no candidate
    triple. With width 1 there are `count` brackets."""
    npairs = -(-count // width)
    m = 2
    while m * (m - 1) // 2 < npairs:
        m += 1
    pairs = islice(combinations(range(1, m + 1), 2), npairs)
    brackets = [{"lhs": [i, j],
                 "rhs": {str(m + t): "1" for t in range(1, min(width, count - a * width) + 1)}}
                for a, (i, j) in enumerate(pairs)]
    return {"dim": m + width, "field": {"kind": "prime", "p": 3}, "brackets": brackets}


def canonical_row(field, row):
    """Whether `row` is a canonical sparse vector: int keys and no zeros,
    residues in 1..p-1 over GF(p), and over Q an int or a Fraction with
    denominator > 1."""
    p = field.characteristic
    for k, x in row.items():
        if type(k) is not int:
            return False
        if p:
            if not (type(x) is int and 0 < x < p):
                return False
        elif not (type(x) is int and x or type(x) is Fraction and x.denominator > 1):
            return False
    return True


def golden_corpus(field):
    """(label, algebra): every catalog entry over `field` at its default
    parameter, and H(m) + A(k) for m <= 3, k <= 2."""
    for e in catalog.list_all(field):
        yield e.key, catalog.get(e.key, field, catalog.default_param(e, field))
    for m in range(1, 4):
        for k in range(3):
            yield f"H({m})+A({k})", direct_sum(catalog.heisenberg(field, m),
                                               catalog.abelian(field, k))


def textbook_bracket(L, x, y):
    """sum_{i<j} (x_i y_j - x_j y_i) c_ij^k, written out densely."""
    f = L.field
    out = [f.zero] * L.dim
    for (i, j), cs in L.brackets.items():
        c = f.sub(f.mul(x[i - 1], y[j - 1]), f.mul(x[j - 1], y[i - 1]))
        for k, v in cs.items():
            out[k - 1] = f.add(out[k - 1], f.mul(c, v))
    return out


def textbook_matvec(f, m, x):
    out = []
    for row in m.data:
        acc = f.zero
        for a, b in zip(row, x):
            acc = f.add(acc, f.mul(a, b))
        out.append(acc)
    return out


def textbook_rref(field, rows, ncols):
    """Dense Gauss-Jordan, column by column: swap the first row with a
    nonzero entry up, scale it to a leading 1, clear the column elsewhere."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.div(field.one, m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                k = m[i][c]
                m[i] = [field.sub(x, field.mul(k, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def textbook_annihilator(L, W, U):
    """The dense RREF basis of ann(W, U) = {x : [x, u] in W for every u in
    U}, for any subspace W: the x-part of the kernel of [M | -B]. M stacks
    the textbook matrices x -> [x, u] over the basis rows u of U and B is
    the block-diagonal matrix with a basis of W in each block, so a kernel
    vector (x, y) says [x, u_j] = B_W y_j; dense Gauss-Jordan finds it."""
    field, n = L.field, L.dim
    e = [[field.one if t == i else field.zero for t in range(n)] for i in range(n)]
    ws = W.basis
    width = n + U.dim * len(ws)
    system = []
    for a, u in enumerate(U.basis):
        ad = [textbook_bracket(L, x, u) for x in e]  # the columns of x -> [x, u]
        for k in range(n):
            row = [ad[i][k] for i in range(n)] + [field.zero] * (width - n)
            for b, w in enumerate(ws):
                row[n + a * len(ws) + b] = field.neg(w[k])
            system.append(row)
    rows, pivots = textbook_rref(field, system, width)
    kernel = []
    for c in (c for c in range(width) if c not in pivots):
        v = [field.zero] * width
        v[c] = field.one
        for r, pc in zip(rows, pivots):
            v[pc] = field.neg(r[c])
        kernel.append(v[:n])
    return textbook_rref(field, kernel, n)[0]


def is_isomorphism(witness):
    """Bracket-preserving and of full rank; `is_bracket_preserving` alone
    does not test the rank, as a homomorphism need not be injective."""
    W = witness.matrix
    rank = Subspace.from_vectors(W.field, W.nrows, W.columns().values()).dim
    return witness.is_bracket_preserving() and rank == W.nrows == W.ncols


def quotient_second_center(L):
    """Z_2(L) by its textbook description, through the public quotient: the
    preimage of Z(L/Z(L)) under the projection L -> L/Z(L), or Z(L) when
    that is all of L."""
    z = center(L)
    if z.is_full():
        return z
    Q, proj = quotient(L, z)
    return preimage(proj.matrix, center(Q))
