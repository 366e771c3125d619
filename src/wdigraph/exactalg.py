"""Exact arithmetic over the field of rational functions in one indeterminate u.

Polynomials are dense coefficient tuples over arbitrary-precision rationals,
rational functions are canonical num/den pairs (monic denominator, gcd one),
and matrices over them support the linear algebra needed elsewhere: products,
characteristic polynomials, and exact nullspaces/eigenspaces.

`char_poly` takes matrices over Z[u], such as every rho(T_w), and runs the
division-free Berkowitz method on integers only, once per distinct block:
per connected component of the support, with equal blocks sharing one run
(the proof is in its docstring).  For rho(T_w) the blocks are the
components of the restriction to supp(w), so the cost follows the largest
such component, not the dimension.

Berkowitz runs on Python ints: each block is packed once by Kronecker
substitution u = 2^bits (`_pack`; von zur Gathen and Gerhard, Modern
Computer Algebra, section 8.4), with bits from the Hadamard bound on the
torus (`_block_bits`; Mignotte, "Some useful bounds", 1982), and its
polynomial is read back once (`_unpack`).  The block polynomials are
multiplied the same way: packed at one width read off their norms,
multiplied in x over the ints one factor at a time, and each coefficient of
the product unpacked once.

Each operation is written once: subtraction adds the negation, and a power
of a `RatFunc` is the pair of powers of its numerator and denominator.

Everything here is an immutable value; all operations are pure.  Coefficients
are stored as plain ints whenever the denominator is 1, so the hot loops run
on machine/long integer arithmetic instead of Fraction objects.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


def _norm_coeff(c):
    """Collapse integral Fractions to int; leave everything else alone."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


class Poly:
    """Dense univariate polynomial over the rationals, in the indeterminate u.

    coeffs[i] is the coefficient of u^i; the top coefficient is nonzero
    unless the polynomial is zero, which is the empty tuple.  The degree of
    the zero polynomial is None, never a number.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        # plain ints, by far the common case, skip the isinstance checks
        cs = [c if type(c) is int else
              _norm_coeff(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
              for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def monomial(c, d: int) -> "Poly":
        if c == 0:
            return P_ZERO
        return Poly((0,) * d + (c,))

    # -- structure -------------------------------------------------------------

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        """Nonzero, as for numbers."""
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return self if a else other
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return P_ZERO
        out = [0] * (len(a) + len(b) - 1)
        _add_product(out, a, b)
        return Poly(out)

    def scale(self, c) -> "Poly":
        if c == 0:
            return P_ZERO
        return Poly([ci * c for ci in self.coeffs])

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = P_ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def divmod(self, other: "Poly"):
        """Exact polynomial division with remainder over the rationals."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return P_ZERO, self
        quo = [0] * (dq + 1)
        lead = Fraction(other.leading())
        for i in range(dq, -1, -1):
            top = rem[i + len(other.coeffs) - 1]
            if top == 0:
                continue
            q = _norm_coeff(top / lead)
            quo[i] = q
            for j, c in enumerate(other.coeffs):
                rem[i + j] -= q * c
        return Poly(quo), Poly(rem)

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor (Euclid over the rationals)."""
        a, b = self, other
        if a.is_zero():
            return b.monic()
        if b.is_zero():
            return a.monic()
        # factor out powers of u first, then run Euclid on the units
        v = min(_valuation(a), _valuation(b))
        a = Poly(a.coeffs[_valuation(a):])
        b = Poly(b.coeffs[_valuation(b):])
        if len(a.coeffs) == 1 or len(b.coeffs) == 1:
            return Poly.monomial(1, v)
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        a = a.monic()
        return a * Poly.monomial(1, v) if v else a

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        if lead == 1:
            return self
        inv = Fraction(1, 1) / lead
        return Poly([c * inv for c in self.coeffs])

    def __call__(self, q):
        """Evaluate at a rational point by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return _norm_coeff(Fraction(acc))

    # -- printing ----------------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if i == 0:
                body = str(mag)
            elif mag == 1:
                body = "u" if i == 1 else f"u^{i}"
            else:
                body = f"{mag}*u" if i == 1 else f"{mag}*u^{i}"
            parts.append(("-" if c < 0 else "+", body))
        sign, first = parts[0]
        out = ("-" if sign == "-" else "") + first
        for sign, body in parts[1:]:
            out += sign + body
        return out

    def __repr__(self):
        return f"Poly({self})"


def _add_product(out: list, a: tuple, b: tuple) -> None:
    """Add the product of the nonzero coefficient tuples a and b into out,
    which has room for it; the nonzero (j, c) of b are listed once."""
    nonzero = [(j, cb) for j, cb in enumerate(b) if cb]
    for i, ca in enumerate(a):
        if ca:
            for j, cb in nonzero:
                out[i + j] += ca * cb


P_ZERO = Poly(())
P_ONE = Poly((1,))
P_U = Poly((0, 1))


def _pack(p: Poly, bits: int) -> int:
    """p(2^bits) for p with integer coefficients: Kronecker substitution."""
    v = 0
    for c in reversed(p.coeffs):
        v = (v << bits) + c
    return v


def _unpack(v: int, bits: int) -> Poly:
    """The integer polynomial p with p(2^bits) = v whose coefficients lie
    strictly between -2^(bits-1) and 2^(bits-1): the inverse of `_pack` on
    such polynomials.

    Adding 2^(bits-1) to every signed digit makes each one a plain base-2^bits
    digit, so all of them are read off one binary string in linear time.
    """
    if not v:
        return P_ZERO
    digits = v.bit_length() // bits + 1
    half = 1 << (bits - 1)
    text = bin(v + int(("1" + "0" * (bits - 1)) * digits, 2))[2:]
    text = text.zfill(digits * bits)
    return Poly([int(text[i - bits:i], 2) - half
                 for i in range(len(text), 0, -bits)])


def poly_p(d: int) -> Poly:
    """The degree-2d polynomial 1 + 2*sum((-u^2)^i, i=1..d-1) + (-u^2)^d."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d == 0:
        return P_ONE
    coeffs = [0] * (2 * d + 1)
    coeffs[0] = 1
    for i in range(1, d):
        coeffs[2 * i] = 2 * (-1) ** i
    coeffs[2 * d] = (-1) ** d
    return Poly(coeffs)


def _valuation(p: Poly) -> int:
    """Index of the lowest nonzero coefficient (p must be nonzero)."""
    for i, c in enumerate(p.coeffs):
        if c != 0:
            return i
    raise ValueError("valuation of the zero polynomial")


def _is_monomial(p: Poly) -> bool:
    cs = p.coeffs
    return bool(cs) and all(c == 0 for c in cs[:-1])


class RatFunc:
    """Rational function num/den in canonical form.

    Canonical means: den monic and nonzero, gcd(num, den) = 1, and zero is
    0/1.  Equality and hashing are structural on the canonical form.

    Denominators that are powers of u are extremely common downstream (basis
    inverses, the bar maps), so that case reduces by valuation alone and
    never runs the Euclidean algorithm.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = P_ONE, _canonical: bool = False):
        if _canonical:
            object.__setattr__(self, "num", num)
            object.__setattr__(self, "den", den)
            return
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            object.__setattr__(self, "num", P_ZERO)
            object.__setattr__(self, "den", P_ONE)
            return
        if den.coeffs != (1,):
            if _is_monomial(den):
                lead = den.leading()
                if lead != 1:
                    inv = Fraction(1, 1) / lead
                    num = num.scale(inv)
                shift = min(_valuation(num), den.degree)
                if shift:
                    num = Poly(num.coeffs[shift:])
                den = Poly.monomial(1, den.degree - shift)
            else:
                g = num.gcd(den)
                if g.coeffs != (1,):
                    num = num.divmod(g)[0]
                    den = den.divmod(g)[0]
                lead = den.leading()
                if lead != 1:
                    inv = Fraction(1, 1) / lead
                    num = num.scale(inv)
                    den = den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- structure ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        """Nonzero, as for numbers."""
        return bool(self.num.coeffs)

    def __eq__(self, other):
        return (isinstance(other, RatFunc)
                and self.num.coeffs == other.num.coeffs
                and self.den.coeffs == other.den.coeffs)

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    # -- field arithmetic ----------------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den.coeffs == (1,) and other.den.coeffs == (1,):
            return RatFunc(self.num + other.num, P_ONE)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + -other

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, _canonical=True)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.num.is_zero() or other.num.is_zero():
            return RF_ZERO
        if other.den.coeffs == other.num.coeffs == (1,):
            return self
        if self.den.coeffs == self.num.coeffs == (1,):
            return other
        if self.den.coeffs == (1,) and other.den.coeffs == (1,):
            return RatFunc(self.num * other.num, P_ONE, _canonical=True)
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inverse(self) -> "RatFunc":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    def __pow__(self, k: int) -> "RatFunc":
        """num^k / den^k, canonical as it stands: a prime dividing both
        powers would divide num and den, and a power of a monic polynomial
        is monic.  A unit denominator passes through unpowered.  Zero is
        0/1, so 0^k is 0/1 for k > 0 and 1/1 for k = 0; a negative power of
        zero raises in `inverse`."""
        if k < 0:
            return self.inverse() ** -k
        den = self.den if self.den.coeffs == (1,) else self.den ** k
        return RatFunc(self.num ** k, den, _canonical=True)

    # -- printing -----------------------------------------------------------------

    def __str__(self):
        if self.den.coeffs == (1,):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


RF_ZERO = RatFunc(P_ZERO, P_ONE, _canonical=True)
RF_ONE = RatFunc(P_ONE, P_ONE, _canonical=True)
RF_U = RatFunc(P_U, P_ONE, _canonical=True)


def rf(num, den=None) -> RatFunc:
    """Convenience constructor from ints, Fractions, Polys, or coefficient lists."""
    def to_poly(x):
        if isinstance(x, Poly):
            return x
        if isinstance(x, (int, Fraction)):
            return Poly((x,))
        return Poly(x)
    if den is None:
        return RatFunc(to_poly(num))
    return RatFunc(to_poly(num), to_poly(den))


# -- field automorphisms ------------------------------------------------------------


def _substitute_inverse(p: Poly, sign: int) -> tuple[Poly, int]:
    """Rewrite p(sign/u) as (q(u), d) with p(sign/u) = q(u)/u^d, d = deg p."""
    if p.is_zero():
        return P_ZERO, 0
    d = p.degree
    coeffs = [0] * (d + 1)
    for i, c in enumerate(p.coeffs):
        coeffs[d - i] = c * (sign ** i)
    return Poly(coeffs), d


def _substitute(f: RatFunc, sign: int) -> RatFunc:
    """f with u replaced by sign/u."""
    if f.is_zero():
        return RF_ZERO
    pn, dn = _substitute_inverse(f.num, sign)
    pd, dd = _substitute_inverse(f.den, sign)
    if dn >= dd:
        return RatFunc(pn, pd * Poly.monomial(1, dn - dd))
    return RatFunc(pn * Poly.monomial(1, dd - dn), pd)


def sigma(f: RatFunc) -> RatFunc:
    """The involutory field automorphism substituting u -> -1/u."""
    return _substitute(f, -1)


def ubar(f: RatFunc) -> RatFunc:
    """The involutory field automorphism substituting u -> 1/u."""
    return _substitute(f, 1)


# -- matrices --------------------------------------------------------------------------


class RatMatrix:
    """Square matrix over the rational-function field."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[RatFunc]]):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise ValueError("matrix must be square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def zero(n: int) -> "RatMatrix":
        return RatMatrix([[RF_ZERO] * n for _ in range(n)])

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.n == other.n
                and self.rows == other.rows)

    def __hash__(self):
        return hash(self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._check(other)
        return RatMatrix([[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + -other

    def __neg__(self) -> "RatMatrix":
        return RatMatrix([[-a for a in r] for r in self.rows])

    def _check(self, other):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        self._check(other)
        n = self.n
        out = [[RF_ZERO] * n for _ in range(n)]
        brows = other.rows
        for i in range(n):
            row = self.rows[i]
            acc = out[i]
            for k in range(n):
                a = row[k]
                if a.num.coeffs:
                    br = brows[k]
                    for j in range(n):
                        b = br[j]
                        if b.num.coeffs:
                            acc[j] = acc[j] + a * b
        return RatMatrix(out)

    def scale(self, c: RatFunc) -> "RatMatrix":
        return RatMatrix([[c * a for a in r] for r in self.rows])

    def trace(self) -> RatFunc:
        t = RF_ZERO
        for i in range(self.n):
            t = t + self.rows[i][i]
        return t

    def __str__(self):
        return "[" + "; ".join(", ".join(str(a) for a in r) for r in self.rows) + "]"


def char_poly(m: RatMatrix) -> tuple[RatFunc, ...]:
    """Monic characteristic polynomial det(xI - M) of a matrix over Z[u],
    block by block; raises ValueError on any entry outside Z[u].

    Returns the coefficient tuple in ascending powers of the outer variable.
    One pass over the rows skips the zero entries, checks that every other
    entry lies in Z[u], and joins i and j (i != j) whenever M[i][j] is
    nonzero.  The blocks are the connected components of that graph.
    Listing the indices block after block is a simultaneous permutation P of
    rows and columns, and P M P^-1 is block-diagonal (an entry between two
    blocks is zero by construction).  Similar matrices share their
    characteristic polynomial, and that of a block-diagonal matrix is the
    product of its blocks' polynomials, so the product of the blocks'
    Berkowitz polynomials is det(xI - M).

    Equal blocks, such as the many copies of one tau_s block in rho(T_s),
    have equal polynomials, so Berkowitz runs once per distinct block
    (keyed by its entries) and that polynomial enters the product once for
    each copy.  The product commutes, so grouping the copies leaves
    det(xI - M) unchanged.  It is formed one factor at a time, each copy a
    short factor of the running product: repeated squaring would instead
    multiply long packed integers by long packed integers.

    Each distinct block B (size b) runs on integers: Berkowitz runs on the
    ints B_ij(2^bits), since evaluation at an integer is a ring map and
    Berkowitz only adds and multiplies, and returns the values C_k(2^bits)
    of the coefficients of det(xI - B).  The width is the Hadamard bound on
    the torus (`_block_bits`).  Let |B_ij|_1 be the sum of |c| over the
    coefficients of B_ij, b2 = prod_j sum_i (delta_ij + |B_ij|_1)^2, and
    c any coefficient of P(x, u) = det(xI - B(u)) in Z[x, u].
    - By Cauchy's estimate in x and then in u, |c| is at most the maximum
      of |P| on the torus |x| = |u| = 1.
    - There, each entry satisfies |x delta_ij - B_ij(u)| <= delta_ij +
      |B_ij|_1.
    - Hadamard's inequality bounds |det| by the product of the 2-norms of
      the columns, so |P| <= sqrt(b2) on the torus.
    So |c| <= sqrt(b2) <= isqrt(b2 - 1) + 1 < 2^(bits-1) for bits =
    (isqrt(b2 - 1) + 1).bit_length() + 1, and `_unpack` reads C_k back from
    its signed digits.  A column's 2-norm is at most its 1-norm 1 + c_j,
    with c_j = sum_i |B_ij|_1, so this width is never wider than the one
    read off prod_j (1 + c_j).

    The block polynomials p_1, ..., p_r in Z[u][x], each counted with its
    multiplicity, are then multiplied as integers at one width.  Let |p| be
    the sum of |c| over every (x, u) coefficient c of p.  This norm is
    submultiplicative: each coefficient of p q is a sum of products of one
    coefficient of p and one of q, so |p q| <= |p| |q|.  Hence every
    coefficient of det(xI - M) = p_1 ... p_r is at most bound = |p_1| ...
    |p_r| < 2^(bits-1) in absolute value, for bits = bound.bit_length() + 1.
    Packing each coefficient of every p_i at u = 2^bits is the ring map
    Z[u][x] -> Z[x] of evaluation, so the product of the packed polynomials
    is the packed det(xI - M), and `_unpack` reads each of its coefficients
    back once.
    """
    n = m.n
    rows: list[list[Poly]] = []
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(m.rows):
        nums = []
        for j, x in enumerate(row):
            p = x.num
            if p.coeffs:
                if x.den.coeffs != (1,) or any(type(c) is not int
                                               for c in p.coeffs):
                    raise ValueError(
                        f"char_poly takes entries in Z[u], not {x}")
                if i != j:
                    nbrs[i].append(j)
                    nbrs[j].append(i)
            nums.append(p)
        rows.append(nums)
    copies: dict[tuple, int] = {}
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        block, stack = [], [start]
        while stack:
            i = stack.pop()
            block.append(i)
            for j in nbrs[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        block.sort()
        key = tuple(tuple(rows[i][j] for j in block) for i in block)
        copies[key] = copies.get(key, 0) + 1
    polys, bound = [], 1
    for key, k in copies.items():
        p = _block_char_poly(key)
        polys.append((p, k))
        bound *= sum(abs(c) for x in p for c in x.coeffs) ** k
    bits = bound.bit_length() + 1
    out = [1]
    for p, k in polys:
        factor = [_pack(x, bits) for x in p]
        for _ in range(k):
            product = [0] * (len(out) + len(factor) - 1)
            _add_product(product, out, factor)
            out = product
    return tuple(RatFunc(_unpack(v, bits)) for v in out)


def _block_bits(rows: Sequence[Sequence[Poly]]) -> int:
    """The width at which one block over Z[u] is packed: the Hadamard bound
    on the torus, proved in `char_poly`."""
    b2 = 1
    for j in range(len(rows)):
        col = 0
        for i, row in enumerate(rows):
            x = (i == j) + sum(abs(c) for c in row[j].coeffs)
            col += x * x
        b2 *= col
    return (math.isqrt(b2 - 1) + 1).bit_length() + 1


def _block_char_poly(rows: Sequence[Sequence[Poly]]) -> tuple[Poly, ...]:
    """det(xI - B) for one block over Z[u], by Berkowitz on packed ints (the
    width is proved in `char_poly`)."""
    bits = _block_bits(rows)
    packed = _berkowitz([[_pack(x, bits) for x in row] for row in rows])
    return tuple(_unpack(v, bits) for v in packed)


def _berkowitz(rows: list[list[int]]) -> list[int]:
    """Monic characteristic polynomial of a nonempty square integer matrix
    by the division-free Berkowitz method, as an ascending coefficient list.

    The leading principal submatrix A_m (the first m rows and columns) grows
    one index at a time: A_(m+1) = [[A_m, C], [R, a]], and
    det(xI - A_(m+1)) = (x - a) det(xI - A_m) - R adj(xI - A_m) C.  In
    coefficients, highest power first, that is the lower-triangular Toeplitz
    matrix with first column (1, -a, -R C, -R A_m C, ..., -R A_m^(m-1) C)
    applied to those of det(xI - A_m).  A_m is kept as sparse rows, so zero
    entries cost nothing, and R A_m^j C is 0 for every j once R or C is.
    """
    k = len(rows)
    prev = [1, -rows[0][0]]                  # highest power first
    sparse = [[(0, rows[0][0])] if rows[0][0] else []]
    for m in range(1, k):
        a = rows[m][m]
        col = [rows[i][m] for i in range(m)]
        row = [(j, x) for j, x in enumerate(rows[m][:m]) if x]
        items = [1, -a]
        vec = col
        for step in range(m):
            if not row or not any(vec):
                items += [0] * (m - step)
                break
            items.append(-sum(x * vec[j] for j, x in row))
            if step < m - 1:
                vec = [sum(x * vec[j] for j, x in r) for r in sparse]
        prev = [sum(items[i - j] * prev[j]
                    for j in range(max(0, i - m - 1), min(i, m) + 1))
                for i in range(m + 2)]
        for i, x in enumerate(col):
            if x:
                sparse[i].append((m, x))
        sparse.append(row + [(m, a)] if a else row)
    prev.reverse()
    return prev


def lampoly_str(coeffs: Sequence[RatFunc]) -> str:
    """Render an ascending RatFunc coefficient tuple as a polynomial in x."""
    parts = []
    for i, c in enumerate(coeffs):
        if c.is_zero():
            continue
        if i == 0:
            parts.append(f"({c})")
        elif i == 1:
            parts.append(f"({c})*x")
        else:
            parts.append(f"({c})*x^{i}")
    return " + ".join(parts) if parts else "0"


def rref(rows: list[list[RatFunc]]) -> tuple[list[list[RatFunc]], list[int]]:
    """Reduced row echelon form with the first-nonzero pivot rule.

    Returns the reduced rows and the list of pivot column indices.  The input
    may be rectangular; rows are not copied defensively, pass a fresh list.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][col].num.coeffs:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [inv * a for a in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col].num.coeffs:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def nullspace(rows: list[list[RatFunc]], ncols: int) -> list[list[RatFunc]]:
    """Basis of the right nullspace of a (possibly rectangular) matrix."""
    if not rows:
        return [[RF_ONE if i == j else RF_ZERO for i in range(ncols)]
                for j in range(ncols)]
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free:
        vec = [RF_ZERO] * ncols
        vec[f] = RF_ONE
        for r, p in enumerate(pivots):
            vec[p] = -red[r][f]
        basis.append(vec)
    return basis


def matrix_rank(rows: list[list[RatFunc]]) -> int:
    if not rows:
        return 0
    _, pivots = rref(rows)
    return len(pivots)


def solve_simultaneous_eigenspace(mats: Sequence[RatMatrix],
                                  eigenvalues: Sequence[RatFunc],
                                  dim: int | None = None) -> list[list[RatFunc]]:
    """Basis of the intersection of ker(M_i - lambda_i * I) over all i.

    With an empty list of matrices the ambient dimension must be supplied,
    and the full standard basis is returned.
    """
    if len(mats) != len(eigenvalues):
        raise ValueError("matrix and eigenvalue lists must have equal length")
    if not mats:
        if dim is None:
            raise ValueError("ambient dimension required when no matrices given")
        return [[RF_ONE if i == j else RF_ZERO for i in range(dim)]
                for j in range(dim)]
    n = mats[0].n
    for m in mats:
        if m.n != n:
            raise ValueError("all matrices must share one dimension")
    stacked: list[list[RatFunc]] = []
    for m, lam in zip(mats, eigenvalues):
        for i in range(n):
            row = [m.rows[i][j] - lam if i == j else m.rows[i][j] for j in range(n)]
            stacked.append(row)
    return nullspace(stacked, n)
