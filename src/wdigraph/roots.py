"""Elements of a finite Coxeter group on packed root coordinates.

`root_ops` gives the operations `coxeter.CoxeterSystem.up_walk` needs, when
W is finite and every order m(s,t) is at most 6, on the matrix of w^-1 on
the simple roots, one packed int per column; `WalkOps` is the interface
that it and the walk on canonical words both provide.
"""

from __future__ import annotations

from typing import Callable, NamedTuple


class WalkOps(NamedTuple):
    """What `up_walk` needs of one representation of the elements of W."""

    identity: object
    left: Callable          # (x, s) -> s*x
    right: Callable         # (x, s) -> x*s
    descent: Callable       # (x, s) -> whether l(s*x) < l(x)
    name: Callable          # x -> the canonical word of x
    built: Callable         # () -> the memo that counts the walk's work
    on_words: bool = False  # canonical words, else root coordinates
    bits: int = 0           # root coordinates: the width of a packed digit


# the Cartan entries (a_st, a_ts), s before t, of an edge of order m; each
# is p + q*phi, phi the golden ratio, as (p, q), and a_st * a_ts = 4cos^2(pi/m)
_CARTAN = {3: ((1, 0), (1, 0)), 4: ((1, 0), (2, 0)), 5: ((0, 1), (0, 1)),
           6: ((1, 0), (3, 0))}


def root_ops(matrix) -> WalkOps:
    """The walk's operations on root coordinates, for a finite W whose
    orders are all at most 6.

    s(alpha_s) = -alpha_s and s(alpha_t) = alpha_t + a_st alpha_s, with
    a_st * a_ts = 4cos^2(pi/m) (`_CARTAN`: integers, and phi for m = 5);
    finite diagrams are forests, so this is a diagonal conjugate of the
    geometric representation.  w is the tuple of columns w^-1(alpha_t),
    each the sum of c_t 2^(bits t) over its coefficients, in signed digits
    (a coefficient a + b*phi puts b at digit rank + t).  s is a left
    descent iff column s is below 0 (Bjorner-Brenti, Combinatorics of
    Coxeter Groups, 4.2.5): a root's coefficients share one sign, and for
    m = 5 each is a + b*phi with a and b of that sign (checked on H3, H4
    and I2(5), the finite types with m = 5), so every digit of a packed
    column has its root's sign, and so has the int.  s*w adds a_st times
    column s to column t and negates column s; w*s reflects each column,
    changing its coefficient s; the canonical word is the least left
    descent s and then that of s*w, memoized.  bits is the least width
    whose signed digits hold every coefficient of every positive root
    strictly inside their range, so packed equality and the digit reads
    are exact.
    """
    n = len(matrix)
    phi = any(5 in row for row in matrix)
    digits = 2 * n if phi else n

    def packing(bits):
        """(digit, reflect, bonds) at one width."""
        top = bits * n                      # where the phi digits start
        half, mask = 1 << (bits - 1), (1 << bits) - 1
        offset = sum(half << (bits * i) for i in range(digits))

        def digit(v, i):
            return ((v + offset) >> (bits * i) & mask) - half

        def times_phi(v):                   # phi (a + b phi) = b + (a + b) phi
            b = (v + (1 << (top - 1))) >> top       # v = a + b 2^top
            a = v - (b << top)
            return b + ((a + b) << top)

        def coefficient(v, t):              # coefficient t, packed at digit 0
            c = digit(v, t)
            return c + (digit(v, n + t) << top) if phi else c

        def times(a):                       # multiplication by a = (p, q)
            return times_phi if a == (0, 1) else a[0].__mul__
        bonds = [[(t, times(_CARTAN[matrix[s][t]][s > t]))
                  for t in range(n) if matrix[s][t] > 2] for s in range(n)]

        def reflect(v, r):
            total = -2 * coefficient(v, r)
            for t, mul in bonds[r]:
                total += mul(coefficient(v, t))
            return v + (total << (bits * r))
        return digit, reflect, bonds

    # the positive roots at a width no finite root system comes near
    digit, reflect, _ = packing(64)
    roots = [1 << (64 * s) for s in range(n)]
    for v in roots:
        for r in range(n):
            u = reflect(v, r)
            if u > 0 and u not in roots:
                roots.append(u)
    largest = max((abs(digit(v, i)) for v in roots for i in range(digits)),
                  default=1)
    bits = largest.bit_length() + 1
    _, reflect, bonds = packing(bits)

    identity = tuple(1 << (bits * s) for s in range(n))
    names = {identity: ()}

    def left(x, s):
        c = list(x)
        for t, mul in bonds[s]:
            c[t] += mul(x[s])
        c[s] = -x[s]
        return tuple(c)

    def right(x, s):
        return tuple(reflect(v, s) for v in x)

    def descent(x, s):
        return x[s] < 0

    def name(x):
        path, word = [], names.get(x)
        while word is None:
            s = 0
            while x[s] > 0:
                s += 1
            path.append((x, s))
            x = left(x, s)
            word = names.get(x)
        for x, s in reversed(path):
            word = (s,) + word
            names[x] = word
        return word
    return WalkOps(identity, left, right, descent, name, names.__len__,
                   bits=bits)
