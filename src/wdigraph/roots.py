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
    fixes: Callable         # (x, s, r), s not a left descent -> s*x*r == x
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
    descent s, the first negative column, and then that of s*w, memoized.
    The twisted walk reads its tag off one column: for s not a left
    descent, s*w*r = w iff w^-1 s w = r iff w^-1(alpha_s) = alpha_r, as
    that root is positive and a real root's only positive multiple among
    the roots is itself, so iff column s is the packed alpha_r.

    bits is the least width whose signed digits hold every coefficient of
    every positive root strictly inside their range, so packed equality
    and the digit reads are exact.  The positive roots are the closure of
    the simple ones under the reflections, on tuples of coefficients
    a + b*phi as pairs (a, b): r permutes the positive roots other than
    alpha_r (Humphreys, Reflection Groups and Coxeter Groups, 5.6), so no
    image needs a sign test.
    """
    n = len(matrix)
    phi = any(5 in row for row in matrix)
    cartan = [[(t, _CARTAN[matrix[s][t]][s > t])
               for t in range(n) if matrix[s][t] > 2] for s in range(n)]

    simple = [tuple((int(s == t), 0) for t in range(n)) for s in range(n)]
    roots, found = list(simple), set(simple)
    for v in roots:                     # grows behind v
        for r in range(n):
            if v == simple[r]:
                continue
            a, b = v[r]
            a, b = -a, -b
            for t, (p, q) in cartan[r]:     # phi^2 = phi + 1
                x, y = v[t]
                a, b = a + p * x + q * y, b + p * y + q * x + q * y
            u = (*v[:r], (a, b), *v[r + 1:])
            if u not in found:
                found.add(u)
                roots.append(u)
    largest = max((abs(c) for v in roots for pair in v for c in pair),
                  default=1)
    bits = largest.bit_length() + 1

    top = bits * n                      # where the phi digits start
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    offset = sum(half << (bits * i) for i in range(2 * n if phi else n))

    def digit(v, i):
        return ((v + offset) >> (bits * i) & mask) - half

    def times_phi(v):                   # phi (a + b phi) = b + (a + b) phi
        b = (v + (1 << (top - 1))) >> top       # v = a + b 2^top
        a = v - (b << top)
        return b + ((a + b) << top)

    def coefficient(v, t):              # coefficient t, packed at digit 0
        c = digit(v, t)
        return c + (digit(v, n + t) << top) if phi else c

    # the Cartan entries a_st as ints, phi as 0
    bonds = [[(t, p) for t, (p, q) in row] for row in cartan]

    def reflect(v, r):
        total = -2 * coefficient(v, r)
        for t, a in bonds[r]:
            c = coefficient(v, t)
            total += a * c if a else times_phi(c)
        return v + (total << (bits * r))

    identity = tuple(1 << (bits * s) for s in range(n))
    names = {identity: ()}

    def left(x, s):
        c, v = list(x), x[s]
        for t, a in bonds[s]:
            c[t] += a * v if a else times_phi(v)
        c[s] = -v
        return tuple(c)

    def right(x, s):
        return tuple(reflect(v, s) for v in x)

    def descent(x, s):
        return x[s] < 0

    def fixes(x, s, r):
        return x[s] == identity[r]

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
    return WalkOps(identity, left, right, descent, fixes, name,
                   names.__len__, bits=bits)
