"""The square-zero determinant kernel on `SqZero` objects, as the reference
for the integer-pair kernel of `strata`.

`SqZero`, `_bottom_minors` and `_first_row_cofactors` are the library's as
they were before the kernel ran on plain (a, v) integer pairs, unchanged:
an element a + sum_k v_k eps_k is a `SqZero(a, v)` with the same packed
part v, so a pair minor (a, v) must equal the reference minor's (x.a, x.v).
"""


class SqZero:
    """Z[eps_k] / (eps_j eps_k): a + sum_k v_k eps_k, the nilpotent part
    packed into one integer v = sum_k v_k 2^(w k) of signed w-bit slots.
    Every operation is linear in v and never reads a slot; while each
    |v_k| < 2^(w-1), `==` on v is `==` on the coefficient vectors."""

    __slots__ = ("a", "v")

    def __init__(self, a, v=0):
        self.a, self.v = a, v

    def __add__(self, o):
        return SqZero(self.a + o.a, self.v + o.v)

    def __sub__(self, o):
        return SqZero(self.a - o.a, self.v - o.v)

    def __neg__(self):
        return SqZero(-self.a, -self.v)

    def __mul__(self, o):
        return SqZero(self.a * o.a, self.a * o.v + o.a * self.v)

    def __eq__(self, o):
        return self.a == o.a and self.v == o.v

    def __repr__(self):
        return f"SqZero({self.a}, {self.v:#x})"


def _bottom_minors(rows, k):
    """{mask: minor} for every set of k columns (a bitmask) of a square
    matrix: the determinant of its last k rows restricted to those columns.

    Memoized Laplace expansion along rows, from the bottom up: a minor of
    size s + 1 is expanded along its top row into minors of size s, read
    from the previous table.  All sizes up to n take n * 2^(n-1) products.
    """
    n = len(rows)
    minors = {1 << j: x for j, x in enumerate(rows[n - 1])}
    for r in range(n - 2, n - 1 - k, -1):
        wider = {}
        for mask, minor in minors.items():
            for j in range(n):
                if mask >> j & 1:
                    continue
                term = rows[r][j] * minor
                key = mask | 1 << j
                # cofactor sign: the columns of mask left of j shift j's place
                odd = (mask & ((1 << j) - 1)).bit_count() % 2
                if key not in wider:
                    wider[key] = -term if odd else term
                else:
                    wider[key] = wider[key] - term if odd else wider[key] + term
        minors = wider
    return minors


def _first_row_cofactors(rows):
    """[U_{1,k} for k < n]: (-1)^k times the minor of rows 2..n without
    column k, all read from one table of bottom minors."""
    n = len(rows)
    if n == 1:
        return [SqZero(1)]  # the empty determinant is 1
    minors = _bottom_minors(rows, n - 1)
    full = (1 << n) - 1
    return [-minors[full ^ 1 << k] if k % 2 else minors[full ^ 1 << k]
            for k in range(n)]
