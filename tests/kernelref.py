"""The packed kernel without its zero and constant shortcuts, as the
reference for `fppoly.PackedQuotient.pack`, `split` and `reduce` and for
`wittring.CoeffTower._ram_reduce` and `_ram_pack`.

Every function walks every slot: `pack` shifts in each coefficient,
`split` reads d slots, `reduce` folds all d-1 high slots with the table of
x^(d+k), and `_ram_reduce` always folds pi^(e+k) = p * pi^k.  They are
methods in the library; here they take the ring (a `PackedQuotient`) or
the tower as their first argument, read only its tables, and call one
another, not the library's.
"""


def pack(self, coeffs):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << self.bits) | c
    return acc


def split(self, acc):
    """Coefficient tuple of the d low slots of a packed integer, each
    reduced mod m."""
    m, bits, mask = self.m, self.bits, self._mask
    out = []
    for _ in range(self.d):
        out.append((acc & mask) % m)
        acc >>= bits
    return tuple(out)


def reduce(self, conv):
    """Coefficient tuple mod (modulus, m) of a packed product of 2d-1
    slots."""
    m, bits, mask = self.m, self.bits, self._mask
    acc = conv & self._lowmask
    conv >>= self.d * bits
    for row in self._xpow:
        c = (conv & mask) % m
        if c:
            acc += c * row
        conv >>= bits
    return split(self, acc)


def _ram_reduce(self, prod):
    """e reduced coefficient tuples of a packed ramified product (or sum
    of products): the fold pi^(e+k) = p * pi^k on the packed parts, then
    one reduction per pi-degree."""
    width = self.e * self._stride
    prod = (prod & ((1 << width) - 1)) + self.p * (prod >> width)
    seg = (1 << self._stride) - 1
    out = []
    for _ in range(self.e):
        out.append(reduce(self._ring, prod & seg))
        prod >>= self._stride
    return out


def _ram_pack(self, cs):
    """Bivariate Kronecker integer of e coefficient tuples."""
    acc = 0
    for c in reversed(cs):
        acc = (acc << self._stride) | pack(self._ring, c)
    return acc
