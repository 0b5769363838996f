"""Calls into the packed ramified kernel per verify criterion.

    python3 tools/kernelcount.py [--scale S] [--seed N] [--passes K]

Wraps `CoeffTower._ram_pack` (Kronecker integers packed),
`CoeffTower._ram_reduce` (packed products reduced, e pi-degrees each),
`CoeffTower.mat_product` (2x2 kernel products) and
`CoeffTower.teichmuller_power` (Teichmuller lifts) in this process, runs
every verify criterion in id order (scale 0.05, seed 0 by default: the
verify workload of the benchmark) and prints one row per criterion: each
call count, the output entries of `mat_product` that are an operand's
own coefficient tuples (copies) and those that are the tower's shared
zero (zeros), neither of which is reduced.  With --passes K the suite
runs K times in the one process and one table is printed per pass; the
first pass builds the towers that `verify.tower` shares, so equal counts
on the first and a later pass show that no state kept across passes
saves kernel calls.  Standard library only.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dieumod import verify  # noqa: E402
from dieumod.wittring import CoeffTower  # noqa: E402

COLUMNS = ("_ram_pack", "_ram_reduce", "mat_product", "teichmuller_power", "copies", "zeros")


def install(counts):
    """Wrap the counted methods of CoeffTower; returns a function that
    puts the originals back."""
    originals = {name: getattr(CoeffTower, name) for name in COLUMNS[:4]}

    def counting(name, orig):
        def wrapper(self, *args):
            counts[name] += 1
            return orig(self, *args)
        return wrapper

    for name, orig in originals.items():
        setattr(CoeffTower, name, counting(name, orig))
    product = CoeffTower.mat_product

    def mat_product(self, P, Q):
        out = product(self, P, Q)
        given, zero = (*P.cs, *Q.cs), getattr(self, "_zero_cs", None)
        for cs in out.cs:
            if cs is zero:
                counts["zeros"] += 1
            elif any(cs is x for x in given):
                counts["copies"] += 1
        return out

    CoeffTower.mat_product = mat_product

    def restore():
        for name, orig in originals.items():
            setattr(CoeffTower, name, orig)
    return restore


def run_pass(seed, scale):
    """{criterion id: Counter of the columns} over one run of every criterion."""
    rows = {}
    for cid in sorted(verify.CRITERIA):
        counts = Counter()
        restore = install(counts)
        try:
            verify.CRITERIA[cid](seed=seed, scale=scale)
        finally:
            restore()
        rows[cid] = counts
    return rows


def print_table(rows):
    print(f"{'id':>3} " + " ".join(f"{c:>17}" for c in COLUMNS))
    total = Counter()
    for cid, counts in rows.items():
        total.update(counts)
        print(f"{cid:>3} " + " ".join(f"{counts[c]:>17}" for c in COLUMNS))
    print(f"{'all':>3} " + " ".join(f"{total[c]:>17}" for c in COLUMNS))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--passes", type=int, default=1)
    args = ap.parse_args(argv)
    for k in range(args.passes):
        if args.passes > 1:
            print(f"pass {k + 1}")
        print_table(run_pass(args.seed, args.scale))


if __name__ == "__main__":
    main(sys.argv[1:])
