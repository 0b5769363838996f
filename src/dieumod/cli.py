"""Command-line front door.  JSON in, JSON out, deterministic for a fixed
seed; exit code 0 on success, 1 on domain errors (with a machine-readable
error object), 2 on usage errors.
"""

import argparse
import json
import math
import os
import sys

from .wittring import CoeffTower, DomainError, PrecisionError
from .modules import DModule, is_json_ram
from . import invariants as inv
from . import strata
from . import families as fam
from . import verify as vf


def _emit(obj):
    print(json.dumps(obj, sort_keys=True, indent=2))


def _tower_from_args(args):
    return CoeffTower(args.p, args.f, args.e, args.ext, args.precision)


def _ints(text):
    text = text.strip()
    return tuple(int(x) for x in text.split(",")) if text else ()


def _tau_slots(text, tower):
    """The --tau slots, each in 0..f-1 and listed once: the builders key
    their coefficient maps by the slots as given, so a slot past f - 1
    would alias slot (tau mod f)."""
    tau = _ints(text)
    for i in tau:
        if not 0 <= i < tower.f:
            raise DomainError("usage", f"--tau slot {i} is out of range 0..{tower.f - 1}")
        if tau.count(i) > 1:
            raise DomainError("usage", f"--tau repeats slot {i}")
    return tau


def cmd_invariants(args):
    if args.module == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.module) as fh:
            data = json.load(fh)
    M = DModule.from_json(data)
    report = inv.invariant_report(M)
    if args.method == "oracle" and M.det_sum == M.g:
        report["newton_oracle"] = inv.newton_point(M, "oracle").to_json()
    _emit(report)
    return 0


def cmd_construct(args):
    tower = _tower_from_args(args)
    if args.family == "ordinary":
        M = fam.ordinary_module(tower)
    elif args.family == "slope":
        if args.a is None:
            raise DomainError("usage", "--a is required for the slope family")
        M = fam.slope_family(tower, args.a)
    elif args.family == "normal":
        tau = _tau_slots(args.tau or "", tower)
        if args.cjson:
            raw = json.loads(args.cjson)
            if not (isinstance(raw, dict) and all(map(is_json_ram, raw.values()))):
                raise DomainError("bad-input", "--cjson must map slots to ramified elements")
            keys = []
            for k in raw:
                try:
                    keys.append(int(k))
                except ValueError:
                    raise DomainError("usage", f"--cjson key {k!r} is not a slot number") from None
            if sorted(keys) != sorted(tau):
                raise DomainError("usage", f"--cjson slots {sorted(keys)} differ from the "
                                  f"--tau slots {sorted(tau)}")
            c = {i: tower.ram(v) for i, v in zip(keys, raw.values())}
        else:
            avals = _ints(args.avals or "")
            if len(avals) != len(tau):
                raise DomainError("usage", "--avals must list one value per tau slot")
            for a in avals:  # c = pi^(a-1) gives the slot the a-value ord(c*pi) = a
                if not 1 <= a <= tower.e:
                    raise DomainError("usage", f"--avals value {a} is out of range 1..{tower.e}")
            c = {i: tower.pi_pow(a - 1) for i, a in zip(tau, avals)}
        M = fam.normal_form(tower, tau, c)
    elif args.family == "superspecial":
        M = fam.superspecial(tower, args.e1, args.e2, args.variant)
    elif args.family == "nonrapoport":
        M = fam.nonrapoport_module(tower)
    else:
        raise DomainError("usage", f"unknown family {args.family!r}")
    out = M.to_json()
    if getattr(M, "pairing_note", None):
        out["pairing_note"] = M.pairing_note
    _emit(out)
    return 0


def cmd_poset(args):
    P = strata.atype_poset(args.e, args.f, cap=args.size_cap)
    if args.format == "dot":
        print(P.to_dot())
    else:
        _emit(P.to_json())
    return 0


def cmd_hecke(args):
    from . import hecke as hk  # numpy loads with the probe only
    report = hk.probe_report(args.p, args.s,
                             full_grassmannian=args.full_grassmannian,
                             size_cap=args.size_cap)
    _emit(report)
    return 0


def cmd_sample_deform(args):
    import random
    tower = _tower_from_args(args)
    tau = _tau_slots(args.tau, tower)
    target = _ints(args.target)
    rng = random.Random(args.seed)
    out = fam.sample_deform(tower, tau, target, args.trials, rng)
    _emit(out)
    return 0


def cmd_verify(args):
    if not (math.isfinite(args.scale) and args.scale > 0):
        raise DomainError("bad-input", f"--scale must be finite and positive, not {args.scale}")
    def status(check, elapsed):
        word = "pass" if check["passed"] else "FAIL"
        print(f"[{word}] {check['name']} ({check['cases']} cases, {elapsed:.3f} s)",
              file=sys.stderr)

    report = vf.run_criteria(vf.SUITES[args.suite], seed=args.seed, scale=args.scale,
                             progress=status)
    _emit(report)
    return 0 if report["passed"] else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="dieumod",
        description="exact invariants, families and stratification data for "
                    "rank-2 Dieudonne modules with real multiplication")
    seed_parent = argparse.ArgumentParser(add_help=False)
    seed_parent.add_argument("--seed", type=int,
                             default=os.environ.get("DIEUMOD_SEED", "0"),
                             help="random seed (flag wins over DIEUMOD_SEED)")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[seed_parent], **kw)

    def tower_flags(sp):
        sp.add_argument("--p", type=int, default=3)
        sp.add_argument("--f", type=int, default=1)
        sp.add_argument("--e", type=int, default=1)
        sp.add_argument("--ext", type=int, default=2)
        sp.add_argument("--precision", type=int, default=None,
                        help="Witt length N (default: smallest admissible)")

    sp = add_parser("invariants", help="invariant report for a module JSON")
    sp.add_argument("--module", required=True, help="path or - for stdin")
    sp.add_argument("--method", choices=("fast", "oracle"), default="fast",
                    help="fast: one-slot F^f trace, not a base-change invariant when "
                         "ext > 1; oracle: a certified lower bound on the index")
    sp.set_defaults(func=cmd_invariants)

    sp = add_parser("construct", help="emit the module JSON of a family")
    tower_flags(sp)
    sp.add_argument("--family", required=True,
                    choices=("ordinary", "slope", "normal", "superspecial",
                             "nonrapoport"))
    sp.add_argument("--a", type=int, default=None, help="slope family parameter")
    sp.add_argument("--tau", default=None, help="comma list of slots")
    sp.add_argument("--avals", default=None,
                    help="comma list of slot a-values in 1..e matching --tau")
    sp.add_argument("--cjson", default=None,
                    help="JSON map slot -> ramified-element coefficients")
    sp.add_argument("--e1", type=int, default=None)
    sp.add_argument("--e2", type=int, default=None)
    sp.add_argument("--variant", choices=("rapoport", "general"), default="general")
    sp.set_defaults(func=cmd_construct)

    sp = add_parser("poset", help="annotated a-type poset")
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--f", type=int, required=True)
    sp.add_argument("--format", choices=("json", "dot"), default="json")
    sp.add_argument("--size-cap", type=int, default=10 ** 6)
    sp.set_defaults(func=cmd_poset)

    sp = add_parser("hecke", help="stable-plane enumeration report")
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--s", type=int, default=1)
    sp.add_argument("--full-grassmannian", action="store_true")
    sp.add_argument("--size-cap", type=int, default=10 ** 7)
    sp.set_defaults(func=cmd_hecke)

    sp = add_parser("sample-deform", help="slope histogram over a stratum")
    tower_flags(sp)
    sp.add_argument("--tau", required=True)
    sp.add_argument("--target", required=True,
                    help="comma list of f slot values (the target a-type)")
    sp.add_argument("--trials", type=int, default=100)
    sp.set_defaults(func=cmd_sample_deform)

    sp = add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", required=True, choices=sorted(vf.SUITES))
    sp.add_argument("--scale", type=float, default=1.0,
                    help="scale factor on randomized sample sizes")
    sp.set_defaults(func=cmd_verify)
    return ap


def _run(args):
    try:
        return args.func(args)
    except (DomainError, PrecisionError) as exc:
        code = getattr(exc, "code", "precision")
        _emit({"error": {"code": code, "message": str(exc)}})
        return 1
    except BrokenPipeError:
        raise
    except RecursionError:
        # `json` descends one stack frame per nesting level
        _emit({"error": {"code": "bad-input", "message": "JSON input nests too deeply"}})
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        _emit({"error": {"code": "bad-input", "message": str(exc)}})
        return 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # stdout was closed early (say by `| head`): point it at devnull so
        # the flush at exit cannot fail again, and report on stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(json.dumps({"error": {"code": "broken-pipe", "message": str(exc)}}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
