"""Command-line front end.

Subcommands build single codes, run certification sweeps, search for
evaluation sets, and re-verify the bundled worked examples.  Reports are
emitted as human text, JSON records (one object per line for sweeps), or
CSV rows; identical arguments and seed produce byte-identical output.

Exit codes: 0 success, 1 verification mismatch, failed search or a closed
stdout (``| head``), 2 invalid configuration, 3 enumeration guard exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import (
    BadParamsError,
    BadTowerError,
    NotADivisorError,
    SearchFailedError,
    SumRankError,
    TooLargeError,
)
from .fields import FieldTower, split_items

ENV_MAX_ENUM = "SUMRANK_MAX_ENUM"
ENV_MAX_HULL = "SUMRANK_MAX_HULL"
# tlrs-sweep builds and certifies one code per (k, h, eta); the bound still
# admits the full q = 13, r = 2, ell = 12 sweep (7,728 reports)
MAX_SWEEP_REPORTS = 10_000


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


class Emitter:
    """Writes records in one of the three formats through a single stream."""

    def __init__(self, fmt: str, stream=None):
        self.fmt = fmt
        self.stream = stream or sys.stdout
        self._csv = None

    def emit(self, record: dict):
        if self.fmt == "json":
            import json

            self.stream.write(json.dumps(record) + "\n")
        elif self.fmt == "csv":
            import csv
            import json

            flat = {
                k: v
                for k, v in record.items()
                if not isinstance(v, (dict, list)) or k in ("lambda", "w")
            }
            flat = {
                k: (json.dumps(v) if isinstance(v, list) else v)
                for k, v in flat.items()
            }
            if self._csv is None:
                self._csv = csv.DictWriter(self.stream, fieldnames=list(flat))
                self._csv.writeheader()
            self._csv.writerow(flat)
        else:
            for key, value in record.items():
                if isinstance(value, list) and value and isinstance(value[0], list):
                    self.stream.write(f"{key}:\n")
                    for row in value:
                        self.stream.write(f"  {row}\n")
                else:
                    self.stream.write(f"{key}: {value}\n")
            self.stream.write("\n")


def _guard(args, name: str, env: str, default: int) -> int:
    """The guard from its option, else its environment variable, else the
    default; a negative or non-integer value is a configuration error."""
    value = getattr(args, name, None)
    if value is not None:
        return _non_negative(value, "--" + name.replace("_", "-"))
    if env in os.environ:
        raw = os.environ[env]
        try:
            value = int(raw)
        except ValueError:
            raise BadParamsError(f"{env} must be an integer, got {raw!r}") from None
        return _non_negative(value, env)
    return default


def _non_negative(value: int, source: str) -> int:
    if value < 0:
        raise BadParamsError(f"{source} must not be negative, got {value}")
    return value


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _tower(args, r=None) -> FieldTower:
    return FieldTower(args.p, args.m, r if r is not None else args.r)


def _acd_guards(args) -> dict:
    """The enumeration and hull guards of an acd build or search, as
    keywords of ``acd.build_report``."""
    from . import acd

    return {
        "max_enumeration": _guard(args, "max_enum", ENV_MAX_ENUM, acd.DEFAULT_MAX_ENUMERATION),
        "max_hull": _guard(args, "max_hull", ENV_MAX_HULL, acd.DEFAULT_MAX_HULL),
    }


def cmd_tlrs_build(args) -> int:
    from . import tlrs
    from .skew import QuotientCtx

    max_enum = _guard(args, "max_enum", ENV_MAX_ENUM, tlrs.DEFAULT_MAX_ENUMERATION)
    tower = _tower(args)
    params = tlrs.TlrsParams(QuotientCtx.build(tower, args.ell), args.k, args.h,
                             tower.parse_top(args.eta))
    report = tlrs.gram(tlrs.build_code(params), with_oracle=not args.no_oracle,
                       with_distance=args.with_distance, max_enumeration=max_enum)
    Emitter(args.format).emit(report.to_dict())
    return 0 if report.routes_agree else 1


def cmd_tlrs_sweep(args) -> int:
    from . import tlrs
    from .skew import QuotientCtx

    tower = _tower(args)
    ctx = QuotientCtx.build(tower, args.ell)
    k_values = range(1, ctx.modulus_degree) if args.k is None else [args.k]
    h_values = range(tower.r) if args.h is None else [args.h]
    planned = len(k_values) * len(h_values) * (tower.q ** tower.r - 1)
    if planned > MAX_SWEEP_REPORTS:
        raise TooLargeError(
            f"the sweep plans {planned} reports, above the bound"
            f" {MAX_SWEEP_REPORTS}; narrow it with --k or --h"
        )
    emitter = Emitter(args.format)
    mismatches = 0
    for k in k_values:
        for h in h_values:
            for eta in tower.top_units():
                code = tlrs.build_code(tlrs.TlrsParams(ctx, k, h, eta))
                report = tlrs.gram(code, with_oracle=not args.no_oracle)
                emitter.emit(report.sweep_row())
                mismatches += not report.routes_agree
    return 1 if mismatches else 0


def cmd_acd_build(args) -> int:
    from . import acd

    tower = _tower(args, r=2)
    lam = [tower.parse_mid(tok) for tok in split_items(args.lam)]
    gamma = tower.parse_top(args.gamma) if args.gamma else None
    params = acd.AcdParams.make(tower, args.k, lam, gamma)
    report = acd.build_report(params, with_oracle=not args.no_oracle,
                              with_distance=args.with_distance, **_acd_guards(args))
    Emitter(args.format).emit(report.to_dict())
    return 0 if report.routes_agree else 1


def cmd_acd_search(args) -> int:
    from . import acd

    guards = _acd_guards(args)
    params = acd.lambda_search(_tower(args, r=2), args.k, args.ell, strategy=args.strategy)
    report = acd.build_report(params, with_distance=args.with_distance,
                              skip_distance_past_guard=True, **guards)
    Emitter(args.format).emit({**report.to_dict(), "strategy": args.strategy})
    ok = report.acd_by_matrix and report.mds_by_criterion and report.routes_agree
    return 0 if ok else 1


def cmd_acd_sweep(args) -> int:
    import random

    from . import acd

    count = _non_negative(args.count, "--count")
    tower = _tower(args, r=2)
    rng = random.Random(args.seed)
    units = list(tower.mid_units())
    tops = list(tower.top_units())
    emitter = Emitter(args.format)
    max_hull = _guard(args, "max_hull", ENV_MAX_HULL, acd.DEFAULT_MAX_HULL)
    max_ell = min(tower.q - 1, max_hull // 2, args.max_ell)
    if max_ell < 2:
        raise BadParamsError(
            f"no code length fits: 2 <= ell <= min(q - 1 = {tower.q - 1},"
            f" hull guard / 2 = {max_hull // 2}, --max-ell = {args.max_ell})"
        )
    disagreements = 0
    for i in range(count):
        ell = rng.randint(2, max_ell)
        k = rng.randint(1, ell - 1)
        lam = tuple(rng.sample(units, ell))
        gamma = tops[rng.randrange(len(tops))]
        params = acd.AcdParams(tower, k, lam, gamma, tower.skew_unit())
        report = acd.build_report(params, max_hull=max_hull)
        emitter.emit(report.sweep_row(i))
        disagreements += not report.routes_agree
    return 1 if disagreements else 0


def cmd_verify_examples(args) -> int:
    from . import acd, tlrs
    from .skew import QuotientCtx

    tower = FieldTower(5, 1, 2)
    ctx = QuotientCtx.build(tower, 2)
    eta_sq = tower.parse_top("2+1u") ** 2
    lcd, self_orth = (
        tlrs.gram(tlrs.build_code(tlrs.TlrsParams(ctx, 1, 0, tower.parse_top(eta))),
                  with_oracle=True)
        for eta in ("2+1u", "2+0u")
    )
    good, bad, wide = (
        acd.build_report(acd.AcdParams.make(tower, 1, lam, tower.parse_top("0+1u")),
                         with_distance=True)
        for lam in ([2, 3], [1, 2], [1, 2, 3])
    )
    checks = [
        ("eta^2 = 1+4u", str(eta_sq) == "1+4u"),
        ("1+eta^2 = 2+4u", str(tower.top_one() + eta_sq) == "2+4u"),
        ("gram = [[4,1],[1,3]]", lcd.gram.to_lists() == [["4", "1"], ["1", "3"]]),
        ("det gram = 1", str(lcd.det_value) == "1"),
        ("complementary-dual by criterion, gram and hull",
         lcd.lcd_by_criterion and lcd.routes_agree),
        ("eta=2 gram is zero", self_orth.gram.is_zero()),
        ("eta=2 self-orthogonal hull dim 2", self_orth.hull_dim == 2),
        ("additive T = diag(4,3)", good.t_mat.to_lists() == [["4", "0"], ["0", "3"]]),
        ("additive {2,3} certified by matrix, blocks and oracle",
         good.acd_by_structured and good.routes_agree),
        ("additive {2,3} distance 2", good.min_distance == 2),
        ("additive {1,2} singular and hull positive", not bad.acd_by_matrix and bad.hull_dim >= 1),
        ("additive length-3 code is distance-optimal (d = 3)",
         wide.mds_by_criterion and wide.min_distance == 3),
    ]
    failures = 0
    for name, ok in checks:
        print(f"{'ok' if ok else 'MISMATCH'} - {name}")
        failures += not ok
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_field_args(sub, with_r=True):
    sub.add_argument("--p", type=int, required=True, help="prime characteristic")
    sub.add_argument("--m", type=int, default=1, help="degree of F_q over F_p")
    if with_r:
        sub.add_argument("--r", type=int, default=2, help="degree of L over F_q")


_GUARD_HELP = {
    "--max-enum": f"codeword enumeration guard (env {ENV_MAX_ENUM})",
    "--max-hull": f"hull ambient-dimension guard (env {ENV_MAX_HULL})",
}


def _add_common(sub, *guards):
    """--format, plus the guard options the subcommand reads."""
    sub.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="output format"
    )
    for flag in guards:
        sub.add_argument(flag, type=int, default=None, help=_GUARD_HELP[flag])


def _tlrs_build_args(s):
    _add_field_args(s)
    s.add_argument("--ell", type=int, required=True, help="evaluation subgroup order")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--h", type=int, default=0)
    s.add_argument("--eta", type=str, required=True, help="twist scalar, e.g. 2+1u")
    s.add_argument("--no-oracle", action="store_true", help="skip the hull oracle")
    s.add_argument(
        "--with-distance", action="store_true", help="measure the sum-rank distance"
    )
    _add_common(s, "--max-enum")
    s.set_defaults(func=cmd_tlrs_build)


def _tlrs_sweep_args(s):
    _add_field_args(s)
    s.add_argument("--ell", type=int, required=True)
    s.add_argument("--k", type=int, default=None, help="fixed k (default: all)")
    s.add_argument("--h", type=int, default=None, help="fixed h (default: all)")
    s.add_argument("--no-oracle", action="store_true")
    _add_common(s)
    s.set_defaults(func=cmd_tlrs_sweep)


def _acd_build_args(s):
    _add_field_args(s, with_r=False)
    s.add_argument("--k", type=int, required=True)
    s.add_argument(
        "--lambda",
        dest="lam",
        type=str,
        required=True,
        help="comma-separated evaluation points, e.g. 2,3 or [1,1],[2,0]",
    )
    s.add_argument(
        "--gamma", type=str, default=None, help="twist scalar (default: alpha)"
    )
    s.add_argument("--no-oracle", action="store_true")
    s.add_argument("--with-distance", action="store_true")
    _add_common(s, "--max-enum", "--max-hull")
    s.set_defaults(func=cmd_acd_build)


def _acd_search_args(s):
    _add_field_args(s, with_r=False)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--ell", type=int, required=True)
    s.add_argument(
        "--strategy", choices=("auto", "geometric", "exhaustive"), default="auto"
    )
    s.add_argument("--with-distance", action="store_true")
    _add_common(s, "--max-enum", "--max-hull")
    s.set_defaults(func=cmd_acd_search)


def _acd_sweep_args(s):
    _add_field_args(s, with_r=False)
    s.add_argument("--count", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-ell", dest="max_ell", type=int, default=8)
    _add_common(s, "--max-hull")
    s.set_defaults(func=cmd_acd_sweep)


# name, help line, and the function adding the subcommand's arguments
_SUBCOMMANDS = (
    ("tlrs-build", "build one twisted code and certify it", _tlrs_build_args),
    ("tlrs-sweep", "sweep eta (and optionally k, h) with both verdicts", _tlrs_sweep_args),
    ("acd-build", "build one additive twisted code", _acd_build_args),
    ("acd-search", "search for an evaluation set that certifies", _acd_search_args),
    ("acd-sweep", "random parameter sweep comparing criterion vs oracle", _acd_sweep_args),
    (
        "verify-paper-examples",
        "re-run the bundled worked examples and verify every value",
        lambda s: s.set_defaults(func=cmd_verify_examples),
    ),
)


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv.  Every subcommand is listed, so the top-level
    help and usage errors never change, but only those named in argv get
    their arguments: parsing argv reads no other."""
    parser = argparse.ArgumentParser(
        prog="sumrank",
        description="Construct twisted evaluation codes and certify their"
        " complementary-dual and distance properties.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_line, add_args in _SUBCOMMANDS:
        s = subs.add_parser(name, help=help_line)
        if name in argv:
            add_args(s)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the exit-time flush writes what is left to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SearchFailedError as exc:
        print(
            f"not found: {exc} ({exc.candidates_scanned} candidates scanned)",
            file=sys.stderr,
        )
        return 1
    except (BadParamsError, BadTowerError, NotADivisorError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except SumRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
