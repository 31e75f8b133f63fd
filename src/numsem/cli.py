"""Command-line frontend: one verb per library operation.

Output is byte-deterministic for fixed inputs.  Exit codes: 0 success,
1 domain error (the error class name is printed to stderr), 2 usage
error (argparse).  ``--output PATH`` writes exactly the bytes that
would have gone to stdout, and ``tree`` writes them as it renders them,
about a buffer at a time.
A failed write, to either, is a domain error.
"""

import argparse
import io
import os
import sys
from itertools import islice
from typing import Callable, Iterable, Iterator

from .core import NumericalSemigroup, proportionally_modular
from .doubles import DoubleLabel, build_double, doubles_bounded, upper_m_sets
from .errors import SemigroupError
from .oracle import _half_index, all_semigroups_up_to, extension_oracle
from .tree import ALL_SEMIGROUPS, _tree_pieces, depth_predicate, enumerate_tree
from .varieties import _family_hull, arithmetic_extensions, is_arithmetic_extension, smallest_variety


def _generators(text: str) -> list[int]:
    try:
        parts = [int(p) for p in text.split(",") if p]
    except ValueError:
        parts = []
    if not parts or min(parts) < 1:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}"
        )
    return parts


def _element_list(text: str) -> list[int]:
    try:
        parts = [int(p) for p in text.split(",") if p]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated nonnegative integers, got {text!r}"
        )
    if parts and min(parts) < 0:
        raise argparse.ArgumentTypeError("elements must be nonnegative")
    return parts


def _int_at_least(low: int, kind: str) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "nonnegative")


def _json_text(obj) -> str:
    import json  # here, not at the top: text and tree outputs never load it
    return json.dumps(obj, indent=2) + "\n"


def _semigroup_text(s: NumericalSemigroup) -> str:
    return (
        f"{s} F={s.frobenius} m={s.multiplicity} g={s.genus}"
        f" e={s.embedding_dimension} depth={s.depth()}"
        f" gaps={','.join(map(str, s.gaps))}\n"
    )


def _render_semigroup(s: NumericalSemigroup, fmt: str) -> str:
    if fmt == "json":
        return _json_text(s.to_json_dict())
    return str(s) + "\n"


def _render_family(family, fmt: str) -> str:
    if fmt == "json":
        return _json_text(family.to_json_dict())
    return "".join(str(s) + "\n" for s in family)


def _double_line(label: DoubleLabel, t: NumericalSemigroup) -> str:
    return f"{label} = {t} F={t.frobenius}\n"


def _double_json(label: DoubleLabel, t: NumericalSemigroup) -> dict:
    return {**label.to_json_dict(), "semigroup": t.to_json_dict()}


# -- verb handlers: each returns (exit_code, output text or its pieces) --


def _cmd_info(args) -> tuple[int, str]:
    s = NumericalSemigroup.from_generators(args.generators)
    if args.format == "json":
        return 0, _json_text(s.to_json_dict())
    return 0, _semigroup_text(s)


def _cmd_quotient(args) -> tuple[int, str]:
    s = NumericalSemigroup.from_generators(args.generators)
    return 0, _render_semigroup(s.quotient(args.divisor), args.format)


def _cmd_intersect(args) -> tuple[int, str]:
    result = NumericalSemigroup.from_generators(args.generators[0])
    for gens in args.generators[1:]:
        result = result.intersect(NumericalSemigroup.from_generators(gens))
    return 0, _render_semigroup(result, args.format)


def _cmd_fundamental_gaps(args) -> tuple[int, str]:
    s = NumericalSemigroup.from_generators(args.generators)
    fg = s.fundamental_gaps()
    if args.format == "json":
        return 0, _json_text(list(fg))
    return 0, ",".join(map(str, fg)) + "\n"


def _cmd_pm(args) -> tuple[int, str]:
    s = proportionally_modular(args.a, args.b, args.c)
    return 0, _render_semigroup(s, args.format)


def _cmd_extensions(args) -> tuple[int, str]:
    s = NumericalSemigroup.from_generators(args.generators)
    return 0, _render_family(arithmetic_extensions(s), args.format)


def _cmd_variety(args) -> tuple[int, str]:
    family = [NumericalSemigroup.from_generators(g) for g in args.generators]
    return 0, _render_family(smallest_variety(family), args.format)


def _cmd_is_extension(args) -> tuple[int, str]:
    s = NumericalSemigroup.from_generators(args.base)
    t = NumericalSemigroup.from_generators(args.candidate)
    return 0, ("true" if is_arithmetic_extension(s, t) else "false") + "\n"


def _cmd_hull(args) -> tuple[int, str]:
    family = [NumericalSemigroup.from_generators(g) for g in args.generators]
    return 0, _render_semigroup(_family_hull(family, args.elements), args.format)


def _cmd_upper_sets(args) -> tuple[int, str]:
    s = NumericalSemigroup.from_generators(args.generators)
    sets = upper_m_sets(s, args.modulus)
    if args.format == "json":
        return 0, _json_text([sorted(h) for h in sets])
    return 0, "".join("{" + ",".join(map(str, sorted(h))) + "}\n" for h in sets)


def _cmd_double(args) -> tuple[int, str]:
    s = NumericalSemigroup.from_generators(args.generators)
    label = DoubleLabel(args.modulus, frozenset(args.upper_set))
    t = build_double(s, label.m, label.upper_set)
    if args.format == "json":
        return 0, _json_text(_double_json(label, t))
    return 0, _double_line(label, t)


def _cmd_doubles(args) -> tuple[int, str]:
    s = NumericalSemigroup.from_generators(args.generators)
    results = doubles_bounded(s, args.frobenius_bound)
    if args.format == "json":
        return 0, _json_text([_double_json(label, t) for label, t in results])
    return 0, "".join(_double_line(label, t) for label, t in results)


def _cmd_tree(args) -> tuple[int, Iterator[str]]:
    predicate = ALL_SEMIGROUPS if args.depth is None else depth_predicate(args.depth)
    return 0, _tree_pieces(enumerate_tree(args.frobenius_bound, predicate), args.format)


def _cmd_enumerate_all(args) -> tuple[int, str]:
    report = all_semigroups_up_to(args.frobenius_bound)
    if args.format == "json":
        return 0, _json_text(report.to_json_dict())
    return 0, "".join(str(s) + "\n" for s in report.semigroups)


def _cmd_oracle_check(args) -> tuple[int, str]:
    bound = args.frobenius_bound
    top = all_semigroups_up_to(bound)  # one 2^bound walk serves every smaller bound
    tree_ok = sum(enumerate_tree(f).nodes == top.up_to(f).semigroups for f in range(1, bound + 1))
    lines = [f"{'ok' if tree_ok == bound else 'MISMATCH'} tree-vs-bruteforce: "
             f"{tree_ok}/{bound} bounds agree\n"]

    halves = _half_index(top)
    small = [s for s in top.semigroups if s.frobenius <= bound // 2]
    bad = [(s, f) for s in small for f in range(1, bound + 1)
           if [t for _, t in doubles_bounded(s, f)]
           != [t for t in halves.get(s.gap_mask, ()) if t.frobenius <= f]]
    lines += [f"MISMATCH doubles-vs-bruteforce: S={s} F={f}\n" for s, f in bad] or [
        f"ok doubles-vs-bruteforce: {len(small)} semigroups x {bound} bounds agree\n"]

    candidates = [s for s in top.semigroups if s.frobenius <= min(bound, 8)]
    bad_ext = [s for s in candidates
               if arithmetic_extensions(s).members != extension_oracle(s).members]
    lines += [f"MISMATCH extensions-vs-bruteforce: S={s}\n" for s in bad_ext] or [
        f"ok extensions-vs-bruteforce: {len(candidates)} semigroups agree\n"]

    failed = tree_ok != bound or bool(bad or bad_ext)
    lines.append("oracle-check: FAIL\n" if failed else "oracle-check: PASS\n")
    return int(failed), "".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="numsem",
        description="Numerical semigroups: invariants, quotients, closed families, "
        "bounded doubles and depth-bounded tree enumeration.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name: str, handler: Callable, help_text: str, formats=("text", "json")):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", metavar="PATH", default=None)
        return p

    p = add("info", _cmd_info, "invariants of one semigroup")
    p.add_argument("generators", type=_generators)

    p = add("quotient", _cmd_quotient, "quotient by a positive integer")
    p.add_argument("generators", type=_generators)
    p.add_argument("divisor", type=_positive_int)

    p = add("intersect", _cmd_intersect, "intersection of two or more semigroups")
    p.add_argument("generators", type=_generators, nargs="+")

    p = add("fundamental-gaps", _cmd_fundamental_gaps, "gaps whose multiples are members")
    p.add_argument("generators", type=_generators)

    p = add("pm", _cmd_pm, "proportionally modular semigroup {x : a*x mod b <= c*x}")
    p.add_argument("a", type=_positive_int)
    p.add_argument("b", type=_positive_int)
    p.add_argument("c", type=_positive_int)

    p = add("extensions", _cmd_extensions, "smallest closed family containing one semigroup")
    p.add_argument("generators", type=_generators)

    p = add("variety", _cmd_variety, "smallest closed family containing several semigroups")
    p.add_argument("generators", type=_generators, nargs="+")

    p = add("is-extension", _cmd_is_extension, "is the second an arithmetic extension of the first?")
    p.add_argument("base", type=_generators)
    p.add_argument("candidate", type=_generators)

    p = add("hull", _cmd_hull, "smallest family member containing given elements")
    p.add_argument("generators", type=_generators, nargs="+")
    p.add_argument("--elements", type=_element_list, default=[])

    p = add("upper-sets", _cmd_upper_sets, "upper m-sets of a semigroup")
    p.add_argument("generators", type=_generators)
    p.add_argument("--modulus", type=_positive_int, required=True)

    p = add("double", _cmd_double, "build one double from its (m, H) label")
    p.add_argument("generators", type=_generators)
    p.add_argument("--modulus", type=_positive_int, required=True)
    p.add_argument("--upper-set", type=_element_list, default=[])

    p = add("doubles", _cmd_doubles, "all doubles under a Frobenius bound")
    p.add_argument("generators", type=_generators)
    p.add_argument("--frobenius-bound", type=_positive_int, required=True)

    p = add("tree", _cmd_tree, "tree of a family under a Frobenius bound",
            formats=("text", "json", "dot"))
    p.add_argument("--frobenius-bound", type=_positive_int, required=True)
    p.add_argument("--depth", type=_nonnegative_int, default=None)

    p = add("enumerate-all", _cmd_enumerate_all, "brute-force enumeration report")
    p.add_argument("--frobenius-bound", type=_positive_int, required=True)

    p = sub.add_parser("oracle-check", help="cross-validate algorithms against brute force")
    p.set_defaults(handler=_cmd_oracle_check)
    p.add_argument("--frobenius-bound", type=_positive_int, default=12)
    p.add_argument("--output", metavar="PATH", default=None)

    return parser


def _chunks(pieces: Iterable[str]) -> Iterator[str]:
    """The pieces joined into strings of at least a buffer each, but the last.

    A write costs the same for a piece as for a buffer.  The pieces are
    taken and joined n at a time in C, n doubling while the chunk is short,
    so that a piece costs no Python step of its own either.
    """
    pieces = iter(pieces)
    n, chunk = 1, ""
    while batch := list(islice(pieces, n)):
        chunk += "".join(batch)
        if len(chunk) < io.DEFAULT_BUFFER_SIZE:
            n *= 2
        else:
            yield chunk
            chunk = ""
    if chunk:
        yield chunk


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, text = args.handler(args)
        pieces = _chunks((text,) if isinstance(text, str) else text)
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
    except (SemigroupError, OSError) as exc:
        if args.output is None and isinstance(exc, OSError):  # quiet the flush at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
