"""Command-line frontend: one verb per library operation.

Output is byte-deterministic for fixed inputs.  Exit codes: 0 success,
1 domain error (the error class name is printed to stderr), 2 usage
error (argparse, imported only for help, usage and errors: see
:func:`_parse`).  ``--output PATH`` writes exactly the bytes that would
have gone to stdout, and every verb writes them as it renders them, text
or JSON, about a buffer at a time.
A failed write, to either, is a domain error.
"""

import gc
import importlib.util
import io
import os
import sys
from _thread import RLock
from itertools import chain, islice
from types import ModuleType, SimpleNamespace
from typing import Callable, Iterable, Iterator, NoReturn

from .core import NumericalSemigroup, proportionally_modular
from .errors import SemigroupError

_RUNNING = RLock()  # re-entrant: a running layer reads its own module and imports others


class _Layer(ModuleType):
    """A module whose code runs on the first access to any attribute, in one thread while
    the others wait; only then does it turn plain, so no thread meets it half run
    (``importlib.util.LazyLoader`` turns it plain first, below Python 3.13)."""

    def __getattribute__(self, attr: str) -> object:
        with _RUNNING:
            spec = ModuleType.__getattribute__(self, "__spec__")
            if spec.loader_state is None:  # the first access: the code has not started
                spec.loader_state = "running"
                spec.loader.exec_module(self)
                self.__class__ = ModuleType
        return ModuleType.__getattribute__(self, attr)


def _layer(name: str) -> ModuleType:
    """``numsem.NAME`` as imported already, or else registered as a ``_Layer``, in
    ``sys.modules`` and on the package as an import would: a verb runs only its layers."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        module = sys.modules[full] = importlib.util.module_from_spec(importlib.util.find_spec(full))
        module.__class__ = _Layer
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


doubles, oracle, tree, varieties = map(_layer, ("doubles", "oracle", "tree", "varieties"))


def _reject(message: str) -> NoReturn:
    import argparse  # only a rejected value and the full parser need it
    raise argparse.ArgumentTypeError(message)


def _generators(text: str) -> list[int]:
    try:
        parts = [int(p) for p in text.split(",") if p]
    except ValueError:
        parts = []
    if not parts or min(parts) < 1:
        _reject(f"expected comma-separated positive integers, got {text!r}")
    return parts


def _element_list(text: str) -> list[int]:
    try:
        parts = [int(p) for p in text.split(",") if p]
    except ValueError:
        _reject(f"expected comma-separated nonnegative integers, got {text!r}")
    if parts and min(parts) < 0:
        _reject("elements must be nonnegative")
    return parts


def _int_at_least(low: int, kind: str) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            _reject(f"expected an integer, got {text!r}")
        if value < low:
            _reject(f"expected a {kind} integer, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "nonnegative")


def _render(args, value, text: Iterable[str]) -> Iterable[str]:
    """The pieces of the verb's text, or with ``--format json`` those of its ``value`` in JSON.

    A text that is costly to make, such as ``info``'s with every gap, comes
    from a generator, which JSON output never runs.
    """
    if args.format != "json":
        return text
    from ._json_writer import _json_pieces
    return chain(_json_pieces(value), ("\n",))


def _semigroup_text(s: NumericalSemigroup) -> Iterator[str]:
    yield (
        f"{s} F={s.frobenius} m={s.multiplicity} g={s.genus}"
        f" e={s.embedding_dimension} depth={s.depth()}"
        f" gaps={','.join(map(str, s.gaps))}\n"
    )


# A layer's class is named in a string: evaluated when the function is made, it would run the layer.
def _double_line(label: "doubles.DoubleLabel", t: NumericalSemigroup) -> str:
    return f"{label} = {t} F={t.frobenius}\n"


def _double_json(label: "doubles.DoubleLabel", t: NumericalSemigroup) -> dict:
    return {**label.to_json_dict(), "semigroup": t}


# -- verb handlers: each returns (exit_code, the pieces of its output) --


def _cmd_info(args) -> tuple[int, Iterable[str]]:
    s = NumericalSemigroup.from_generators(args.generators)
    return 0, _render(args, s, _semigroup_text(s))


def _cmd_quotient(args) -> tuple[int, Iterable[str]]:
    s = NumericalSemigroup.from_generators(args.generators).quotient(args.divisor)
    return 0, _render(args, s, (f"{s}\n",))


def _cmd_intersect(args) -> tuple[int, Iterable[str]]:
    result = NumericalSemigroup.from_generators(args.generators[0])
    for gens in args.generators[1:]:
        result = result.intersect(NumericalSemigroup.from_generators(gens))
    return 0, _render(args, result, (f"{result}\n",))


def _cmd_fundamental_gaps(args) -> tuple[int, Iterable[str]]:
    fg = NumericalSemigroup.from_generators(args.generators).fundamental_gaps()
    return 0, _render(args, fg, (",".join(map(str, fg)) + "\n",))


def _cmd_pm(args) -> tuple[int, Iterable[str]]:
    s = proportionally_modular(args.a, args.b, args.c)
    return 0, _render(args, s, (f"{s}\n",))


def _cmd_extensions(args) -> tuple[int, Iterable[str]]:
    family = varieties.arithmetic_extensions(NumericalSemigroup.from_generators(args.generators))
    # family.to_json_dict(), but with the members whole, so that the writer uses its number table
    return 0, _render(args, {"members": family.members}, (f"{s}\n" for s in family))


def _cmd_variety(args) -> tuple[int, Iterable[str]]:
    family = varieties.smallest_variety(
        [NumericalSemigroup.from_generators(g) for g in args.generators])
    return 0, _render(args, {"members": family.members}, (f"{s}\n" for s in family))  # as above


def _cmd_is_extension(args) -> tuple[int, Iterable[str]]:
    s = NumericalSemigroup.from_generators(args.base)
    t = NumericalSemigroup.from_generators(args.candidate)
    answer = varieties.is_arithmetic_extension(s, t)
    return 0, _render(args, answer, ("true\n" if answer else "false\n",))


def _cmd_hull(args) -> tuple[int, Iterable[str]]:
    family = [NumericalSemigroup.from_generators(g) for g in args.generators]
    hull = varieties._family_hull(family, args.elements)
    return 0, _render(args, hull, (f"{hull}\n",))


def _cmd_upper_sets(args) -> tuple[int, Iterable[str]]:
    s = NumericalSemigroup.from_generators(args.generators)
    sets = [sorted(h) for h in doubles.upper_m_sets(s, args.modulus)]
    return 0, _render(args, sets, ("{" + ",".join(map(str, h)) + "}\n" for h in sets))


def _cmd_double(args) -> tuple[int, Iterable[str]]:
    s = NumericalSemigroup.from_generators(args.generators)
    label = doubles.DoubleLabel(args.modulus, frozenset(args.upper_set))
    t = doubles.build_double(s, label.m, label.upper_set)
    return 0, _render(args, _double_json(label, t), (_double_line(label, t),))


def _cmd_doubles(args) -> tuple[int, Iterable[str]]:
    s = NumericalSemigroup.from_generators(args.generators)
    results = doubles.doubles_bounded(s, args.frobenius_bound)
    return 0, _render(args, [_double_json(label, t) for label, t in results],
                      (_double_line(label, t) for label, t in results))


def _cmd_tree(args) -> tuple[int, Iterable[str]]:
    predicate = tree.ALL_SEMIGROUPS if args.depth is None else tree.depth_predicate(args.depth)
    return 0, tree._tree_pieces(tree.enumerate_tree(args.frobenius_bound, predicate), args.format)


def _cmd_enumerate_all(args) -> tuple[int, Iterable[str]]:
    report = oracle.all_semigroups_up_to(args.frobenius_bound)
    return 0, _render(args, report, (f"{s}\n" for s in report.semigroups))


def _cmd_oracle_check(args) -> tuple[int, Iterable[str]]:
    bound = args.frobenius_bound
    top = oracle.all_semigroups_up_to(bound)  # one 2^bound walk serves every smaller bound
    tree_ok = sum(tree.enumerate_tree(f).nodes == top.up_to(f).semigroups
                  for f in range(1, bound + 1))
    lines = [f"{'ok' if tree_ok == bound else 'MISMATCH'} tree-vs-bruteforce: "
             f"{tree_ok}/{bound} bounds agree\n"]

    halves = oracle._half_index(top)
    small = [s for s in top.semigroups if s.frobenius <= bound // 2]
    bad = [(s, f) for s in small for f in range(1, bound + 1)
           if [t for _, t in doubles.doubles_bounded(s, f)]
           != [t for t in halves.get(s.gap_mask, ()) if t.frobenius <= f]]
    lines += [f"MISMATCH doubles-vs-bruteforce: S={s} F={f}\n" for s, f in bad] or [
        f"ok doubles-vs-bruteforce: {len(small)} semigroups x {bound} bounds agree\n"]

    candidates = [s for s in top.semigroups if s.frobenius <= min(bound, 8)]
    bad_ext = [s for s in candidates
               if varieties.arithmetic_extensions(s).members != oracle.extension_oracle(s).members]
    lines += [f"MISMATCH extensions-vs-bruteforce: S={s}\n" for s in bad_ext] or [
        f"ok extensions-vs-bruteforce: {len(candidates)} semigroups agree\n"]

    failed = tree_ok != bound or bool(bad or bad_ext)
    lines.append("oracle-check: FAIL\n" if failed else "oracle-check: PASS\n")
    return int(failed), lines


_TEXT_JSON = ("text", "json")
_OUTPUT = ("--output", {"metavar": "PATH", "default": None})
_GENERATORS = ("generators", {"type": _generators})
_GENERATOR_LIST = ("generators", {"type": _generators, "nargs": "+"})
_MODULUS = ("--modulus", {"type": _positive_int, "required": True})
_BOUND = ("--frobenius-bound", {"type": _positive_int, "required": True})

# verb: (help, handler, formats, arguments).  A verb with formats takes
# --format and --output before its arguments; one without lists --output.
_VERBS = {
    "info": ("invariants of one semigroup", _cmd_info, _TEXT_JSON, (_GENERATORS,)),
    "quotient": ("quotient by a positive integer", _cmd_quotient, _TEXT_JSON,
                 (_GENERATORS, ("divisor", {"type": _positive_int}))),
    "intersect": ("intersection of two or more semigroups", _cmd_intersect, _TEXT_JSON,
                  (_GENERATOR_LIST,)),
    "fundamental-gaps": ("gaps whose multiples are members", _cmd_fundamental_gaps, _TEXT_JSON,
                         (_GENERATORS,)),
    "pm": ("proportionally modular semigroup {x : a*x mod b <= c*x}", _cmd_pm, _TEXT_JSON,
           tuple((name, {"type": _positive_int}) for name in "abc")),
    "extensions": ("smallest closed family containing one semigroup", _cmd_extensions,
                   _TEXT_JSON, (_GENERATORS,)),
    "variety": ("smallest closed family containing several semigroups", _cmd_variety,
                _TEXT_JSON, (_GENERATOR_LIST,)),
    "is-extension": ("is the second an arithmetic extension of the first?", _cmd_is_extension,
                     _TEXT_JSON, (("base", {"type": _generators}),
                                  ("candidate", {"type": _generators}))),
    "hull": ("smallest family member containing given elements", _cmd_hull, _TEXT_JSON,
             (_GENERATOR_LIST, ("--elements", {"type": _element_list, "default": ()}))),
    "upper-sets": ("upper m-sets of a semigroup", _cmd_upper_sets, _TEXT_JSON,
                   (_GENERATORS, _MODULUS)),
    "double": ("build one double from its (m, H) label", _cmd_double, _TEXT_JSON,
               (_GENERATORS, _MODULUS, ("--upper-set", {"type": _element_list, "default": ()}))),
    "doubles": ("all doubles under a Frobenius bound", _cmd_doubles, _TEXT_JSON,
                (_GENERATORS, _BOUND)),
    "tree": ("tree of a family under a Frobenius bound", _cmd_tree, (*_TEXT_JSON, "dot"),
             (_BOUND, ("--depth", {"type": _nonnegative_int, "default": None}))),
    "enumerate-all": ("brute-force enumeration report", _cmd_enumerate_all, _TEXT_JSON,
                      (_BOUND,)),
    "oracle-check": ("cross-validate algorithms against brute force", _cmd_oracle_check, (),
                     (("--frobenius-bound", {"type": _positive_int, "default": 12}), _OUTPUT)),
}


def _arguments(formats: tuple[str, ...], arguments) -> tuple:
    """A verb's (name, options) pairs: with formats, --format and --output come first."""
    formatted = (("--format", {"choices": formats, "default": "text"}), _OUTPUT)
    return formatted + arguments if formats else arguments


def build_parser() -> "argparse.ArgumentParser":
    """The parser of every verb: it prints the help, the usage and the errors, and reads
    what :func:`_parse` declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="numsem",
        description="Numerical semigroups: invariants, quotients, closed families, "
        "bounded doubles and depth-bounded tree enumeration.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (help_text, handler, formats, arguments) in _VERBS.items():
        verb = sub.add_parser(name, help=help_text)
        verb.set_defaults(handler=handler)
        for argument, options in _arguments(formats, arguments):
            verb.add_argument(argument, **options)
    return parser


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The full parser's namespace for ``argv`` but ``verb``, read from ``_VERBS``; None leaves
    ``argv`` to that parser.  It reads a verb, its options once each as ``--name value`` or
    ``--name=value``, no value empty or starting with "-", and its positionals in one run."""
    if not argv or argv[0] not in _VERBS:
        return None
    _, handler, formats, arguments = _VERBS[argv[0]]
    arguments, given, run, ended = _arguments(formats, arguments), {}, [], False
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            if ended:
                return None
            run.append(token)
            continue
        ended = bool(run)
        name, equals, value = token.partition("=")
        value = value if equals else next(tokens, "")
        if name in given or value[:1] in ("", "-") or name not in dict(arguments):
            return None
        given[name] = value
    namespace = {"handler": handler}
    for name, options in arguments:
        dest = name.lstrip("-").replace("-", "_")
        if name[0] != "-":  # a positional: one, or with nargs "+" all that are left
            texts, run = (run, []) if options.get("nargs") else (run[:1], run[1:])
        elif name in given:
            texts = [given[name]]
        elif options.get("required"):
            return None
        else:
            namespace[dest] = options.get("default")
            continue
        try:
            values = list(map(options.get("type", str), texts))
        except Exception:  # the type's ArgumentTypeError, which the full parser reports
            return None
        if not values or any(value not in options.get("choices", values) for value in values):
            return None
        namespace[dest] = values if options.get("nargs") else values[0]
    return None if run else SimpleNamespace(**namespace)


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
    if argv is None:  # run as the program
        gc.freeze()  # the imports' objects live until exit: no collection need walk them
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:  # the full parser's help, usage and errors, and the spellings it alone reads
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        code, pieces = args.handler(args)
        pieces = _chunks(pieces)
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
