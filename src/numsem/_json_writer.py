"""The package's one JSON writer, for every verb and ``export_tree``; its callers import it
on first use, as they once imported ``json``, so that a text run never compiles it."""

import operator
from itertools import chain, compress
from typing import Callable, Iterator

from .core import _DIGIT_VALUES, _JSON_FIELDS, NumericalSemigroup, _number_table


def _semigroup_writer(level: int, num: list[str]) -> Callable[..., str]:
    """A semigroup to its ``to_json_dict`` in JSON at ``level``: the mask's digits pick its gaps'
    strs from the number table ``num`` (``num[i] == str(i)``), as ``core._bits`` picks positions."""
    p = "\n" + "  " * (level + 1)  # a field's line; list items are two spaces deeper
    sep, head, close, end = f",{p}  ", f"[{p}  ", f"{p}]", "\n" + "  " * level + "}"
    gens_key, gaps_key, f_key, genus_key, m_key, depth_key = (f',{p}"{k}": ' for k in _JSON_FIELDS)
    gens_key, gaps_key = "{" + gens_key[1:] + head, close + gaps_key
    name = num.__getitem__

    def write(s: NumericalSemigroup) -> str:
        mask, gens = s._mask, s._msg
        gaps = compress(num, bin(mask)[:1:-1].encode().translate(_DIGIT_VALUES))
        gaps = f"{head}{sep.join(gaps)}{close}" if mask else "[]"
        f, m = mask.bit_length() - 1, gens[0]
        return (f"{gens_key}{sep.join(map(name, gens))}{gaps_key}{gaps}{f_key}{f}{genus_key}"
                f"{mask.bit_count()}{m_key}{m}{depth_key}{-(-(f + 1) // m)}{end}")

    return write


def _json_pieces(value, level: int = 0) -> Iterator[str]:
    """``json.dumps(value, indent=2)`` in pieces, one per item of a list or dict.

    It takes ints, bools, lists, tuples, dicts with keys that JSON writes as they are (names
    and numbers) and records, semigroups too, by ``to_json_dict()``.  A list of ints is one
    join, as a semigroup's gaps are in its text; a list of int rows is type-checked once and
    written by a %-template per length, or by one per 256 rows when all have one length; a
    list of semigroups uses one table up to its F + m.
    """
    pad = "\n" + "  " * level  # the line of the closing bracket
    inner = pad + "  "
    if isinstance(value, int):
        yield ("false", "true")[value] if type(value) is bool else int.__repr__(value)
    elif isinstance(value, dict):
        head = "{"
        for key, item in value.items():
            yield f'{head}{inner}"{key}": '
            yield from _json_pieces(item, level + 1)
            head = ","
        yield pad + "}" if value else "{}"
    elif not isinstance(value, (list, tuple)):
        yield from _json_pieces(value.to_json_dict(), level)
    elif not value:
        yield "[]"
    elif (kinds := set(map(type, value))) <= {int}:
        yield f"[{inner}{f',{inner}'.join(map(str, value))}{pad}]"
    else:
        head, comma = "[" + inner, "," + inner
        if kinds == {NumericalSemigroup}:
            rows = map(_semigroup_writer(level + 1, _number_table(value)), value)
        elif (kinds <= {list, tuple}
              and set(map(type, ints := tuple(chain.from_iterable(value)))) <= {int}):
            forms = {n: f"[{inner}  {(',' + inner + '  ').join(['%d'] * n)}{inner}]" if n else "[]"
                     for n in set(map(len, value))}
            if len(forms) == 1 and ints:  # n > 0 ints in every row: a %-format per 256 rows
                n, form = forms.popitem()
                rows = (comma.join([form] * (len(block) // n)) % block
                        for block in (ints[at:at + 256 * n] for at in range(0, len(ints), 256 * n)))
            else:
                rows = map(operator.mod, map(forms.__getitem__, map(len, value)), map(tuple, value))
        else:
            rows = ("".join(_json_pieces(item, level + 1)) for item in value)
        for row in rows:
            yield head + row
            head = comma
        yield pad + "]"
