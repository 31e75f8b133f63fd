"""The benchmark's fixed reference program: python3 benchmarks/reference.py BOUND

Counts the numerical semigroups with Frobenius number <= BOUND by
testing every subset of 1..BOUND for closure under addition, and
prints the count.  It imports nothing from numsem and never changes
with the package, so its time measures only the speed of the machine
at that moment.  ``run.py`` runs it right after each timed CLI
invocation, in the same way, and reports the invocation's time as a
multiple of it (``rel_wall``).  Pure interpreter work, like the
package's own.
"""

import sys


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def count(bound: int) -> int:
    full = (1 << (bound + 1)) - 1
    found = 0
    for subset in range(1 << bound):
        gaps = subset << 1
        members = full & ~gaps
        if all(not (members << a) & gaps for a in bits(members & ~1)):
            found += 1
    return found


if __name__ == "__main__":
    print(count(int(sys.argv[1])))
