#!/usr/bin/env python3
"""Sweep the gadget existence grid and print the achieved separation gaps.

Rows are norm exponents, columns arities; entries show eps of the verified
isolating parallelepiped, or a short refusal cell.
"""

import argparse
import math

from latgad import gadgets
from latgad.errors import (
    LatgadError,
    NumericDegeneracyError,
    ResourceLimitError,
    UnsupportedParametersError,
)

# refusal cells, first match wins; any other LatgadError prints "error"
REFUSALS = (
    (UnsupportedParametersError, "-"),
    (NumericDegeneracyError, "no-shift"),
    (ResourceLimitError, "cap"),
)


def refusal(exc: LatgadError) -> str:
    return next((cell for cls, cell in REFUSALS if isinstance(exc, cls)), "error")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--kmax", type=int, default=6)
    parser.add_argument(
        "--p", type=float, nargs="*", default=[1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, math.pi]
    )
    args = parser.parse_args()

    ks = list(range(1, args.kmax + 1))
    print("p \\ k".ljust(10) + "".join(f"{k:>12d}" for k in ks))
    for p in args.p:
        cells = []
        for k in ks:
            try:
                # construction verifies the gadget, or raises
                cells.append(f"{gadgets.find_isolating_parallelepiped(k, p).eps:12.3e}")
            except LatgadError as exc:
                cells.append(f"{refusal(exc):>12}")
        print(f"{p:<10.7g}" + "".join(cells))
    print("\n'-' marks the even-integer region p < k where no gadget exists;")
    print("'no-shift' a search that found no nonsingular shift, 'cap' a size cap.")


if __name__ == "__main__":
    main()
