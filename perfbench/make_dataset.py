"""Write the cubic symbolic-regression dataset y = x^3 + x^2 + x.

The dataset has 21 points evenly spaced on [-2, 2]. Each x is computed
as a ratio of small integers, so every value is the correctly rounded
double and the file is the same on every machine.

Usage: python3 perfbench/make_dataset.py OUT.csv
"""

from __future__ import annotations

import sys
from pathlib import Path

POINTS = 21
LO, HI = -2, 2


def cubic(x: float) -> float:
    return x**3 + x**2 + x


def dataset_rows() -> list[tuple[float, float]]:
    steps = POINTS - 1
    xs = [(LO * steps + i * (HI - LO)) / steps for i in range(POINTS)]
    return [(x, cubic(x)) for x in xs]


def write_dataset(path: Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for x, y in dataset_rows():
            fh.write(f"{x!r},{y!r}\n")
    return path


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: make_dataset.py OUT.csv")
    print(f"wrote {write_dataset(Path(sys.argv[1]))}")
