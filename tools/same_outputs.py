"""Check that two checkouts of risce write the same CSVs, apart from wall_ms.

    python3 tools/same_outputs.py PARENT_ROOT CHANGE_ROOT

In each checkout it runs ``python -m risce.cli`` with ``PYTHONPATH=<root>/src``
for the four paper-profile analytic sweeps (LS and LMMSE, SQUAREM and plain
MM), for six simulated sweeps, for the desk ``converge`` runs of both
estimators, and for a desk LMMSE ``converge`` run at 60 dB, where a SQUAREM
step back-tracks and so anchors its next update on an accepted candidate's
spectrum.  The simulated sweeps compare the ``empirical_nmse`` column, each
for LS and LMMSE: at the desk profile with all six schemes and ``--rho 2``
(grouping included); at the paper profile with the design-free ``naive`` and
``onoff`` schemes; and at the desk profile with ``--b 10 --tau 3`` and the
``proposed`` and ``naive`` schemes.  In the other sweeps ``B = M+1`` and
``tau = K``, so the LS filter is just ``S^-1``; with ``--b 10 --tau 3``, V is
9 x 10 and X is 2 x 3, so it is a pseudo-inverse.  The ``wall_ms`` column is
dropped.  Text fields and the ``iterations`` column must match as text; a
number matches when some pair of values that print as the two ``%.12g``
fields lies within ``1e-12`` relative, so two runs of the same numbers to 12
significant digits match even where rounding to the printed digits carries
them across a digit boundary.  For each run that differs it prints the run and
its first differing row.  Exit status: 0 when every CSV matches, 1 when any
differs, 2 when a run fails or the arguments are wrong.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

RUNS = tuple(
    ("sweep", "--profile", "paper", "--analytic-only", "--estimator", est, accel)
    for est in ("ls", "lmmse") for accel in ("--accel", "--no-accel")
) + tuple(
    ("sweep", "--profile", profile, "--estimator", est, "--scheme", schemes, *rho)
    for profile, schemes, rho in (
        ("desk", "proposed,proposed-grouped,ideal,ideal-projection,naive,onoff", ("--rho", "2")),
        ("paper", "naive,onoff", ()),
    ) for est in ("ls", "lmmse")
) + tuple(
    ("sweep", "--profile", "desk", "--estimator", est, "--b", "10", "--tau", "3",
     "--scheme", "proposed,naive") for est in ("ls", "lmmse")
) + tuple(("converge", "--estimator", est) for est in ("ls", "lmmse")) + (
    ("converge", "--estimator", "lmmse", "--snr-db", "60"),
)

DROPPED = "wall_ms"
EXACT = ("iterations",)
REL_TOL = 1e-12
DIGITS = 12  # significant digits of a CSV number (risce.cli prints %.12g)


def csv_rows(root: Path, args: tuple[str, ...]) -> list[list[str]]:
    """Rows of the CSV that `risce <args>` writes in the checkout at root, without wall_ms."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "risce.cli", *args, "--output", "-"],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"{root}: risce {' '.join(args)} exited {done.returncode}\n{done.stderr}",
              file=sys.stderr)
        sys.exit(2)
    rows = [line.split(",") for line in done.stdout.splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name != DROPPED]
    return [[row[i] for i in keep] for row in rows]


def _show(row: list[str] | None) -> str:
    return "<missing>" if row is None else ",".join(row)


def _half_unit(x: float) -> float:
    """Half a unit in the last printed digit of x."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) + 1 - DIGITS) if x else 0.0


def same_field(name: str, a: str, b: str) -> bool:
    """Whether two fields of column name match (see the module docstring)."""
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if name in EXACT or not (math.isfinite(x) and math.isfinite(y)):
        return False
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y)) + _half_unit(x) + _half_unit(y)


def first_difference(old: list[list[str]], new: list[list[str]]) -> str | None:
    """The first row (the header is row 0) where the two CSVs differ, or None."""
    header = old[0] if old else []
    for i, (a, b) in enumerate(zip_longest(old, new)):
        if a != b and (i == 0 or a is None or b is None or not (
                len(a) == len(b) == len(header) and all(map(same_field, header, a, b)))):
            return f"row {i}:\n  parent: {_show(a)}\n  change: {_show(b)}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in argv)
    differ = 0
    for args in RUNS:
        diff = first_difference(csv_rows(parent, args), csv_rows(change, args))
        print(f"{'differs' if diff else 'same   '} risce {' '.join(args)}")
        if diff:
            differ += 1
            print(diff)
    print(f"{len(RUNS) - differ} of {len(RUNS)} CSVs match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
