"""CI check: Table I moves only in its Sim time column.

Compares the Table I report that ``benchmarks/test_bench_table1.py``
has just regenerated with the committed one.  Every line must match,
except the table's Sim time column, which is cut from both sides
because it is a wall-clock measurement.  A change that moves any other
column (line counts, operators, states) must commit the new table.

    python tools/ci_table1_check.py

The committed table is read with ``git show HEAD:``.  Exit status 0 =
the tables agree; 1 = they differ (the masked lines are printed as a
unified diff).
"""

import difflib
import subprocess
import sys
from pathlib import Path

REPORT = "benchmarks/out/table1.txt"
SIM_TIME = "Sim time (s)"


def masked(text: str) -> list:
    """The lines of *text*, each table row cut at the Sim time column
    (a table runs from its header line to the next blank line)."""
    out = []
    column = None
    for line in text.splitlines():
        if SIM_TIME in line:
            column = line.index(SIM_TIME)
        elif not line.strip():
            column = None
        out.append(line if column is None else line[:column].rstrip())
    return out


def main() -> int:
    new = Path(REPORT).read_text()
    old = subprocess.run(["git", "show", f"HEAD:{REPORT}"], check=True,
                         capture_output=True, text=True).stdout
    diff = list(difflib.unified_diff(masked(old), masked(new), "committed",
                                     "regenerated", lineterm=""))
    if diff:
        print("Table I moved outside its Sim time column; commit the "
              f"regenerated {REPORT} if the change is intended:")
        print("\n".join(diff))
        return 1
    print("Table I matches the committed table (Sim time not compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
