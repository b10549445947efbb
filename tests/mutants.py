"""Recorded mutants: small faults in ``src/`` that named tests must catch.

Each mutant is the file, an exact snippet of it, the snippet's
replacement and the test node ids that must fail once it is applied.
Run from the repository root::

    python3 tests/mutants.py [NAME ...]

For each mutant (or each one named) the script copies ``src/`` to a
temporary directory, replaces the snippet there, and runs the named tests
on that copy.  It exits 1 if a snippet does not occur exactly once in its
file, or if the tests do not fail on the mutant (pytest exit code 1; a
collection error does not count as a catch).  pytest does not collect
this file, and tier-1 does not run it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


ALGEBRA, KOSZUL = "src/nhomalg/algebra.py", "src/nhomalg/koszul.py"
ONE_PASS = "tests/test_tableaux.py::test_one_pass_equals_per_letter_insertion"
BLOCKS = ("tests/test_koszul.py::test_blocks_per_orbit_on_the_edge_cases",
          "tests/test_koszul.py::test_blocks_per_orbit_match_the_whole_slices")
COUNTS = ("tests/test_koszul.py::test_intersection_counts_per_orbit_on_the_edge_cases",
          "tests/test_koszul.py::test_intersection_counts_per_orbit_equal_the_unweighted")
RESTRICTED = ("tests/test_koszul.py::test_restricted_tower_on_the_edge_cases",
              "tests/test_koszul.py::test_restricted_tower_equals_the_full_one")
EXACT_REDUCE = "tests/test_properties.py::test_reduce_and_coordinates_are_exact"

MUTANTS = (
    # Schensted insertion in one pass (tableaux.word_to_tableau, row_insert).
    Mutant("bump-at-leftmost-not-smaller", "src/nhomalg/tableaux.py",
           "from bisect import bisect_right", "from bisect import bisect_left as bisect_right",
           (ONE_PASS,)),
    Mutant("displaced-entry-dropped", "src/nhomalg/tableaux.py",
           "            x, row[pos] = row[pos], x\n",
           "            row[pos] = x\n            break\n", (ONE_PASS,)),
    Mutant("new-row-prepended", "src/nhomalg/tableaux.py",
           "rows.append([x])", "rows.insert(0, [x])", (ONE_PASS,)),
    Mutant("row-insert-reversed-reading-word", "src/nhomalg/tableaux.py",
           "word_to_tableau(reading_word(tableau) + (x,))",
           "word_to_tableau(reading_word(tableau)[::-1] + (x,))", (ONE_PASS,)),
    # Koszul and Gorenstein slices, one content block per S_D-orbit.
    Mutant("slice-blocks-weight-1", KOSZUL,
           "table = [[_weight(lk, rk, sign, algebra.D)",
           "table = [[min(1, _weight(lk, rk, sign, algebra.D))", BLOCKS),
    Mutant("dual-slice-sign-plus", KOSZUL,
           "algebra.normal_basis(positions[i][0]), -1)",
           "algebra.normal_basis(positions[i][0]), 1)", BLOCKS),
    Mutant("every-algebra-letter-symmetric", KOSZUL,
           "    if not algebra.presentation.letter_symmetric:\n        return None\n", "",
           BLOCKS),
    # The W_n tower counted per orbit (GradedAlgebra.intersection_dims).
    Mutant("orbit-count-weight-1", ALGEBRA,
           "groups.setdefault(_orbit_size(c), [])", "groups.setdefault(1, [])", COUNTS),
    Mutant("row-content-letter-shifted", ALGEBRA,
           "above[k] = plus(contents[a], D - r)",
           "above[k] = plus(contents[a], (D - r) % D + 1)", COUNTS),
    Mutant("relation-content-letter-shifted", ALGEBRA,
           "tuple(p.count(x) for x in range(1, D + 1))",
           "tuple(p.count(x % D + 1) for x in range(1, D + 1))", COUNTS),
    Mutant("every-pair-weighted-by-its-sorted-content", ALGEBRA,
           "if _deficiency(c) <= n_max - l:\n"
           "                            groups.setdefault(_orbit_size(c), [])",
           "if True:\n"
           "                            groups.setdefault(_orbit_size(tuple(sorted(c)[::-1])), [])",
           COUNTS),
    # The tower levels built only on the contents that reach a representative.
    Mutant("deficiency-bound-strict", ALGEBRA,
           "_deficiency(c) <= n_max - l", "_deficiency(c) < n_max - l", RESTRICTED),
    Mutant("restricted-level-stored", ALGEBRA,
           "                if not symmetric:\n                    self._tower.append",
           "                if True:\n                    self._tower.append", RESTRICTED),
    Mutant("restricted-dims-weight-1", ALGEBRA,
           "else sum(map(_orbit_size, contents))", "else len(contents)", RESTRICTED),
    Mutant("tags-by-list-position", ALGEBRA,
           "for i, rem in zip(pairs, tagged):", "for i, rem in enumerate(tagged):",
           RESTRICTED),
    Mutant("deficiency-by-prefix-maxima", ALGEBRA,
           "for c in reversed(content):", "for c in content:",
           ("tests/test_koszul.py::test_deficiency_counts_the_letters_that_sort_a_content",)
           + RESTRICTED),
    # Integer-row kernels: the lcm scaling of a remainder.
    Mutant("remainder-numerator-unscaled", "src/nhomalg/linalg.py",
           "rem = {w: m * c for w, c in num.items()} if m > 1 else dict(num)",
           "rem = dict(num)", (EXACT_REDUCE,)),
    Mutant("remainder-row-unscaled", "src/nhomalg/linalg.py",
           "a = num[p] * (m // row[p])", "a = num[p] * m", (EXACT_REDUCE,)),
    # The border fast path must refuse a coefficient other than 1.
    Mutant("border-fast-path-any-coefficient", ALGEBRA,
           "        if a == 1:\n            return borders[c + (x,)]",
           "        if a:\n            return borders[c + (x,)]",
           ("tests/test_properties.py::test_border_forms_equal_the_stepwise_ideal",)),
)


def survives(mutant: Mutant, root: Path) -> str | None:
    """None when the mutant's tests fail on it, else why it counts as
    surviving."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(root / "src", src)
        path = Path(tmp) / mutant.file
        text = path.read_text()
        count = text.count(mutant.snippet)
        if count != 1:
            return f"snippet occurs {count} times in {mutant.file}"
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", *mutant.tests],
            cwd=root, env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True)
    if result.returncode != 1:
        tail = (result.stdout + result.stderr).strip().splitlines()[-1:]
        return f"pytest exit code {result.returncode}: {' '.join(tail)}"
    return None


def main(names: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print("unknown mutants:", ", ".join(sorted(unknown)))
        return 1
    survivors = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        reason = survives(mutant, root)
        survivors += reason is not None
        print(f"{'SURVIVED' if reason else 'caught'}  {mutant.name}"
              f"  ({time.perf_counter() - start:.1f} s){'  ' + reason if reason else ''}",
              flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
