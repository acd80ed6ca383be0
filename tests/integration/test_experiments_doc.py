"""EXPERIMENTS.md quotes figures from committed ``benchmarks/out``
artifacts; the quotes must match the artifacts they cite.

Each SMT speedup the §7 bullet quotes is tied to one row of
``smt_throughput.txt``.  An ``a → b`` quote records a figure that moved
(``a`` is the old value, ``b`` the current one), so only ``b`` is
checked; any other ``N.NNx`` in the bullet without a row here fails,
so a new quote cannot drift unchecked.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: (pair, design, regex whose group 1 is the quoted speedup).
SMT_QUOTES = [
    ("swim+twolf", "segmented-512/128",
     r"swim\+twolf on the shared segmented IQ.*?(\d+\.\d\d)x faster"),
    ("swim+twolf", "ideal-512", r"the ideal IQ\s+gets \((\d+\.\d\d)x\)"),
    ("equake+vortex", "segmented-512/128",
     r"equake\+vortex \d+\.\d\dx → (\d+\.\d\d)x"),
]


def _smt_bullet() -> str:
    text = (ROOT / "EXPERIMENTS.md").read_text()
    match = re.search(r"^\* \*\*SMT\*\* \(§7\):.*?(?=^\* |\Z)", text,
                      re.M | re.S)
    assert match, "EXPERIMENTS.md has no SMT (§7) bullet"
    return match.group(0)


def _smt_speedups() -> dict:
    rows = {}
    artifact = ROOT / "benchmarks" / "out" / "smt_throughput.txt"
    for line in artifact.read_text().splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[3].endswith("x"):
            rows[(fields[0], fields[1])] = fields[3]
    return rows


def test_smt_bullet_quotes_match_the_artifact():
    bullet = _smt_bullet()
    rows = _smt_speedups()
    checked = []
    for pair, design, pattern in SMT_QUOTES:
        match = re.search(pattern, bullet, re.S)
        assert match, f"SMT bullet no longer quotes {pair} {design}"
        assert f"{match.group(1)}x" == rows[(pair, design)], \
            f"{pair} {design}: EXPERIMENTS.md quotes {match.group(1)}x, " \
            f"smt_throughput.txt reads {rows[(pair, design)]}"
        checked.append(match.span(1))
    superseded = [m.span(1) for m in
                  re.finditer(r"(\d+\.\d\d)x → \d+\.\d\dx", bullet)]
    for quote in re.finditer(r"(\d+\.\d\d)x", bullet):
        assert quote.span(1) in checked + superseded, \
            f"SMT bullet quotes {quote.group(0)} with no artifact row " \
            f"checked in SMT_QUOTES"
