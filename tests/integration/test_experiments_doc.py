"""EXPERIMENTS.md quotes figures from committed ``benchmarks/out``
artifacts; the quotes must match the artifacts they cite.

Each SMT speedup the §7 bullet quotes is tied to one row of
``smt_throughput.txt``.  An ``a → b`` quote records a figure that moved
(``a`` is the old value, ``b`` the current one), so only ``b`` is
checked; any other ``N.NNx`` in the bullet without a row here fails,
so a new quote cannot drift unchecked.

Each gain and % of ideal the measured column of the "Abstract / §1
headline numbers" table quotes is tied to ``headline_claims.txt`` the
same way: any other ``N %`` in that column fails unless it is listed
as a figure quoted from the paper.  (The claim column quotes the
paper throughout.)
"""

import re
from pathlib import Path
from statistics import mean

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


def _headline_rows() -> dict:
    """benchmark -> its row of ``headline_claims.txt``."""
    rows = {}
    artifact = ROOT / "benchmarks" / "out" / "headline_claims.txt"
    for line in artifact.read_text().splitlines():
        fields = line.split()
        if len(fields) == 7 and fields[1] in ("FP", "INT"):
            rows[fields[0]] = {"ideal512": float(fields[3]),
                               "seg": float(fields[4]),
                               "gain": fields[5].rstrip("%"),
                               "of_ideal": fields[6].rstrip("%")}
    return rows


def _of_ideal(rows) -> list:
    return [int(row["of_ideal"]) for row in rows.values()]


#: (what, regex whose group 1 is the quoted figure, its artifact value).
HEADLINE_QUOTES = [
    ("vortex gain", r"([+−]\d+) % \(vortex\)",
     lambda rows: rows["vortex"]["gain"]),
    ("twolf gain", r"others ([+−]\d+) %",
     lambda rows: rows["twolf"]["gain"]),
    ("gcc gain", r"others [+−]\d+ %, ([+−]\d+) %",
     lambda rows: rows["gcc"]["gain"]),
    ("swim gain", r"([+−]\d+) % \(swim\)",
     lambda rows: rows["swim"]["gain"]),
    ("equake gain", r"([+−]\d+) % \(equake, mgrid\)",
     lambda rows: rows["equake"]["gain"]),
    ("mgrid gain", r"([+−]\d+) % \(equake, mgrid\)",
     lambda rows: rows["mgrid"]["gain"]),
    ("lowest % of ideal", r"(\d+)-\d+ % \(average",
     lambda rows: str(min(_of_ideal(rows)))),
    ("highest % of ideal", r"\d+-(\d+) % \(average",
     lambda rows: str(max(_of_ideal(rows)))),
    ("average % of ideal", r"average (\d+) %",
     lambda rows: str(round(100 * mean(row["seg"] / row["ideal512"]
                                       for row in rows.values())))),
    ("applu % of ideal", r"applu's (\d+) %",
     lambda rows: rows["applu"]["of_ideal"]),
]

#: Figures the measured column quotes from the paper, not the artifact.
PAPER_QUOTES = [r"the paper's (\d+) % floor"]


def _headline_measured_column() -> str:
    text = (ROOT / "EXPERIMENTS.md").read_text()
    match = re.search(r"^## Abstract / §1 headline numbers\n(.*?)(?=^## )",
                      text, re.M | re.S)
    assert match, "EXPERIMENTS.md has no headline numbers section"
    rows = [line.strip().strip("|").split("|")
            for line in match.group(1).splitlines()
            if line.startswith("|")]
    measured = [cells[1].strip() for cells in rows[2:]]  # past the header
    assert measured, "the headline table has no rows"
    return "\n".join(measured)


def test_headline_table_quotes_match_the_artifact():
    column = _headline_measured_column()
    rows = _headline_rows()
    covered = []
    for what, pattern, artifact_value in HEADLINE_QUOTES:
        match = re.search(pattern, column)
        assert match, f"the headline table no longer quotes the {what}"
        quoted = match.group(1).replace("−", "-")
        assert quoted == artifact_value(rows), \
            f"{what}: EXPERIMENTS.md quotes {match.group(1)} %, " \
            f"headline_claims.txt gives {artifact_value(rows)} %"
        covered.append(match.span(1))
    for pattern in PAPER_QUOTES:
        match = re.search(pattern, column)
        assert match, f"the headline table no longer quotes {pattern!r}"
        covered.append(match.span(1))
    for quote in re.finditer(r"[+−]?\d+(?= %)|\d+(?=-\d+ %)", column):
        assert any(start <= quote.start() and quote.end() <= end
                   for start, end in covered), \
            f"the headline table quotes {quote.group(0)} % with no " \
            f"artifact row checked in HEADLINE_QUOTES"
