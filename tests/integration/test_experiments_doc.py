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

Table 2's measured column is tied to ``table2_chain_usage.txt``: the
base average chains and each predictor's reduction are read off the
artifact's Average row, and the twolf HMP figures the section's prose
quotes off its TWOLF row.  Any other number in that column fails.

Figure 2's measured column is tied to
``figure2_relative_performance.txt``: the base design's average and
range over the unlimited-chain rows, the change of that average at 128
and 64 chains (in points of % of ideal), and each benchmark's % of
ideal it quotes are recomputed from the artifact's rows.  Any other
number in that column fails.

Figure 3's measured column is tied to ``figure3_size_sweep.txt``: each
IPC, ratio and count it quotes is recomputed from the artifact's raw
data table, and its worded findings ("never above ideal", "at every
size") are checked against the same rows.  Any other number in that
column fails.

§6.1's measured column is tied to ``claims_predictors.txt``: the HMP's
hit-prediction accuracy and coverage on the analog that trains it, the
coverage elsewhere, and the range and three quoted shares of two-chain
instructions.  The memory-disambiguation bullet of the ablations is
tied to ``memdep_policies.txt``: the one analog where the policy shows,
its store-set gain over conservative and the store sets matching the
oracle on every row.  Any other number in either fails, apart from a
reference to a table or section.

The Ablations section is tied to ``ablations.txt``: the pushdown and
bypass IPCs it quotes, the segment sizes, the stage count and the IPC
the small segments lose (range and per benchmark), whether the large
segments gain on every analog, and the deadlock-recovery rate per
analog.  Any other number in its bullets fails, apart from a reference
to a section and the two figures it quotes from the paper.
"""

import math
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


def _section(heading: str) -> str:
    """The EXPERIMENTS.md section under ``## <heading>``."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    match = re.search(rf"^## {re.escape(heading)}\n(.*?)(?=^## )", text,
                      re.M | re.S)
    assert match, f"EXPERIMENTS.md has no {heading!r} section"
    return match.group(1)


def _measured_cells(section: str) -> list:
    """(first cell, measured cell) of each row of the section's table."""
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    column = next(index for index, header in enumerate(rows[0])
                  if header.startswith("measured"))
    measured = [(cells[0], cells[column])
                for cells in rows[2:]]                  # past the header
    assert measured, "the table has no rows"
    return measured


def _headline_measured_column() -> str:
    section = _section("Abstract / §1 headline numbers")
    return "\n".join(cell for _first, cell in _measured_cells(section))


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


VARIANTS = ("base", "hmp", "lrp", "comb")


def _table2_rows() -> dict:
    """benchmark -> {variant: average chains} from
    ``table2_chain_usage.txt``."""
    rows = {}
    artifact = ROOT / "benchmarks" / "out" / "table2_chain_usage.txt"
    for line in artifact.read_text().splitlines():
        fields = line.split()
        if len(fields) == 9 and all(re.fullmatch(r"\d+(\.\d+)?", field)
                                    for field in fields[1:]):
            rows[fields[0]] = dict(zip(VARIANTS, map(float, fields[1::2])))
    return rows


def _reduction(row: dict, variant: str) -> str:
    """``variant``'s change in average chains from base, in whole %."""
    return str(round(100 * (row[variant] / row["base"] - 1)))


#: (table row, regex whose group 1 is the quoted figure, its artifact
#: value).
TABLE2_QUOTES = [
    ("average chains, base", r"^(\d+)$",
     lambda rows: str(round(rows["Average"]["base"]))),
    ("HMP reduction", r"^≈ ([+−]\d+) %$",
     lambda rows: _reduction(rows["Average"], "hmp")),
    ("LRP reduction", r"^([+−]\d+) %$",
     lambda rows: _reduction(rows["Average"], "lrp")),
    ("combined reduction", r"^([+−]\d+) %$",
     lambda rows: _reduction(rows["Average"], "comb")),
]


def test_table2_quotes_match_the_artifact():
    section = _section("Table 2 — chain usage (512-entry IQ, unlimited "
                       "chains)")
    rows = _table2_rows()
    quotes = {row: (pattern, value)
              for row, pattern, value in TABLE2_QUOTES}
    for row, measured in _measured_cells(section):
        if row not in quotes:
            assert not re.search(r"\d", measured), \
                f"Table 2 row {row!r} quotes {measured!r} with no " \
                f"artifact row checked in TABLE2_QUOTES"
            continue
        pattern, artifact_value = quotes.pop(row)
        match = re.search(pattern, measured)
        assert match, f"Table 2 row {row!r} reads {measured!r}"
        quoted = match.group(1).replace("−", "-")
        assert quoted == artifact_value(rows), \
            f"{row}: EXPERIMENTS.md quotes {match.group(1)}, " \
            f"table2_chain_usage.txt gives {artifact_value(rows)}"
    assert not quotes, f"Table 2 no longer has the rows {sorted(quotes)}"

    match = re.search(r"twolf\) the HMP cuts average chains "
                      r"(\d+\.\d) → (\d+\.\d) \(([+−]\d+) %\)", section)
    assert match, "Table 2 no longer quotes twolf's HMP saving"
    twolf = rows["TWOLF"]
    assert (float(match.group(1)), float(match.group(2))) \
        == (twolf["base"], twolf["hmp"]), \
        f"twolf: EXPERIMENTS.md quotes {match.group(1)} → " \
        f"{match.group(2)}, table2_chain_usage.txt gives " \
        f"{twolf['base']} → {twolf['hmp']}"
    assert match.group(3).replace("−", "-") == _reduction(twolf, "hmp"), \
        f"twolf HMP: EXPERIMENTS.md quotes {match.group(3)} %, " \
        f"table2_chain_usage.txt gives {_reduction(twolf, 'hmp')} %"


def _figure2_rows() -> dict:
    """(benchmark, chains) -> {variant: % of ideal} from
    ``figure2_relative_performance.txt``; chains is ``unlimited``,
    ``128 chains`` or ``64 chains``."""
    rows = {}
    artifact = ROOT / "benchmarks" / "out" / \
        "figure2_relative_performance.txt"
    for line in artifact.read_text().splitlines():
        match = re.fullmatch(r"(\w+)\s+(unlimited|\d+ chains)"
                             r"((?:\s+\d+%){4})", line.strip())
        if match:
            values = [int(value.rstrip("%"))
                      for value in match.group(3).split()]
            rows[(match.group(1), match.group(2))] = dict(
                zip(VARIANTS, values))
    return rows


def _base_average(rows: dict, chains: str) -> float:
    return mean(row["base"] for (_bench, each), row in rows.items()
                if each == chains)


def _base_change(rows: dict, chains: str) -> str:
    """The base average's change from unlimited chains, in points."""
    return str(round(_base_average(rows, chains)
                     - _base_average(rows, "unlimited")))


def _flat(rows: dict, bench: str) -> str:
    """``bench``'s base % of ideal when every chain count gives the
    same, else ``"not flat"``."""
    values = {row["base"] for (each, _chains), row in rows.items()
              if each == bench}
    return str(values.pop()) if len(values) == 1 else "not flat"


def _pct(rows: dict, bench: str, chains: str, variant: str) -> str:
    return str(rows[(bench, chains)][variant])


#: (first words of the claim cell, regex over the measured cell, the
#: artifact values of its groups).
FIGURE2_QUOTES = [
    ("base/unlimited averages",
     r"^(\d+) % average \(range (\d+)-(\d+) %\)$",
     lambda rows: (
         str(round(_base_average(rows, "unlimited"))),
         str(min(row["base"] for (_b, chains), row in rows.items()
                 if chains == "unlimited")),
         str(max(row["base"] for (_b, chains), row in rows.items()
                 if chains == "unlimited")))),
    ("finite chains cost performance",
     r"^([+−]\d+) % and ([+−]\d+) %$",
     lambda rows: (_base_change(rows, "128 chains"),
                   _base_change(rows, "64 chains"))),
    ("predictors recover",
     r"mgrid (\d+)-chain (\d+) % → (\d+) % \(comb\), "
     r"equake (\d+) % → (\d+) %, swim (\d+) % → (\d+) %$",
     lambda rows: (
         "64",
         _pct(rows, "mgrid", "64 chains", "base"),
         _pct(rows, "mgrid", "64 chains", "comb"),
         _pct(rows, "equake", "64 chains", "base"),
         _pct(rows, "equake", "64 chains", "comb"),
         _pct(rows, "swim", "64 chains", "base"),
         _pct(rows, "swim", "64 chains", "comb"))),
    ("LRP mispredictions hurt",
     r"applu: (\d+) % \(base\) → (\d+) % \(lrp\)",
     lambda rows: (_pct(rows, "applu", "unlimited", "base"),
                   _pct(rows, "applu", "unlimited", "lrp"))),
    ("vortex/twolf",
     r"twolf flat at (\d+) %, vortex (\d+) → (\d+) % "
     r"vs equake (\d+) → (\d+) %$",
     lambda rows: (_flat(rows, "twolf"),
                   _pct(rows, "vortex", "unlimited", "base"),
                   _pct(rows, "vortex", "64 chains", "base"),
                   _pct(rows, "equake", "unlimited", "base"),
                   _pct(rows, "equake", "64 chains", "base"))),
]


def test_figure2_quotes_match_the_artifact():
    section = _section("Figure 2 — relative performance at 512 entries")
    rows = _figure2_rows()
    assert len(rows) == 24, "figure2_relative_performance.txt lost rows"
    quotes = list(FIGURE2_QUOTES)
    for claim, measured in _measured_cells(section):
        spec = next((quote for quote in quotes
                     if claim.startswith(quote[0])), None)
        if spec is None:
            assert not re.search(r"\d", measured), \
                f"Figure 2 row {claim!r} quotes {measured!r} with no " \
                f"artifact row checked in FIGURE2_QUOTES"
            continue
        quotes.remove(spec)
        _prefix, pattern, artifact_values = spec
        match = re.search(pattern, measured)
        assert match, f"Figure 2 row {claim!r} reads {measured!r}"
        quoted = tuple(group.replace("−", "-") for group in match.groups())
        assert quoted == artifact_values(rows), \
            f"{claim}: EXPERIMENTS.md quotes {quoted}, " \
            f"figure2_relative_performance.txt gives " \
            f"{artifact_values(rows)}"
        checked = [match.span(group)
                   for group in range(1, len(match.groups()) + 1)]
        for number in re.finditer(r"\d+", measured):
            assert any(start <= number.start() and number.end() <= end
                       for start, end in checked), \
                f"Figure 2 row {claim!r} quotes {number.group(0)} with " \
                f"no artifact value checked in FIGURE2_QUOTES"
    assert not quotes, \
        f"Figure 2 no longer has the rows {[q[0] for q in quotes]}"


def _figure3_rows() -> dict:
    """benchmark -> {config: {size: IPC text}} from the raw data table
    of ``figure3_size_sweep.txt``."""
    rows = {}
    artifact = ROOT / "benchmarks" / "out" / "figure3_size_sweep.txt"
    for line in artifact.read_text().splitlines():
        match = re.fullmatch(r"(\w+)\s+(ideal|seg-128ch|seg-64ch|presched)"
                             r"\s+(\d+)\s+(\d+\.\d+)", line.strip())
        if match:
            rows.setdefault(match.group(1), {}).setdefault(
                match.group(2), {})[int(match.group(3))] = match.group(4)
    return rows


def _ipc(rows: dict, bench: str, config: str, size: int) -> float:
    return float(rows[bench][config][size])


def _ends(rows: dict, bench: str, config: str) -> tuple:
    """``config``'s IPC at its smallest and largest size."""
    sizes = sorted(rows[bench][config])
    return (_ipc(rows, bench, config, sizes[0]),
            _ipc(rows, bench, config, sizes[-1]))


def _end_texts(rows: dict, bench: str, config: str) -> tuple:
    """``config``'s IPC at its smallest and largest size, as printed."""
    sizes = sorted(rows[bench][config])
    return rows[bench][config][sizes[0]], rows[bench][config][sizes[-1]]


def _gain(rows: dict, bench: str, config: str) -> float:
    first, last = _ends(rows, bench, config)
    return last / first


def _ideal_rise(rows: dict, bench: str, digits: int) -> tuple:
    """``bench``'s ideal IPC at 32 and 512 entries, to ``digits``."""
    return tuple(f"{value:.{digits}f}"
                 for value in _ends(rows, bench, "ideal"))


def _presched_row(rows: dict) -> tuple:
    """The prescheduler's size-gain quotes: the analog that gains most,
    vortex, the analog that falls most, and how many others there are
    and the whole-% bound they stay within."""
    gains = {bench: _gain(rows, bench, "presched") for bench in rows}
    best = max(gains, key=gains.get)
    worst = min(gains, key=gains.get)
    others = [gain for bench, gain in gains.items()
              if bench not in (best, worst, "vortex")]
    return (best, *_end_texts(rows, best, "presched"),
            f"{gains[best]:.2f}", f"{gains['vortex']:.2f}",
            *_end_texts(rows, "vortex", "presched"),
            worst, f"{1 / gains[worst]:.2f}",
            *_end_texts(rows, worst, "presched"),
            str(len(others)),
            str(math.ceil(100 * max(abs(gain - 1) for gain in others))))


def _seg_beats_presched(rows: dict) -> tuple:
    """Analogs where the 128-entry segmented IQ beats every prescheduler
    size, of all analogs; and whether vortex is one of them."""
    wins = [bench for bench in rows
            if _ipc(rows, bench, "seg-128ch", 128)
            > max(map(float, rows[bench]["presched"].values()))]
    return (str(len(wins)), str(len(rows)),
            "included" if "vortex" in wins else "excluded")


def _chain_gap_row(rows: dict) -> tuple:
    """At the largest size: the analog whose 64-chain IQ trails its
    128-chain IQ most, the largest gap among the others and its analog,
    the analogs where the 64-chain IQ leads, and how many others tie."""
    size = max(next(iter(rows.values()))["seg-64ch"])
    gaps = {bench: _ipc(rows, bench, "seg-128ch", size)
            - _ipc(rows, bench, "seg-64ch", size) for bench in rows}
    worst = max(gaps, key=gaps.get)
    runner_up = max((bench for bench in gaps if bench != worst),
                    key=gaps.get)
    leaders = [bench for bench, gap in gaps.items() if gap < 0]

    def pair(bench):
        return rows[bench]["seg-64ch"][size], rows[bench]["seg-128ch"][size]

    return (str(size), worst, f"{gaps[runner_up]:.3f}", *pair(worst),
            runner_up, f"{gaps[runner_up]:.3f}", *pair(runner_up),
            ", ".join(leaders), *(pair(leaders[0]) if leaders else ("", "")),
            str(sum(gap == 0 for gap in gaps.values())))


#: (first words of the claim cell, regex over the measured cell, the
#: artifact values of its groups).  A worded finding is a group too, so
#: it is recomputed like a number.
FIGURE3_QUOTES = [
    ("ideal IPC rises",
     r"^yes: swim (\d\.\d\d) → (\d\.\d\d) \((\d\.\d)×\), "
     r"applu (\d\.\d) → (\d\.\d), equake (\d\.\d)×, "
     r"vortex (\d\.\d)×$",
     lambda rows: (*_ideal_rise(rows, "swim", 2),
                   f"{_gain(rows, 'swim', 'ideal'):.1f}",
                   *_ideal_rise(rows, "applu", 1),
                   f"{_gain(rows, 'equake', 'ideal'):.1f}",
                   f"{_gain(rows, 'vortex', 'ideal'):.1f}")),
    ("gcc is flat",
     r"^yes: (\d\.\d\d) at (every) size$",
     lambda rows: (
         f"{_ipc(rows, 'gcc', 'ideal', 32):.2f}",
         "every" if len({f"{float(value):.2f}" for value
                         in rows["gcc"]["ideal"].values()}) == 1
         else "not every")),
    ("segmented curves track ideal",
     r"^yes, (never) above ideal$",
     lambda rows: (
         "never" if all(_ipc(rows, bench, config, size)
                        <= _ipc(rows, bench, "ideal", size)
                        for bench in rows
                        for config in ("seg-128ch", "seg-64ch")
                        for size in rows[bench][config])
         else "sometimes",)),
    ("segmented-64ch trails",
     r"^no — at (\d+) entries only (\w+) trails by more than (\d\.\d+) "
     r"\((\d\.\d+) vs (\d\.\d+)\); (\w+) trails by (\d\.\d+) "
     r"\((\d\.\d+) vs (\d\.\d+)\), (\w+) leads \((\d\.\d+) vs (\d\.\d+)\) "
     r"and the other (\d+) tie \(a known divergence\)$",
     _chain_gap_row),
    ("prescheduler: only vortex",
     r"^no — (\w+) gains most \((\d\.\d+) → (\d\.\d+), (\d\.\d\d)×\), "
     r"vortex (\d\.\d\d)× \((\d\.\d+) → (\d\.\d+)\), "
     r"(\w+) falls (\d\.\d\d)× \((\d\.\d+) → (\d\.\d+)\); "
     r"the other (\d+) stay within (\d+) % \(a known divergence\)$",
     _presched_row),
    ("128-entry segmented IQ beats",
     r"^yes on (\d+) of (\d+) analogs, vortex (included|excluded)$",
     _seg_beats_presched),
]


def test_figure3_quotes_match_the_artifact():
    section = _section("Figure 3 — performance across IQ sizes")
    rows = _figure3_rows()
    assert len(rows) == 8 and all(
        len(sizes) in (4, 5) for row in rows.values()
        for sizes in row.values()), "figure3_size_sweep.txt lost rows"
    quotes = list(FIGURE3_QUOTES)
    for claim, measured in _measured_cells(section):
        spec = next((quote for quote in quotes
                     if claim.startswith(quote[0])), None)
        if spec is None:
            assert not re.search(r"\d", measured), \
                f"Figure 3 row {claim!r} quotes {measured!r} with no " \
                f"artifact row checked in FIGURE3_QUOTES"
            continue
        quotes.remove(spec)
        _prefix, pattern, artifact_values = spec
        match = re.search(pattern, measured)
        assert match, f"Figure 3 row {claim!r} reads {measured!r}"
        assert match.groups() == artifact_values(rows), \
            f"{claim}: EXPERIMENTS.md quotes {match.groups()}, " \
            f"figure3_size_sweep.txt gives {artifact_values(rows)}"
        checked = [match.span(group)
                   for group in range(1, len(match.groups()) + 1)]
        for number in re.finditer(r"\d+(?:\.\d+)?", measured):
            assert any(start <= number.start() and number.end() <= end
                       for start, end in checked), \
                f"Figure 3 row {claim!r} quotes {number.group(0)} with " \
                f"no artifact value checked in FIGURE3_QUOTES"
    assert not quotes, \
        f"Figure 3 no longer has the rows {[q[0] for q in quotes]}"


#: A table or section reference, not a quoted figure.
_REFERENCE = r"Table \d+|§\d+(?:\.\d+)*"


def _unchecked_numbers(text: str, checked: list) -> list:
    """Numbers in ``text`` outside the ``checked`` spans and outside
    table and section references."""
    spans = checked + [ref.span() for ref in re.finditer(_REFERENCE, text)]
    return [number.group(0) for number in re.finditer(r"\d+(?:\.\d+)?",
                                                      text)
            if not any(start <= number.start() and number.end() <= end
                       for start, end in spans)]


def _predictor_rows() -> dict:
    """benchmark -> {column: %} from ``claims_predictors.txt``."""
    rows = {}
    artifact = ROOT / "benchmarks" / "out" / "claims_predictors.txt"
    for line in artifact.read_text().splitlines():
        match = re.fullmatch(r"(\w+)" + r"\s+(\d+\.\d)%" * 4, line.strip())
        if match:
            rows[match.group(1)] = dict(zip(
                ("accuracy", "coverage", "two_chain", "lrp"),
                map(float, match.groups()[1:])))
    return rows


def _hmp_trainer(rows: dict) -> str:
    """The analog whose HMP covers the most hits."""
    return max(rows, key=lambda bench: rows[bench]["coverage"])


def _whole(value: float) -> str:
    return f"{value:.0f}"


def _coverage_elsewhere(rows: dict) -> str:
    """"0" when every other analog's HMP covers under 1 % of its hits."""
    trainer = _hmp_trainer(rows)
    others = [row["coverage"] for bench, row in rows.items()
              if bench != trainer]
    return "0" if max(others) < 1.0 else f"{max(others):.1f}"


#: (first words of the claim cell, regex over the measured cell, the
#: artifact values of its groups).
PREDICTOR_QUOTES = [
    ("HMP >98 % accurate",
     r"^(\d+\.\d) % on (\w+) \(the analog with enough hitting loads to "
     r"train\); near-zero hit predictions elsewhere",
     lambda rows: (f"{rows[_hmp_trainer(rows)]['accuracy']:.1f}",
                   _hmp_trainer(rows))),
    ("HMP covers >83 %",
     r"^(\d+) % on (\w+); ≈(\d+) elsewhere",
     lambda rows: (_whole(rows[_hmp_trainer(rows)]["coverage"]),
                   _hmp_trainer(rows), _coverage_elsewhere(rows))),
    ("~35 % of instructions",
     r"^(\d+)-(\d+) % by benchmark \(applu (\d+) %, mgrid (\d+) %, "
     r"equake (\d+) %\)$",
     lambda rows: (
         _whole(min(row["two_chain"] for row in rows.values())),
         _whole(max(row["two_chain"] for row in rows.values())),
         *(_whole(rows[bench]["two_chain"])
           for bench in ("applu", "mgrid", "equake")))),
]


def test_predictor_quality_quotes_match_the_artifact():
    section = _section("§6.1 predictor quality")
    rows = _predictor_rows()
    assert len(rows) == 8, "claims_predictors.txt lost rows"
    quotes = list(PREDICTOR_QUOTES)
    for claim, measured in _measured_cells(section):
        spec = next((quote for quote in quotes
                     if claim.startswith(quote[0])), None)
        checked = []
        if spec is not None:
            quotes.remove(spec)
            _prefix, pattern, artifact_values = spec
            match = re.search(pattern, measured)
            assert match, f"§6.1 row {claim!r} reads {measured!r}"
            assert match.groups() == artifact_values(rows), \
                f"{claim}: EXPERIMENTS.md quotes {match.groups()}, " \
                f"claims_predictors.txt gives {artifact_values(rows)}"
            checked = [match.span(group)
                       for group in range(1, len(match.groups()) + 1)]
        unchecked = _unchecked_numbers(measured, checked)
        assert not unchecked, \
            f"§6.1 row {claim!r} quotes {unchecked} with no artifact " \
            f"value checked in PREDICTOR_QUOTES"
    assert not quotes, \
        f"§6.1 no longer has the rows {[q[0] for q in quotes]}"


def _memdep_rows() -> dict:
    """benchmark -> {policy: IPC} from ``memdep_policies.txt``."""
    rows = {}
    artifact = ROOT / "benchmarks" / "out" / "memdep_policies.txt"
    for line in artifact.read_text().splitlines():
        match = re.fullmatch(r"(\w+)" + r"\s+(\d+\.\d+)" * 3, line.strip())
        if match:
            rows[match.group(1)] = dict(zip(
                ("conservative", "store_sets", "oracle"),
                map(float, match.groups()[1:])))
    return rows


def _memdep_quotes(rows: dict) -> tuple:
    """The analogs where store sets beat conservative, the gain of the
    first in whole % (truncated: three-decimal IPCs cannot place it
    closer), and whether store sets match the oracle on every row."""
    visible = [bench for bench, row in rows.items()
               if row["store_sets"] != row["conservative"]]
    row = rows[visible[0]] if visible else None
    gain = (int(100 * (row["store_sets"] / row["conservative"] - 1))
            if row else 0)
    exact = all(row["store_sets"] == row["oracle"]
                for row in rows.values())
    return (", ".join(visible), f"+{gain}",
            "exactly match" if exact else "do not match")


def test_memory_disambiguation_quotes_match_the_artifact():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    match = re.search(r"^\* \*\*Memory disambiguation\*\* .*?(?=^\* |\Z)",
                      text, re.M | re.S)
    assert match, "EXPERIMENTS.md has no memory-disambiguation bullet"
    bullet = " ".join(match.group(0).split())
    rows = _memdep_rows()
    assert len(rows) == 3, "memdep_policies.txt lost rows"
    quote = re.search(r"only (\w+)'s read-modify-write force updates make "
                      r"the policy visible \(([+−]\d+) % over conservative,"
                      r" and store sets (exactly match) the oracle\)",
                      bullet)
    assert quote, f"the memory-disambiguation bullet reads {bullet!r}"
    assert quote.groups() == _memdep_quotes(rows), \
        f"EXPERIMENTS.md quotes {quote.groups()}, memdep_policies.txt " \
        f"gives {_memdep_quotes(rows)}"
    checked = [quote.span(group) for group in range(1, 4)]
    unchecked = _unchecked_numbers(bullet, checked)
    assert not unchecked, \
        f"the memory-disambiguation bullet quotes {unchecked} with no " \
        f"artifact value checked"


class _Ablations:
    """``ablations.txt``: the design-choice IPCs per benchmark, the
    segment sizes of its columns and the design's entries, and each
    analog's deadlock recoveries, cycles and % of cycles."""

    def __init__(self) -> None:
        text = (ROOT / "benchmarks" / "out" / "ablations.txt").read_text()
        self.sizes = re.findall(r"(\d+)-entry segs", text)
        self.entries = int(re.search(r"\((\d+) entries", text).group(1))
        self.ipcs, self.deadlocks = {}, {}
        for line in text.splitlines():
            fields = line.split()
            if re.fullmatch(r"\w+" + r"\s+\d+\.\d{3}" * 5, line.strip()):
                self.ipcs[fields[0]] = dict(zip(
                    ("full", "no pushdown", "no bypass", *self.sizes),
                    map(float, fields[1:])))
            elif re.fullmatch(r"\w+\s+\d+\s+\d+\s+\d+\.\d{3}",
                              line.strip()):
                self.deadlocks[fields[0]] = fields[3]

    def ipc(self, bench: str, column: str) -> str:
        return f"{self.ipcs[bench][column]:.2f}"

    def small_loss(self, bench: str) -> int:
        """Whole % of IPC the smaller segments lose on ``bench``."""
        row = self.ipcs[bench]
        return round(100 * (1 - row[self.sizes[0]] / row["full"]))

    def segment_quote(self) -> tuple:
        small, large = self.sizes
        losses = [self.small_loss(bench) for bench in self.ipcs]
        gains = all(row[large] > row["full"] for row in self.ipcs.values())
        return (small, str(self.entries // int(small)), str(min(losses)),
                str(max(losses)),
                *(str(self.small_loss(bench))
                  for bench in ("swim", "applu", "twolf")),
                large, "gain IPC on every analog" if gains
                else "do not gain IPC everywhere")

    def deadlock_quote(self) -> tuple:
        worst = max(self.deadlocks, key=lambda bench:
                    float(self.deadlocks[bench]))
        others = [float(rate) for bench, rate in self.deadlocks.items()
                  if bench != worst]
        words = ("zero", "one", "two", "three", "four", "five", "six",
                 "seven", "eight")
        return (self.deadlocks[worst], worst,
                "0" if not any(others) else f"{max(others):.3f}",
                words[len(others)])


#: (first words of the bullet, regex over the bullet, the artifact
#: values of its groups).
ABLATION_QUOTES = [
    ("* **Pushdown", r"swim (\d+\.\d\d) → (\d+\.\d\d) IPC without it",
     lambda t: (t.ipc("swim", "full"), t.ipc("swim", "no pushdown"))),
    ("* **Bypass", r"twolf (\d+\.\d\d) → (\d+\.\d\d) without it",
     lambda t: (t.ipc("twolf", "full"), t.ipc("twolf", "no bypass"))),
    ("* **Segment size",
     r"(\d+)-entry segments \((\d+) stages\) lose (\d+)-(\d+) % IPC "
     r"\(swim −(\d+) %, applu −(\d+) %, twolf −(\d+) %\); (\d+)-entry "
     r"segments (gain IPC on every analog)",
     _Ablations.segment_quote),
    ("* **Deadlock recovery",
     r"(\d+\.\d+) % of cycles on (\w+), (\d+(?:\.\d+)?) on the other "
     r"(\w+) analogs",
     _Ablations.deadlock_quote),
]

#: Figures the Ablations section quotes from the paper.
ABLATION_PAPER_QUOTES = [r"the paper picks (\d+)-entry segments",
                         r"the paper reports (\d+\.\d+) %"]


def test_ablation_quotes_match_the_artifact():
    section = _section("Ablations (§4 design choices; our addition)")
    table = _Ablations()
    assert len(table.ipcs) == 3 and len(table.deadlocks) == 8, \
        "ablations.txt lost rows"
    quotes = list(ABLATION_QUOTES)
    for bullet in re.findall(r"^\* .*?(?=^\* |\Z)", section, re.M | re.S):
        bullet = " ".join(bullet.split())
        spec = next((quote for quote in quotes
                     if bullet.startswith(quote[0])), None)
        checked = []
        if spec is not None:
            quotes.remove(spec)
            _prefix, pattern, artifact_values = spec
            match = re.search(pattern, bullet)
            assert match, f"the ablation bullet reads {bullet!r}"
            assert match.groups() == artifact_values(table), \
                f"{spec[0]}: EXPERIMENTS.md quotes {match.groups()}, " \
                f"ablations.txt gives {artifact_values(table)}"
            checked = [match.span(group)
                       for group in range(1, len(match.groups()) + 1)]
        for paper in ABLATION_PAPER_QUOTES:
            checked += [quote.span(1) for quote in re.finditer(paper, bullet)]
        unchecked = _unchecked_numbers(bullet, checked)
        assert not unchecked, \
            f"the ablation bullet {bullet[:30]!r} quotes {unchecked} with " \
            f"no artifact value checked in ABLATION_QUOTES"
    assert not quotes, \
        f"the Ablations section no longer has {[q[0] for q in quotes]}"
