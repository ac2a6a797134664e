"""Job files, pipeline orchestration, and report serialization.

A job file is line-oriented: sections [ring], [ideal], [matrix], [options];
one `key = value` per line; `#` starts a comment.  Structural problems
(including a non-symmetric matrix) are parse-stage errors.  Reports render
as text or JSON; the JSON form is byte-identical for a fixed (job, seed) and
therefore excludes timing, which only the text form shows.

Report.to_json writes the text json.dumps(doc, indent=2) gives for the
report's document, but straight from the report's fixed shape: one f-string
per check, group and table, ints and bools written in place and strings
through json's own ASCII escaping, so no document is built and json.dumps,
which takes its pure-Python encoder whenever it indents, does not run.  A
note or check detail that is not a str raises TypeError from the escaping.
The memo of the tables of the last _TABLE_KEYS invariant tuples also keeps
the fibre's bouquet and the JSON of the homology, bouquet, table checks and
tables block, rendered by the routine to_json uses for any other report.
run_homology keeps a report's parts on its invariants: the kept tables, the
checks and the notes, and from its first to_json on the report's JSON
before and after the seed, rendered with those fragments.  So a later job
given the same kept outcome (invariant_report: one input's, or, when g
restricts to no generator, one restricted germ's) reuses them, and its
to_json writes only the seed, while its invariants, checks, notes, fibre,
bouquet and tables are those objects.

collect_tables evaluates the tables' consistency checks: the rank guards
and the cover's Euler characteristic in the table constructors, the fibre/M
rank split in milnor_fibre_homology, and here the mod-2 twins of B and X
against the universal coefficients of their integral tables, compared
degree by degree.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Sequence
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .decomposition import (
    CheckResult,
    InvariantReport,
    SingularityInput,
    invariant_report,
)
from .errors import InconsistencyError, ParseError, RingMismatchError
from .homology import (
    BouquetDescription,
    HomologyTable,
    bouquet,
    milnor_fibre_homology,
    mod2_group,
    table_B,
    table_pair_B_Bu,
    table_X,
    LADDER_MIN_N,
    SPACE_B,
    SPACE_BU,
    SPACE_BU_COVER,
    SPACE_PAIR,
    SPACE_X,
    TRIVIAL_GROUP,
)
from .rings import Ring, parse_matrix, parse_polynomial
from .standard_basis import Budgets, DEFAULT_BUDGETS

SECTION_KEYS = {
    "ring": ("vars",),
    "ideal": ("g",),
    "matrix": ("h",),
    "options": ("a1", "f"),
}


def _parsed(parse, text: str, ring: Ring, line_no: int, key: str):
    """parse(text, ring), with the line and key put before any ParseError."""
    try:
        return parse(text, ring)
    except ParseError as exc:
        raise ParseError(f"line {line_no}: in {key}: {exc}") from exc


def parse_job(text: str) -> SingularityInput:
    """Parse a job file into a singularity input.

    Every structural defect, including a non-symmetric or misshapen matrix,
    raises ParseError so the CLI exits with the parse-error code.  The input
    is immutable, and one text gives the same input object each time while
    it stays among the last _PARSED_TEXTS texts parsed, so that input's
    seed-free invariants are kept across jobs (invariant_report).  A
    ParseError is raised afresh on every call.
    """
    return _parse_job(text)


# The benchmark's batch of small jobs runs each of its 32 texts three times
# per pass (a germ's six jobs are two variable orders, each under three
# Milnor seeds), at most 31 other texts apart: twice that is enough.
_PARSED_TEXTS = 64


@functools.lru_cache(maxsize=_PARSED_TEXTS)
def _parse_job(text: str) -> SingularityInput:
    section = None
    raw: dict[tuple[str, str], tuple[str, int]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip().lower()
            if name not in SECTION_KEYS:
                raise ParseError(f"line {line_no}: unknown section [{name}]")
            section = name
            continue
        if "=" not in stripped:
            raise ParseError(f"line {line_no}: expected 'key = value'")
        if section is None:
            raise ParseError(f"line {line_no}: key outside any section")
        key, value = stripped.split("=", 1)
        key = key.strip().lower()
        if key not in SECTION_KEYS[section]:
            raise ParseError(f"line {line_no}: unknown key {key!r} in [{section}]")
        if (section, key) in raw:
            raise ParseError(f"line {line_no}: duplicate key {key!r}")
        raw[(section, key)] = (value.strip(), line_no)

    for sec, key in (("ring", "vars"), ("ideal", "g"), ("matrix", "h")):
        if (sec, key) not in raw:
            raise ParseError(f"missing required key {key!r} in section [{sec}]")

    vars_value, vars_line = raw[("ring", "vars")]
    try:
        ring = Ring(tuple(vars_value.split()))
    except ValueError as exc:
        raise ParseError(f"line {vars_line}: {exc}") from exc

    g_value, g_line = raw[("ideal", "g")]
    g_texts = [t for t in g_value.split(";") if t.strip()]
    if not g_texts:
        raise ParseError(f"line {g_line}: no generators in g")
    g = tuple(_parsed(parse_polynomial, t.strip(), ring, g_line, "g") for t in g_texts)

    h_value, h_line = raw[("matrix", "h")]
    h = _parsed(parse_matrix, h_value, ring, h_line, "h")

    a1_mode = "assume_zero"
    a1_count = None
    if ("options", "a1") in raw:
        a1_value, a1_line = raw[("options", "a1")]
        lowered = a1_value.lower()
        if lowered == "zero":
            a1_mode = "assume_zero"
        elif lowered == "estimate":
            a1_mode = "estimate"
        else:
            try:
                count = int(a1_value)
            except ValueError as exc:
                raise ParseError(
                    f"line {a1_line}: a1 must be an integer, 'zero', or 'estimate'"
                ) from exc
            if count < 0:
                raise ParseError(f"line {a1_line}: a1 must be non-negative")
            a1_mode = "provided"
            a1_count = count

    f_expected = None
    if ("options", "f") in raw:
        f_value, f_line = raw[("options", "f")]
        f_expected = _parsed(parse_polynomial, f_value, ring, f_line, "f")

    try:
        return SingularityInput(
            ring=ring,
            g=g,
            h=h,
            f_expected=f_expected,
            a1_mode=a1_mode,
            a1_count=a1_count,
        )
    except (ValueError, RingMismatchError) as exc:
        raise ParseError(str(exc)) from exc


# Job and Report are frozen dataclasses with slots, whose __init__ sets each
# slot through its member descriptor (_JOB_SLOTS, _REPORT_SLOTS), as
# rings._poly does, not through one object.__setattr__ per field.


@dataclass(frozen=True, slots=True, init=False)
class Job:
    input: SingularityInput
    seed: int = 0
    budgets: Budgets = DEFAULT_BUDGETS

    def __init__(self, input: SingularityInput, seed: int = 0, budgets: Budgets = DEFAULT_BUDGETS):
        # the report writes the seed in place: a bool would give invalid JSON
        if type(seed) is not int:
            raise ValueError(f"seed must be an int, got {type(seed).__name__}")
        set_input, set_seed, set_budgets = _JOB_SLOTS
        set_input(self, input)
        set_seed(self, seed)
        set_budgets(self, budgets)


@dataclass(frozen=True, slots=True, init=False)
class Report:
    invariants: InvariantReport
    fibre: HomologyTable | None
    tables: tuple[tuple[str, HomologyTable], ...]
    sphere_bouquet: BouquetDescription | None
    checks: tuple[CheckResult, ...]
    notes: tuple[str, ...]
    seed: int
    elapsed: float

    def __init__(self, invariants, fibre, tables, sphere_bouquet, checks, notes, seed, elapsed):
        set_inv, set_fibre, set_tables, set_wedge, set_checks, set_notes, set_seed, set_elapsed = (
            _REPORT_SLOTS
        )
        set_inv(self, invariants)
        set_fibre(self, fibre)
        set_tables(self, tables)
        set_wedge(self, sphere_bouquet)
        set_checks(self, checks)
        set_notes(self, notes)
        set_seed(self, seed)
        set_elapsed(self, elapsed)

    def to_json(self) -> str:
        """The text json.dumps(doc, indent=2) + "\\n" gives for the report's
        document, written for its fixed shape (the test oracles build the
        document).  Table names are distinct, as collect_tables gives them.
        Only the seed is written here when the parts run_homology kept on
        the report's invariants serve it."""
        parts = getattr(self.invariants, "_parts", None)
        if parts is not None and parts.serves(self):
            head, tail = parts.json or parts.render(self.invariants)
        else:
            head, tail = _halves(
                self.invariants,
                self.notes,
                *_fragments(self.fibre, self.sphere_bouquet, self.checks, self.tables),
            )
        return f"{head}{self.seed}{tail}"

    def to_text(self) -> str:
        inv = self.invariants
        lines = ["invariants"]
        lines.append(f"  n        {inv.n}")
        lines.append(f"  corank   {inv.corank}")
        lines.append(f"  mu0      {inv.mu0}")
        mu1_note = "" if inv.mu1_applicable else "  (not applicable: corank 0)"
        lines.append(f"  mu1      {inv.mu1}{mu1_note}")
        lines.append(f"  a        {inv.a}")
        lines.append(f"  #A1      {inv.a1}  [{inv.a1_provenance}]")
        if self.fibre is not None:
            lines.append("")
            lines.append("Milnor fibre homology (integral)")
            lines.extend(_render_table_lines(self.fibre))
            if self.sphere_bouquet is not None:
                lines.append(f"bouquet: {self.sphere_bouquet}")
        if self.tables:
            lines.append("")
            lines.append("intermediate tables")
            for name, t in self.tables:
                lines.append(f"  {name} ({t.coefficients})")
                lines.extend(_render_table_lines(t, indent="    "))
        lines.append("")
        lines.append("checks")
        for c in self.checks:
            tag = "pass" if c.passed else "FAIL"
            lines.append(f"  [{tag}] {c.name}: {c.detail}")
        if self.notes:
            lines.append("")
            lines.append("notes")
            for note in self.notes:
                lines.append(f"  - {note}")
        lines.append("")
        lines.append(f"seed {self.seed}, elapsed {self.elapsed:.2f} s")
        return "\n".join(lines) + "\n"


_JOB_SLOTS = tuple(getattr(Job, f.name).__set__ for f in fields(Job))
_REPORT_SLOTS = tuple(getattr(Report, f.name).__set__ for f in fields(Report))
_BOOL = {True: "true", False: "false"}


def _block(brackets: str, items: Sequence[str], indent: str) -> str:
    """A list or dict as json.dumps(..., indent=2) lays it out, on a line
    indented by indent: brackets is "[]" or "{}", and each item is already
    laid out for the next level."""
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + indent + brackets[1]


def _groups_json(table: HomologyTable, indent: str) -> str:
    """A table's groups by degree, on a line indented by indent."""
    inner = indent + "    "
    return _block(
        "{}",
        [
            f'"{d}": {{\n{inner}"rank": {g.rank},\n'
            f'{inner}"torsion": {_block("[]", [str(t) for t in g.torsion], inner)}\n{indent}  }}'
            for d, g in table.entries
        ],
        indent,
    )


def _check_json(check: CheckResult) -> str:
    """One check as an item of the report's checks list."""
    return (
        f'{{\n      "name": {encode_basestring_ascii(check.name)},\n'
        f'      "pass": {_BOOL[check.passed]},\n'
        f'      "detail": {encode_basestring_ascii(check.detail)}\n    }}'
    )


def _fragments(
    fibre: HomologyTable | None,
    wedge: BouquetDescription | None,
    checks: tuple[CheckResult, ...],
    tables: tuple[tuple[str, HomologyTable], ...],
) -> tuple[str, str, tuple[str, ...], str]:
    """The JSON of a report's homology and bouquet, of each of its checks
    as a list item, and of its tables block, as to_json lays them out: for
    the kept tables of an invariant tuple and for any other report."""
    homology = "null" if fibre is None else _groups_json(fibre, "  ")
    wedge_json = "null" if wedge is None else _block(
        "[]",
        [f'{{\n      "dim": {d},\n      "count": {c}\n    }}' for d, c in wedge.spheres],
        "  ",
    )
    esc = encode_basestring_ascii
    tables_json = _block(
        "{}",
        [
            f'{esc(name)}: {{\n        "space": {esc(t.space)},\n'
            f'        "coefficients": {esc(t.coefficients)},\n'
            f'        "groups": {_groups_json(t, "        ")}\n      }}'
            for name, t in tables
        ],
        "    ",
    )
    return homology, wedge_json, tuple(map(_check_json, checks)), tables_json


def _halves(
    inv: InvariantReport,
    notes: tuple[str, ...],
    homology: str,
    wedge: str,
    checks: Sequence[str],
    tables: str,
) -> tuple[str, str]:
    """The report's JSON before its seed and after it, from its invariants
    and notes and the _fragments of the rest."""
    esc = encode_basestring_ascii
    return (
        f'{{\n  "invariants": {{\n    "n": {inv.n},\n    "mu0": {inv.mu0},\n'
        f'    "mu1": {inv.mu1},\n    "mu1_applicable": {_BOOL[inv.mu1_applicable]},\n'
        f'    "a": {inv.a},\n    "corank": {inv.corank},\n    "a1": {inv.a1},\n'
        f'    "a1_provenance": {esc(inv.a1_provenance)}\n  }},\n'
        f'  "homology": {homology},\n  "bouquet": {wedge},\n'
        f'  "checks": {_block("[]", checks, "  ")},\n'
        f'  "provenance": {{\n    "seed": ',
        f',\n    "a1_provenance": {esc(inv.a1_provenance)},\n'
        f'    "notes": {_block("[]", [esc(note) for note in notes], "    ")},\n'
        f'    "tables": {tables}\n  }}\n}}\n',
    )


def _render_table_lines(table: HomologyTable, indent: str = "  ") -> list[str]:
    lines = []
    for d, g in reversed(table.entries):
        lines.append(f"{indent}H_{d} = {g}")
    if not table.entries:
        lines.append(f"{indent}trivial")
    return lines


def run_invariants(job: Job) -> Report:
    """Invariants only: verify the decomposition and compute the numbers."""
    start = time.perf_counter()
    inv = invariant_report(job.input, seed=job.seed, budgets=job.budgets)
    notes = _invariant_notes(inv)
    return Report(
        invariants=inv,
        fibre=None,
        tables=(),
        sphere_bouquet=None,
        checks=inv.checks,
        notes=tuple(notes),
        seed=job.seed,
        elapsed=time.perf_counter() - start,
    )


def run_homology(job: Job) -> Report:
    """Full pipeline: invariants, fibre homology, bouquet, and the
    intermediate tables with their consistency assertions evaluated.  The
    report's parts are kept on its invariants, so a later job given the
    same kept outcome (invariant_report) reuses them and their JSON."""
    start = time.perf_counter()
    inv = invariant_report(job.input, seed=job.seed, budgets=job.budgets)
    # getattr, not vars(inv): reading __dict__ moves inv's attributes
    # into a dict of its own, where every later load of them is slower
    parts = getattr(inv, "_parts", None)
    if parts is None:
        parts = _HomologyParts(inv, _invariant_notes(inv))
        object.__setattr__(inv, "_parts", parts)
    return parts.report(inv, job.seed, start)


class _HomologyParts:
    """The parts of the homology reports of one InvariantReport inv: the
    kept tables of its tuple, its checks with the tables' appended, and
    notes followed by the tables' notes; and, from the first to_json of
    such a report on, that report's JSON before and after the seed.  It
    holds no reference to inv, so a dropped outcome is freed at once."""

    __slots__ = ("kept", "checks", "notes", "json")

    def __init__(self, inv: InvariantReport, notes: Sequence[str]):
        kept = _tables(inv.mu0, inv.mu1, inv.a, inv.corank, inv.a1, inv.n)
        self.kept = kept
        self.checks = inv.checks + kept.checks
        self.notes = tuple(notes) + kept.notes
        self.json: tuple[str, str] | None = None

    def report(self, inv: InvariantReport, seed: int, start: float) -> Report:
        """The report of inv with these parts; start is the job's
        perf_counter start."""
        kept = self.kept
        return Report(
            invariants=inv,
            fibre=kept.fibre,
            tables=kept.tables,
            sphere_bouquet=kept.wedge,
            checks=self.checks,
            notes=self.notes,
            seed=seed,
            elapsed=time.perf_counter() - start,
        )

    def serves(self, report: Report) -> bool:
        """Whether report, whose invariants keep these parts, has the very
        checks, notes, fibre, bouquet and tables they hold."""
        kept = self.kept
        return (
            report.checks is self.checks
            and report.notes is self.notes
            and report.fibre is kept.fibre
            and report.sphere_bouquet is kept.wedge
            and report.tables is kept.tables
        )

    def render(self, inv: InvariantReport) -> tuple[str, str]:
        """The JSON of the reports these parts serve, before and after the
        seed, with the kept tables' fragments; inv is the InvariantReport
        the parts were made of, and the JSON is kept for every later one."""
        homology, wedge, tail, tables = self.kept.json
        checks = (*map(_check_json, inv.checks), *tail)
        self.json = _halves(inv, self.notes, homology, wedge, checks, tables)
        return self.json


def _invariant_notes(inv: InvariantReport) -> list[str]:
    notes = []
    if not inv.mu1_applicable:
        notes.append("det H is a unit at the origin (corank 0); mu1 reported as 0")
    if inv.a1_provenance == "assumed":
        notes.append("#A1 assumed 0; pass a1 = <int> or a1 = estimate to override")
    if inv.a1_provenance == "experimental-saturation":
        notes.append(
            "#A1 from the experimental saturation estimator; "
            "Betti numbers in degree n-1 are conditional on it"
        )
    return notes


def collect_tables(
    mu0: int, mu1: int, a: int, corank: int, a1: int, n: int
) -> tuple[
    HomologyTable,
    tuple[tuple[str, HomologyTable], ...],
    tuple[CheckResult, ...],
    tuple[str, ...],
]:
    """Fibre table plus intermediates, with consistency checks evaluated.

    The table constructors raise InconsistencyError themselves when an
    identity fails; the CheckResult entries returned here record the
    identities that were evaluated and the values they took.  The result is
    a function of the six ints alone and immutable, so homology reports
    share the one _tables keeps for each of the last _TABLE_KEYS tuples.
    """
    fibre, m_table = milnor_fibre_homology(mu0, mu1, a, corank, a1, n)
    tables: list[tuple[str, HomologyTable]] = []
    checks = [
        CheckResult(
            "fibre_M_rank_split",
            True,
            "rank H_d(F) = rank H_d(M) + (#A1 if d = n-1) for all d >= 4",
        )
    ]
    notes: list[str] = []

    if corank >= 2:
        n_aux = max(n, LADDER_MIN_N)
        if n_aux != n:
            notes.append(
                f"auxiliary tables rendered at reference dimension n = {n_aux} "
                f"(job has n = {n} < {LADDER_MIN_N})"
            )
        b_low, b_low_mod2 = table_B(mu1, a)
        checks.append(_uc_mod2_check(SPACE_B, b_low, b_low_mod2))
        ladder = table_pair_B_Bu(mu1, a, n_aux)
        cover_chi = ladder[SPACE_BU_COVER].euler_characteristic()
        checks.append(
            CheckResult(
                "chi_double_cover",
                True,
                f"chi(B_u_tilde) = {cover_chi} = 2 * chi(B_u) in the even-n regime",
            )
        )
        x_int, x_mod2 = table_X(mu1, a, n_aux)
        checks.append(_uc_mod2_check(SPACE_X, x_int, x_mod2))
        tables.extend(
            [
                ("B_low", b_low),
                ("B_low_mod2", b_low_mod2),
                ("(B,B_u)", ladder[SPACE_PAIR]),
                ("B_high", ladder[SPACE_B]),
                ("B_u", ladder[SPACE_BU]),
                ("B_u_tilde", ladder[SPACE_BU_COVER]),
                ("X", x_int),
                ("X_mod2", x_mod2),
            ]
        )
    else:
        notes.append(
            "corank <= 1: the corank-2 locus is empty, so only the fibre and M "
            "tables apply"
        )
    tables.append(("M", m_table))
    return fibre, tuple(tables), tuple(checks), tuple(notes)


class _KeptTables(NamedTuple):
    """What every homology report of one invariant tuple shares: the fibre
    and tables with their notes, the bouquet of the fibre, the check tail
    the report appends (the tables' checks, then the bouquet's) and the
    _fragments of all of it."""

    fibre: HomologyTable
    tables: tuple[tuple[str, HomologyTable], ...]
    checks: tuple[CheckResult, ...]
    notes: tuple[str, ...]
    wedge: BouquetDescription
    json: tuple[str, str, tuple[str, ...], str]


# A pass of any benchmark workload meets at most 11 invariant tuples.
_TABLE_KEYS = 32


@functools.lru_cache(maxsize=_TABLE_KEYS)
def _tables(mu0: int, mu1: int, a: int, corank: int, a1: int, n: int) -> _KeptTables:
    fibre, tables, checks, notes = collect_tables(mu0, mu1, a, corank, a1, n)
    wedge = bouquet(fibre)
    checks += (
        CheckResult(
            "bouquet_torsion_free",
            True,
            f"fibre table is torsion-free with H_0 = Z; bouquet {wedge}",
        ),
    )
    return _KeptTables(fibre, tables, checks, notes, wedge, _fragments(fibre, wedge, checks, tables))


def _uc_mod2_check(space: str, integral: HomologyTable, mod2: HomologyTable) -> CheckResult:
    """The stated mod-2 table of a space against the universal coefficients
    of its integral table: dim H_d(-;F2) = rank H_d + (even torsion of H_d)
    + (even torsion of H_(d-1)) in every degree.  A mismatch raises
    InconsistencyError."""
    groups = dict(integral.entries)
    stated = dict(mod2.entries)
    for d in sorted(groups.keys() | {d + 1 for d in groups} | stated.keys()):
        dim = (groups[d].mod2_dimension() if d in groups else 0) + (
            groups[d - 1].two_torsion_count() if d - 1 in groups else 0
        )
        group = stated.get(d, TRIVIAL_GROUP)
        if group.rank or group.torsion != (2,) * dim:
            raise InconsistencyError(
                f"universal-coefficient mismatch for {space} in degree {d}: "
                f"{mod2_group(dim)} vs {group}"
            )
    return CheckResult(
        f"uc_mod2_{space}",
        True,
        f"mod-2 table of {space} matches universal coefficients of the integral table",
    )
