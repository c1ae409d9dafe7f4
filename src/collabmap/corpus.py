"""Domain model and loaders for the publication corpus.

A data directory holds five files: ``taxonomy.csv``, ``organizations.csv``,
``journals.csv``, ``roster.csv`` and ``publications.jsonl``. Loading reads
the publications in one pass and drops those outside the observation window
as it reads them. Every :class:`Corpus`, loaded or constructed, is sorted by
pub_id and closed: each roster entry names a known university and a sector
of the taxonomy, every identifier a publication mentions resolves, or
construction raises the error the loader would.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from itertools import chain, pairwise
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping

from .errors import (
    DanglingReference,
    DanglingUda,
    DuplicateId,
    EmptyCorpus,
    InvariantViolation,
    MissingFile,
    ParseError,
)

if TYPE_CHECKING:
    from .views import Views

ORG_KINDS = frozenset(
    {"university", "private_firm", "public_org", "consortium", "foundation", "foreign_org"}
)

DEFAULT_WINDOW = (2001, 2003)
HOME_COUNTRY = "IT"

TAXONOMY_FIELDS = ["sds_id", "sds_name", "uda_id", "uda_name"]
ORGANIZATION_FIELDS = ["org_id", "canonical_name", "kind", "country"]
JOURNAL_FIELDS = ["journal_id", "name", "year", "impact_factor", "sci_categories"]
ROSTER_FIELDS = ["researcher_id", "full_name", "university_org_id", "sds_id"]


def is_alpha2(code: str) -> bool:
    """Whether ``code`` is an ISO 3166 alpha-2 country code: two upper-case letters."""
    return len(code) == 2 and code.isascii() and code.isalpha() and code.isupper()


@dataclass(frozen=True)
class SectorEntry:
    """One scientific disciplinary sector and the area it belongs to."""

    sds_id: str
    sds_name: str
    uda_id: str
    uda_name: str


def _check_window(window: tuple[int, int]) -> tuple[int, int]:
    """The window as a (start, end) tuple; ValueError if start is after end."""
    lo, hi = window
    if lo > hi:
        raise ValueError(f"window start {lo} is after window end {hi}")
    return lo, hi


_SHOWN_CHARS = 40


def _shown(value: str, show: Callable[[str], str] = repr) -> str:
    """``show(value)`` for an error message, cut to its first characters if long."""
    if len(value) <= _SHOWN_CHARS:
        return show(value)
    return f"{show(value[:_SHOWN_CHARS])}... ({len(value)} characters)"


@dataclass(frozen=True)
class Organization:
    """An organization; construction rejects a bad kind or country."""

    org_id: str
    canonical_name: str
    kind: str  # one of ORG_KINDS
    country: str  # ISO 3166 alpha-2

    def __post_init__(self) -> None:
        where = f"organization {_shown(self.org_id, str)}"
        if self.kind not in ORG_KINDS:
            raise InvariantViolation(f"{where}: unknown kind {_shown(self.kind)}")
        if not is_alpha2(self.country):
            raise InvariantViolation(
                f"{where}: country must be an alpha-2 code, got {_shown(self.country)}")


@dataclass(frozen=True)
class JournalYear:
    """A journal's impact factor and categories for one year; construction rejects bad ones."""

    journal_id: str
    name: str
    year: int
    impact_factor: float
    sci_categories: tuple[str, ...]

    def __post_init__(self) -> None:
        where = f"journal {_shown(f'{self.journal_id}@{self.year}', str)}"
        if not (math.isfinite(self.impact_factor) and self.impact_factor >= 0):
            raise InvariantViolation(f"{where}: impact_factor {self.impact_factor} "
                                     "is not a finite number >= 0")
        cats = self.sci_categories
        if not cats or list(cats) != sorted(set(cats)):
            raise InvariantViolation(f"{where}: categories {_shown(';'.join(cats))} "
                                     "are not a non-empty sorted set")


@dataclass(frozen=True, slots=True)
class Researcher:
    researcher_id: str
    full_name: str
    university_org_id: str
    sds_id: str


@dataclass(frozen=True, slots=True)
class AuthorRef:
    """One byline entry. researcher_id is None for authors not on the roster."""

    raw_name: str
    researcher_id: str | None
    org_id: str


@dataclass(frozen=True, slots=True)
class Publication:
    pub_id: str
    year: int
    journal_id: str
    authors: tuple[AuthorRef, ...]
    address_org_ids: tuple[str, ...]  # sorted, deduplicated


@dataclass(frozen=True)
class Corpus:
    """A referentially closed publication corpus, sorted by pub_id.

    Construction rejects a reversed window (``ValueError``) and an empty
    corpus (:class:`EmptyCorpus`), sorts ``publications`` by pub_id,
    rejects a repeated pub_id (:class:`DuplicateId`) and raises the first
    rule broken. It checks the roster first, in its own order: each entry's
    university must exist (:class:`DanglingReference`) and be a university
    (:class:`InvariantViolation`), and its sector must be in the taxonomy
    (:class:`DanglingReference`). Then it scans the publications in pub_id
    order for an unknown journal, organization or researcher
    (:class:`DanglingReference`), a year outside the window, a journal with
    no usable year, an address list that is not a sorted set, no authors, or
    a roster author whose university is not in the address list
    (:class:`InvariantViolation`). Each organization and journal record has
    already rejected a bad kind, country, impact factor or category list
    when it was built. This holds for a loaded corpus, a constructed one and
    a ``dataclasses.replace`` copy alike. The loader sorts and deduplicates
    address lists, so two corpora loaded from row-permuted copies of the
    same files compare equal. The loader validates a row outside the window
    in full but builds no record for it. Within one load, every id a loaded
    record stores (roster university and sector, journal, byline and address
    ids) is the loaded tables' own string, and repeated bylines, address
    lists and years are one object each; nothing is shared across loads.
    All of it is frozen, so only ``is`` tells a shared record or string from
    an equal copy.
    ``window_excluded`` counts publications dropped by the year filter.
    ``home_country`` is the alpha-2 code a private firm must carry to count
    as domestic industry; like the window, it is fixed for the whole corpus.
    The corpus is immutable all the way down: its mappings, the taxonomy
    (each sector's entry, by sds_id) among them, are read-only copies, which
    lets the derived views cached on it never go stale.
    """

    taxonomy: Mapping[str, SectorEntry]
    organizations: Mapping[str, Organization]
    journals: Mapping[tuple[str, int], JournalYear]
    researchers: Mapping[str, Researcher]
    publications: tuple[Publication, ...]
    window: tuple[int, int]
    window_excluded: int
    home_country: str = HOME_COUNTRY
    # derived lookup, excluded from equality: each journal's years inside the
    # window, empty for a journal whose rows all lie outside it
    _years_by_journal: dict[str, tuple[int, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # derived views, built on first use by collabmap.views; excluded from
    # equality, and unset again in a dataclasses.replace copy
    _views: Views | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        lo, hi = _check_window(self.window)
        if not self.publications:
            raise EmptyCorpus(f"no publications fall inside the window {lo}-{hi}")
        for name in ("taxonomy", "organizations", "journals", "researchers"):
            # a private read-only copy, so no later write reaches a frozen object
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        object.__setattr__(
            self, "publications", tuple(sorted(self.publications, key=attrgetter("pub_id"))))
        for before, pub in zip(self.publications, self.publications[1:]):
            if before.pub_id == pub.pub_id:
                raise DuplicateId("pub_id", pub.pub_id)
        by_journal: dict[str, tuple[int, ...]] = {jid: () for jid, _ in self.journals}
        for jid, year in self.journals:
            if lo <= year <= hi:
                by_journal[jid] += (year,)
        object.__setattr__(self, "_years_by_journal", by_journal)
        self._check_closed()

    def _check_closed(self) -> None:
        """Raise the first broken rule: the roster, then the publications in pub_id order."""
        organizations, researchers = self.organizations, self.researchers
        for researcher in researchers.values():
            where = f"roster entry {researcher.researcher_id}"
            org = organizations.get(researcher.university_org_id)
            if org is None:
                raise DanglingReference("organization", researcher.university_org_id, where)
            if org.kind != "university":
                raise InvariantViolation(
                    f"{where}: organization {researcher.university_org_id!r} "
                    f"has kind {org.kind!r}, expected 'university'"
                )
            if researcher.sds_id not in self.taxonomy:
                raise DanglingReference("sds", researcher.sds_id, where)
        lo, hi = self.window
        for pub in self.publications:
            where = f"publication {pub.pub_id}"
            if not lo <= pub.year <= hi:
                raise InvariantViolation(
                    f"{where}: year {pub.year} is outside the window {lo}-{hi}")
            years = self._years_by_journal.get(pub.journal_id)
            if years is None:
                raise DanglingReference("journal", pub.journal_id, where)
            if not years:
                raise DanglingReference(
                    "journal_year", f"{pub.journal_id}@{pub.year}", where)
            addresses = pub.address_org_ids
            for org_id in addresses:
                if org_id not in organizations:
                    raise DanglingReference("organization", org_id, where)
            if len(addresses) > 1 and list(addresses) != sorted(set(addresses)):
                raise InvariantViolation(f"{where}: address list {addresses} is not a sorted set")
            if not pub.authors:
                raise InvariantViolation(f"{where}: no authors")
            for author in pub.authors:
                if author.org_id not in organizations:
                    raise DanglingReference(
                        "organization", author.org_id,
                        f"author {author.raw_name!r} of {pub.pub_id}",
                    )
                if author.researcher_id is None:
                    continue
                researcher = researchers.get(author.researcher_id)
                if researcher is None:
                    raise DanglingReference("researcher", author.researcher_id, where)
                if researcher.university_org_id not in pub.address_org_ids:
                    raise InvariantViolation(
                        f"publication {pub.pub_id}: author {author.researcher_id} belongs to "
                        f"{researcher.university_org_id!r}, which is not in the address list"
                    )

    @property
    def journal_ids(self) -> frozenset[str]:
        return frozenset(self._years_by_journal)

    def effective_journal(self, journal_id: str, year: int) -> JournalYear | None:
        """The journal record an article of the given year uses.

        The journal's nearest year inside the window, the earlier of two
        equally near, so the exact year when it is inside and present. None
        when the journal has no year inside the window.
        """
        years = self._years_by_journal.get(journal_id)
        if not years:
            return None
        best = min(years, key=lambda y: (abs(y - year), y))
        return self.journals[(journal_id, best)]


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    subject: str


_UNDECODED_BYTE = re.compile("[\udc80-\udcff]")


def _decode_error(path: Path, exc: UnicodeDecodeError) -> ParseError:
    """The error for a file that is not valid UTF-8, at its first such line.

    Lines are counted as a text-mode read counts them. The file is read a
    second time, which only a failed load pays for.
    """
    with path.open(encoding="utf-8", errors="surrogateescape") as fh:
        lineno = next(n for n, line in enumerate(fh, start=1) if _UNDECODED_BYTE.search(line))
    byte = exc.object[exc.start]
    return ParseError(str(path), lineno, f"byte 0x{byte:02x} is not valid UTF-8 ({exc.reason})")


def _load_table(path: Path, fields: list[str], kind: str,
                build: Callable[[tuple[str, ...]], tuple]) -> dict:
    """Each row's record by its key, from a strict-header CSV file.

    Values come in header order, stripped of surrounding whitespace. The
    first two fields are a row's id and name, which must be non-empty.
    ``build(values)`` returns the row's (key, record), or raises an
    InvariantViolation whose message, like a ``csv`` error's, is reported
    as a ParseError at the row's last line. Then a key an earlier row holds
    raises DuplicateId of ``kind``.
    """
    table: dict = {}
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(str(path), 1, "empty file")
            if header != fields:
                raise ParseError(str(path), 1, f"expected header {','.join(fields)}, "
                                 f"got {_shown(','.join(header), str)}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(fields):
                    raise InvariantViolation("wrong number of fields")
                values = tuple(value.strip() for value in row)
                if not values[0] or not values[1]:
                    raise InvariantViolation(f"{fields[0]} and {fields[1]} must be non-empty")
                key, record = build(values)
                if key in table:
                    raise DuplicateId(
                        kind, key if isinstance(key, str) else "/".join(map(str, key)))
                table[key] = record
        except (csv.Error, InvariantViolation) as exc:
            raise ParseError(str(path), reader.line_num, str(exc))
        except UnicodeDecodeError as exc:
            raise _decode_error(path, exc)
    return table


def load_taxonomy(path: str | Path) -> dict[str, SectorEntry]:
    """Load the sector/area classification table: each sector's entry, by sds_id."""
    path = Path(path)
    uda_names: dict[str, str] = {}

    def sector(values: tuple[str, ...]) -> tuple[str, SectorEntry]:
        sds_id, _, uda_id, uda_name = values
        if not uda_id or not uda_name:
            raise DanglingUda(sds_id, "missing area id or name")
        if uda_names.setdefault(uda_id, uda_name) != uda_name:
            raise DanglingUda(
                sds_id, f"area {uda_id!r} named both {uda_names[uda_id]!r} and {uda_name!r}"
            )
        return sds_id, SectorEntry(*values)

    sectors = _load_table(path, TAXONOMY_FIELDS, "sds_id", sector)
    if not sectors:
        raise ParseError(str(path), 1, "taxonomy has no rows")
    return sectors


def _journal_year(values: tuple[str, ...]) -> tuple[tuple[str, int], JournalYear]:
    """A journals.csv row's (journal_id, year) key and record."""
    journal_id, name, year_text, impact_text, categories = values
    try:
        year = int(year_text)
    except ValueError:
        raise InvariantViolation(f"year must be an integer, got {_shown(year_text)}")
    try:
        impact_factor = float(impact_text)
    except ValueError:
        raise InvariantViolation(f"impact_factor must be a number, got {_shown(impact_text)}")
    cats = tuple(sorted(c.strip() for c in categories.split(";") if c.strip()))
    return (journal_id, year), JournalYear(journal_id, name, year, impact_factor, cats)


def _parse_publication(
    line: str, window: tuple[int, int], shared: dict
) -> tuple[str, Publication | None]:
    """Validate one line; return its pub_id, and its record if its year is in ``window``.

    A broken rule raises InvariantViolation, which the reader reports as a
    ParseError at the line. ``shared`` belongs to one load. Its string keys
    are the ids of the loaded tables, each mapped to itself: a kept record
    stores those strings in place of the ones it read, and an id no table
    holds stays as read. It also hands out one AuthorRef per validated
    (raw_name, researcher_id, org_id) and one tuple per sorted address list,
    built on the first occurrence from the table strings, and one ``int``
    per year. An address list is its own key; a byline key starts with the
    AuthorRef class, so it never equals one, and a year never equals a
    string or a tuple. Both keys hold the record's own strings, so no raw
    id copy outlives its line.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise InvariantViolation(f"invalid JSON: {exc.msg}")
    except ValueError as exc:  # an integer literal past the int-to-str digit limit
        raise InvariantViolation(f"invalid JSON: {exc}")
    except RecursionError:
        raise InvariantViolation("invalid JSON: nested too deeply")
    if not isinstance(obj, dict):
        raise InvariantViolation("publication record must be an object")

    pub_id = obj.get("pub_id")
    if not isinstance(pub_id, str) or not pub_id:
        raise InvariantViolation("pub_id must be a non-empty string")
    year = obj.get("year")
    if isinstance(year, bool) or not isinstance(year, int):
        raise InvariantViolation("year must be an integer")
    journal_id = obj.get("journal_id")
    if not isinstance(journal_id, str) or not journal_id:
        raise InvariantViolation("journal_id must be a non-empty string")

    raw_authors = obj.get("authors")
    if not isinstance(raw_authors, list) or not raw_authors:
        raise InvariantViolation("authors must be a non-empty list")
    bylines: list[tuple[type, str, str | None, str]] = []
    for entry in raw_authors:
        if not isinstance(entry, dict):
            raise InvariantViolation("author entries must be objects")
        raw_name = entry.get("raw_name")
        org_id = entry.get("org_id")
        researcher_id = entry.get("researcher_id")
        if not isinstance(raw_name, str) or not raw_name:
            raise InvariantViolation("author raw_name must be a non-empty string")
        if not isinstance(org_id, str) or not org_id:
            raise InvariantViolation("author org_id must be a non-empty string")
        if researcher_id is not None and (not isinstance(researcher_id, str) or not researcher_id):
            raise InvariantViolation("author researcher_id must be null or a string")
        bylines.append((AuthorRef, raw_name, researcher_id, org_id))

    raw_addresses = obj.get("address_org_ids")
    if not isinstance(raw_addresses, list):
        raise InvariantViolation("address_org_ids must be a list")
    if not all(isinstance(a, str) and a for a in raw_addresses):
        raise InvariantViolation("address_org_ids must be non-empty strings")

    lo, hi = window
    if not lo <= year <= hi:
        return pub_id, None
    authors = []
    for key in bylines:
        author = shared.get(key)
        if author is None:
            _, raw_name, researcher_id, org_id = key
            researcher_id = shared.get(researcher_id, researcher_id)
            org_id = shared.get(org_id, org_id)
            author = shared[AuthorRef, raw_name, researcher_id, org_id] = AuthorRef(
                raw_name, researcher_id, org_id)
        authors.append(author)
    addresses = tuple(sorted(set(raw_addresses)))
    address_org_ids = shared.get(addresses)
    if address_org_ids is None:
        address_org_ids = tuple(shared.get(org_id, org_id) for org_id in addresses)
        shared[address_org_ids] = address_org_ids
    return pub_id, Publication(
        pub_id=pub_id,
        year=shared.setdefault(year, year),
        journal_id=shared.get(journal_id, journal_id),
        authors=tuple(authors),
        address_org_ids=address_org_ids,
    )


def _load_publications(
    path: Path, window: tuple[int, int], shared: dict
) -> tuple[list[Publication], int]:
    """The publications inside ``window``, and how many others the file holds.

    Every line is parsed and validated in full, and its pub_id checked for
    duplicates, so a bad row raises the same error at the same line whether
    or not its year is in the window. No record is built for a row outside
    the window; the check here is the only one those rows get, since the
    Corpus constructor never sees them. The duplicate check is a sorted pass
    over the pub_ids read so far (see :func:`_check_unique`). It runs at the
    end of the file and before any line error is raised, so a repeated id
    still fails at its own line, in file order with the line errors.
    ``shared`` is this load's lookup (see :func:`_parse_publication`).
    """
    kept: list[Publication] = []
    pub_ids: list[str] = []
    try:
        with path.open(encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    pub_id, pub = _parse_publication(line, window, shared)
                except InvariantViolation as exc:
                    _check_unique(pub_ids)
                    raise ParseError(str(path), lineno, str(exc))
                pub_ids.append(pub_id)
                if pub is not None:
                    kept.append(pub)
    except UnicodeDecodeError as exc:
        _check_unique(pub_ids)
        raise _decode_error(path, exc)
    _check_unique(pub_ids)
    return kept, len(pub_ids) - len(kept)


def _check_unique(pub_ids: list[str]) -> None:
    """Raise DuplicateId for the first pub_id that repeats an earlier one, in list order.

    A sorted copy shows whether any id repeats, so a valid file builds no
    set of every id; only a failing one walks the list again for the first
    repeat.
    """
    if not any(a == b for a, b in pairwise(sorted(pub_ids))):
        return
    seen: set[str] = set()
    for pub_id in pub_ids:
        if pub_id in seen:
            raise DuplicateId("pub_id", pub_id)
        seen.add(pub_id)


def load_corpus(
    data_dir: str | Path,
    window: tuple[int, int] = DEFAULT_WINDOW,
    home_country: str = HOME_COUNTRY,
) -> Corpus:
    """Load a corpus from a data directory and enforce its invariants.

    Publications with years outside ``window`` are dropped as they are read,
    before any referential check; the number dropped is recorded on the
    corpus. ``home_country`` is recorded on the corpus, and every analysis of
    it classifies firms against that country.
    """
    window = _check_window(window)
    data_dir = Path(data_dir)
    paths = {
        name: data_dir / name
        for name in (
            "taxonomy.csv", "organizations.csv", "journals.csv",
            "roster.csv", "publications.jsonl",
        )
    }
    for path in paths.values():
        if not path.is_file():
            raise MissingFile(str(path))

    taxonomy = load_taxonomy(paths["taxonomy.csv"])
    organizations = _load_table(paths["organizations.csv"], ORGANIZATION_FIELDS, "org_id",
                                lambda v: (v[0], Organization(*v)))
    journals = _load_table(paths["journals.csv"], JOURNAL_FIELDS, "journal_id/year",
                           _journal_year)
    # the table strings that records store (see Corpus and _parse_publication)
    ids: dict = {}
    for key in chain(taxonomy, organizations, (jid for jid, _ in journals)):
        ids.setdefault(key, key)
    researchers = _load_table(
        paths["roster.csv"], ROSTER_FIELDS, "researcher_id",
        lambda v: (v[0], Researcher(v[0], v[1], ids.get(v[2], v[2]), ids.get(v[3], v[3]))))
    for key in researchers:
        ids.setdefault(key, key)
    publications, excluded = _load_publications(paths["publications.jsonl"], window, ids)
    return Corpus(
        taxonomy=taxonomy,
        organizations=organizations,
        journals=journals,
        researchers=researchers,
        publications=tuple(publications),
        window=window,
        window_excluded=excluded,
        home_country=home_country,
    )


def validate_corpus(corpus: Corpus) -> tuple[ValidationIssue, ...]:
    """Advisory warnings: authors with no roster link, unreferenced organizations.

    A corpus is closed by construction, so there is nothing else to report.
    The warnings are sorted by code, then subject, so the result is
    deterministic.
    """
    warnings = []
    referenced: set[str] = set()
    for pub in corpus.publications:
        referenced.update(pub.address_org_ids)
        for author in pub.authors:
            referenced.add(author.org_id)
            if author.researcher_id is None:
                warnings.append(
                    ValidationIssue("UnlinkedAuthor", f"{pub.pub_id}:{author.raw_name}"))
    for researcher in corpus.researchers.values():
        referenced.add(researcher.university_org_id)
    for org_id in corpus.organizations:
        if org_id not in referenced:
            warnings.append(ValidationIssue("UnreferencedOrganization", org_id))
    return tuple(sorted(warnings, key=attrgetter("code", "subject")))
