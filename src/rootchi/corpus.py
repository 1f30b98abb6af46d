"""Corpus files: named link diagrams with optional expected values."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

from .linkdiag import DiagramError, LinkDiagram, parse_link

_EXPECT = re.compile(r"#\s*expect\s+(\S+)\s+(\S+)\s*:\s*(.+?)\s*$")
_DIRECTIVE = re.compile(r"#\s*expect(?:\s|$)")  # a comment whose first word is expect
_EXPECT_KEY = re.compile(r"alexander|homfly_(?:unreduced|reduced|middle)"
                         r"|sln_([1-9][0-9]*)_(?:reduced|unreduced)")


@dataclass
class CorpusEntry:
    name: str
    source: str
    expected: dict[str, str] = field(default_factory=dict)

    def diagram(self) -> LinkDiagram:
        d = parse_link(self.source)
        return LinkDiagram(d.crossings, d.unknot_count, self.name)


def expected_order(key: str) -> int | None:
    """The n of an ``sln_<n>_reduced`` or ``sln_<n>_unreduced`` expect key,
    None for the keys without n (``alexander`` and ``homfly_*``).  Any other
    key raises ``DiagramError``."""
    m = _EXPECT_KEY.fullmatch(key)
    if not m:
        raise DiagramError(f"unknown expect key {key!r}; the keys are alexander, "
                           "homfly_<unreduced|reduced|middle> and sln_<n>_<reduced|unreduced>")
    if m.group(1) is None:
        return None
    try:
        return int(m.group(1))
    except ValueError:  # int() refuses more digits than sys.get_int_max_str_digits()
        raise DiagramError("an expect key's n has too many digits") from None


def parse_corpus(text: str) -> list[CorpusEntry]:
    """Lines ``name: PD[...]`` / ``name: BR[...]``; comments may carry
    ``# expect <name> <invariant>: <value>`` directives, whose invariant
    ``expected_order`` must accept.  A comment whose first word is
    ``expect`` but that is not such a directive raises ``DiagramError``."""
    entries: dict[str, CorpusEntry] = {}
    expects: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _EXPECT.match(line)
            if m is None and _DIRECTIVE.match(line):
                raise DiagramError(f"line {lineno}: malformed expect directive {line!r}; "
                                   "expected '# expect <name> <invariant>: <value>'")
            if m:
                try:
                    expected_order(m.group(2))
                except DiagramError as e:
                    raise DiagramError(f"line {lineno}: {e}") from None
                expects.append((m.group(1), m.group(2), m.group(3)))
            continue
        if ":" not in line:
            raise DiagramError(f"line {lineno}: expected 'name: source'")
        name, source = line.split(":", 1)
        name, source = name.strip(), source.strip()
        if not name or not source:
            raise DiagramError(f"line {lineno}: empty name or source")
        if name in entries:
            raise DiagramError(f"line {lineno}: duplicate corpus name {name!r}")
        entries[name] = CorpusEntry(name, source)
    for name, key, value in expects:
        if name not in entries:
            raise DiagramError(f"expect directive for unknown entry {name!r}")
        entries[name].expected[key] = value
    return list(entries.values())


def load_corpus_file(path: str) -> list[CorpusEntry]:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise DiagramError(f"corpus is not UTF-8: {e}") from None
    return parse_corpus(text)


def bundled_corpus() -> list[CorpusEntry]:
    text = resources.files("rootchi").joinpath("data/corpus.txt").read_text("utf-8")
    return parse_corpus(text)


def bundled_entry(name: str) -> CorpusEntry:
    for e in bundled_corpus():
        if e.name == name:
            return e
    raise KeyError(name)
