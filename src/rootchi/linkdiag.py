"""Oriented link diagrams: PD and braid-word input, crossing surgeries.

A diagram is an abstract oriented 4-valent graph: each crossing records the
edges of its understrand (in, out) and overstrand (in, out) plus a sign, and
crossingless split unknot components are counted separately.  Every edge
label occurs exactly once as the head of a strand (an ``*_in`` slot) and
once as a tail (an ``*_out`` slot); following tails to heads partitions the
edges into closed oriented components.

One walk, ``_walk``, follows each component from its smallest edge label.
A diagram keeps its walk (``LinkDiagram._walked``), so it is walked at most
once: ``validate``, ``normalize``, ``canonical_key``, ``first_non_descending``
and ``LinkDiagram.components`` all read the kept result.  ``canonical_key``,
the skein memo key, restarts each component of the walk at the least
rotation of its word of (sign, under) letters, found by comparing the
rotations that start on the least letter, so relabeled copies of a diagram
share one key while the key still describes the diagram completely.

The walk assumes a valid diagram and checks only that the edges close up
into strands.  The full check,
``validate`` (signs, labels, then the walk), runs where a diagram enters:
in ``make_diagram``, in ``skein_resolve``, and once at the top of
``skein.homfly_unreduced`` and ``alexoracle.alex_matrix_poly``, not at each
node of the skein recursion.

PD input ``X[a,b,c,d]`` lists the four edges counterclockwise starting at
the incoming understrand, so the understrand runs a -> c.  Overstrand
directions are found by walking each strand once, slot to opposite slot:
its passes under a crossing fix its direction.  A strand that never passes
under takes the successor-label rule of standard knot tables at its
lowest-index crossing.  The crossing is positive exactly when the
overstrand enters at slot b.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import itemgetter


MAX_STRANDS = 200  # bound on braid strands and on split-unknot U tokens


class DiagramError(ValueError):
    """Invalid or inconsistent diagram data."""


class ResourceBoundError(RuntimeError):
    """An input size, such as a crossing or strand count, exceeds its bound."""


@dataclass(frozen=True)
class Crossing:
    sign: int
    under_in: int
    under_out: int
    over_in: int
    over_out: int

    def edges(self) -> tuple[int, int, int, int]:
        return (self.under_in, self.under_out, self.over_in, self.over_out)


@dataclass(frozen=True)
class LinkDiagram:
    crossings: tuple[Crossing, ...]
    unknot_count: int = 0
    name: str | None = field(default=None, compare=False)

    @property
    def writhe(self) -> int:
        return sum(c.sign for c in self.crossings)

    @property
    def components(self) -> int:
        return len(self._walked[0]) + self.unknot_count

    @cached_property
    def _walked(self) -> tuple[list[list[int]], dict[int, tuple[int, bool, int]]]:
        """``_walk`` of the crossings, kept; its readers do not change it.  A
        walk that raises keeps nothing, so it raises again on the next read."""
        return _walk(self.crossings)

    def stats(self) -> tuple[int, int, int]:
        return (self.components, self.writhe, len(self.crossings))


@dataclass(frozen=True)
class SkeinSite:
    """One crossing of a diagram, singled out for skein resolution."""

    diagram: LinkDiagram
    crossing_index: int

    def __post_init__(self):
        if not 0 <= self.crossing_index < len(self.diagram.crossings):
            raise DiagramError("crossing index out of range")


# -- structural validation and traversal --------------------------------------


def _walk(crossings) -> tuple[list[list[int]], dict[int, tuple[int, bool, int]]]:
    """Follow each component from its smallest edge label.

    Returns the edge cycles in that order and a map from each edge to (the
    crossing it enters, whether it enters under, the next edge).  Edges that
    do not close up into strands, one head and one tail each, raise
    ``DiagramError`` on the way.
    """
    step = {}
    for i, c in enumerate(crossings):
        step[c.under_in] = (i, True, c.under_out)
        step[c.over_in] = (i, False, c.over_out)
    if len(step) != 2 * len(crossings):
        raise DiagramError("an edge has two heads; orientation is inconsistent")
    cycles: list[list[int]] = []
    seen: set[int] = set()
    for start in sorted(step):
        if start in seen:
            continue
        cycle, e = [], start
        while e not in seen:
            seen.add(e)
            cycle.append(e)
            entry = step.get(e)
            if entry is None:
                raise DiagramError(f"edge {e} has a tail but no head")
            e = entry[2]
        if e != start:
            raise DiagramError(f"edge {e} has two tails; orientation is inconsistent")
        cycles.append(cycle)
    return cycles, step


def validate(d: LinkDiagram) -> None:
    """Every count, sign and label is an int; a bool is never read as 0/1."""
    if type(d.unknot_count) is not int or d.unknot_count < 0:
        raise DiagramError(f"unknot count must be a non-negative integer, got {d.unknot_count!r}")
    for c in d.crossings:
        if type(c.sign) is not int or c.sign not in (1, -1):
            raise DiagramError(f"crossing sign must be +1 or -1, got {c.sign!r}")
        for e in c.edges():
            if type(e) is not int or e < 1:
                raise DiagramError(f"edge labels must be positive integers, got {e!r}")
    d._walked  # the walk raises where the edges do not close up into strands


def normalize(d: LinkDiagram) -> LinkDiagram:
    """Relabel edges 1..2c in traversal order; crossing order is preserved."""
    cycles, _ = d._walked
    r = {e: k for k, e in enumerate((e for cycle in cycles for e in cycle), 1)}
    return LinkDiagram(tuple(Crossing(c.sign, r[c.under_in], r[c.under_out],
                                      r[c.over_in], r[c.over_out]) for c in d.crossings),
                       d.unknot_count, d.name)


def make_diagram(crossings, unknot_count: int = 0, name: str | None = None) -> LinkDiagram:
    d = LinkDiagram(tuple(crossings), unknot_count, name)
    validate(d)
    if not d.crossings and d.unknot_count == 0:
        raise DiagramError("empty diagram")
    return normalize(d)


def _least_rotation(word) -> int:
    """Start of the least rotation of a cyclic word: only the starts on its
    least letter are compared, and on a tie the first is returned.  Memo-key
    words have a few dozen letters, too few for a linear-time algorithm such
    as Booth's to pay off."""
    least = min(word)
    starts = [k for k, x in enumerate(word) if x == least]
    if len(starts) == 1:
        return starts[0]
    return min(starts, key=lambda k: word[k:] + word[:k])


def canonical_key(d: LinkDiagram):
    """Hashable encoding of the diagram up to relabeling; the skein memo key.

    Each component is read as a cyclic word with one letter per pass, the
    crossing's sign and whether the pass goes under.  The component starts
    at the least rotation of its word (``_least_rotation``, over the starts
    on its least letter), and the components are ordered by their rotated
    words.  The key is (component lengths, the words one after another, for
    each pass the position of the other pass through its crossing, the split
    unknot count).  It describes the diagram completely, so equal keys mean
    the same diagram up to edge labels and crossing order, and a memo hit
    never changes a value.

    Where a word is periodic, or two components have equal words, the walk
    order (each component from its smallest edge label) breaks the tie.  The
    key stays complete there but two relabelings of one diagram may differ;
    without such ties any relabeling and crossing order give one key.
    """
    cycles, step = d._walked
    signs = [c.sign for c in d.crossings]
    strands = []
    for cycle in cycles:
        word = [2 * signs[step[e][0]] + step[e][1] for e in cycle]  # -2, -1, 2 or 3
        k = _least_rotation(word)
        strands.append((word[k:] + word[:k], cycle[k:] + cycle[:k]))
    strands.sort(key=itemgetter(0))  # stable: equal words keep walk order
    lengths, letters, edges = [], [], []
    for word, cycle in strands:
        lengths.append(len(word))
        letters += word
        edges += cycle
    position = dict(zip(edges, range(len(edges))))
    partner = [0] * len(edges)
    for c in d.crossings:
        under, over = position[c.under_in], position[c.over_in]
        partner[under], partner[over] = over, under
    return tuple(lengths), tuple(letters), tuple(partner), d.unknot_count


# -- PD notation ---------------------------------------------------------------

_PD_X = re.compile(r"X\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")


def _infer_over_directions(quads: list[tuple[int, int, int, int]]) -> list[bool]:
    """For each crossing decide whether the overstrand enters at slot b.

    Walks each strand once, from slot to opposite slot.  Its passes under a
    crossing (a -> c) fix its direction, and passes in both directions are
    an error.  A strand that never passes under takes the successor-label
    rule of the standard tables at its lowest-index crossing: the overstrand
    runs from b to d when d = b + 1, from d to b when b = d + 1, and else
    from the larger label to the smaller.  Returns a list of ``in_is_b`` flags.
    """
    where: dict[int, list[tuple[int, int]]] = {}  # edge -> its (crossing, slot)s
    for i, quad in enumerate(quads):
        for slot, e in enumerate(quad):
            where.setdefault(e, []).append((i, slot))
    for e, occ in where.items():
        if len(occ) != 2:
            raise DiagramError(f"edge label {e} occurs {len(occ)} time(s), expected 2")
    in_is_b = [False] * len(quads)
    done: set[tuple[int, int]] = set()
    for pos in [(i, slot) for i in range(len(quads)) for slot in range(4)]:
        if pos in done:
            continue
        passes = []  # (crossing, slot entered) along the strand
        while pos not in done:
            i, slot = pos
            out = (i, slot ^ 2)  # the opposite slot
            done.update((pos, out))
            passes.append(pos)
            first, second = where[quads[i][slot ^ 2]]
            pos = second if first == out else first
        # forward: the walk runs along the strand's orientation, as when it enters at a
        under = {slot == 0 for _, slot in passes if slot % 2 == 0}
        if len(under) > 1:
            i, slot = passes[0]
            raise DiagramError(f"the strand through edge {quads[i][slot]} passes under "
                               "in both directions")
        if under:
            forward = under.pop()
        else:
            i, slot = min(passes)
            _, b, _, d = quads[i]
            forward = (slot == 1) == (d == b + 1 or (b != d + 1 and b > d))
        for i, slot in passes:
            if slot % 2:
                in_is_b[i] = (slot == 1) == forward
    return in_is_b


def parse_pd(text: str) -> LinkDiagram:
    """Parse ``PD[X[a,b,c,d], ...]`` with optional split-unknot ``U`` tokens."""
    s = text.replace("⊔", " ").strip()
    if not s:
        raise DiagramError("empty link specification")
    # strip trailing split-unknot tokens
    unknots = 0
    tokens = s.split()
    while tokens and tokens[-1] == "U":
        unknots += 1
        tokens.pop()
    if unknots > MAX_STRANDS:
        raise ResourceBoundError(f"{unknots} U tokens exceed the bound {MAX_STRANDS}")
    s = " ".join(tokens)
    if not s:
        return make_diagram((), unknots)
    m = re.fullmatch(r"PD\[(.*)\]", s, re.DOTALL)
    if not m:
        raise DiagramError(f"not a PD expression: {text!r}")
    inner = m.group(1).strip()
    try:
        quads = [tuple(map(int, g)) for g in _PD_X.findall(inner)]
    except ValueError:  # int() refuses more digits than sys.get_int_max_str_digits()
        raise DiagramError("a PD label has too many digits") from None
    leftover = _PD_X.sub("", inner).replace(",", "").strip()
    if leftover or (not quads and inner):
        raise DiagramError(f"malformed PD body: {inner!r}")
    if not quads and unknots == 0:
        raise DiagramError("PD expression contains no crossings")
    crossings = [Crossing(+1, a, c, b, dd) if in_is_b else Crossing(-1, a, c, dd, b)
                 for (a, b, c, dd), in_is_b in zip(quads, _infer_over_directions(quads))]
    return make_diagram(crossings, unknots)


def serialize(d: LinkDiagram) -> str:
    """PD text for the diagram; inverse of :func:`parse_pd` up to relabeling."""
    d = normalize(d)
    parts = []
    for c in d.crossings:
        if c.sign > 0:
            a, b, cc, dd = c.under_in, c.over_in, c.under_out, c.over_out
        else:
            a, b, cc, dd = c.under_in, c.over_out, c.under_out, c.over_in
        parts.append(f"X[{a},{b},{cc},{dd}]")
    body = f"PD[{','.join(parts)}]" if parts else ""
    tail = " ".join(["U"] * d.unknot_count)
    return " ".join(x for x in (body, tail) if x)


# -- braid words ----------------------------------------------------------------


def parse_braid_word(word, strands: int, name: str | None = None) -> LinkDiagram:
    """Closure of a braid word; generator i crosses strand i over strand i+1.

    Strands are oriented in parallel, so generator signs are crossing signs.
    Strands never involved in a crossing close into split unknots.
    """
    if strands < 1:
        raise DiagramError("need at least one strand")
    if strands > MAX_STRANDS:
        raise ResourceBoundError(f"{strands} strands exceed the bound {MAX_STRANDS}")
    for g in word:
        if g == 0 or abs(g) > strands - 1:
            raise DiagramError(f"generator {g} out of range for {strands} strands")
    current = list(range(1, strands + 1))
    crossings = []
    for k, g in enumerate(word):
        i = abs(g) - 1
        left, right = current[i], current[i + 1]
        new_left, new_right = strands + 2 * k + 1, strands + 2 * k + 2
        if g > 0:
            # strand entering at position i passes over, landing at i+1
            crossings.append(Crossing(+1, right, new_left, left, new_right))
        else:
            crossings.append(Crossing(-1, left, new_right, right, new_left))
        current[i], current[i + 1] = new_left, new_right
    # close up: each position's last edge is its first edge.  A last edge is
    # either a fresh label or the untouched first edge, which is in no
    # crossing and closes into a split unknot.
    closing = dict(zip(current, range(1, strands + 1)))
    unknots = sum(fin == init for init, fin in enumerate(current, 1))
    closed = [Crossing(c.sign, *(closing.get(e, e) for e in c.edges())) for c in crossings]
    return make_diagram(closed, unknots, name)


def parse_braid(text: str) -> LinkDiagram:
    """Parse ``BR[strands; g1 g2 ...]`` braid-closure notation."""
    m = re.fullmatch(r"\s*BR\[\s*(\d+)\s*;([^\]]*)\]\s*", text)
    if not m:
        raise DiagramError(f"not a braid expression: {text!r}")
    digits = m.group(1).lstrip("0") or "0"
    if len(digits) > len(str(MAX_STRANDS)):  # before int(), which refuses 4,300 digits
        raise ResourceBoundError(f"a {len(digits)}-digit strand count exceeds the bound "
                                 f"{MAX_STRANDS}")
    strands = int(digits)
    body = m.group(2).replace(",", " ").split()
    try:
        word = [int(w) for w in body]
    except ValueError:
        raise DiagramError(f"malformed braid word: {m.group(2)!r}")
    return parse_braid_word(word, strands)


def parse_link(text: str) -> LinkDiagram:
    """Parse either PD or braid notation."""
    s = text.strip()
    if s.startswith("BR["):
        return parse_braid(s)
    return parse_pd(s)


def diagram_stats(d: LinkDiagram) -> tuple[int, int, int]:
    """(component count, writhe, crossing count)."""
    return d.stats()


# -- skein surgeries -------------------------------------------------------------


def switch_crossing(d: LinkDiagram, i: int) -> LinkDiagram:
    """Exchange over- and understrand at crossing i (sign flips)."""
    c = d.crossings[i]
    swapped = Crossing(-c.sign, c.over_in, c.over_out, c.under_in, c.under_out)
    return replace(d, crossings=d.crossings[:i] + (swapped,) + d.crossings[i + 1:])


def smooth_crossing(d: LinkDiagram, i: int) -> LinkDiagram:
    """Oriented smoothing: reconnect under-in to over-out and over-in to
    under-out, deleting the crossing."""
    c = d.crossings[i]
    rest = d.crossings[:i] + d.crossings[i + 1:]
    circles = d.unknot_count
    for keep, drop in ((c.under_in, c.over_out), (c.over_in, c.under_out)):
        if keep == drop:
            circles += 1  # merging an edge with itself closes a circle
            continue
        rest = tuple(Crossing(x.sign,
                              keep if x.under_in == drop else x.under_in,
                              keep if x.under_out == drop else x.under_out,
                              keep if x.over_in == drop else x.over_in,
                              keep if x.over_out == drop else x.over_out) for x in rest)
    return LinkDiagram(rest, circles, d.name)


def skein_resolve(site: SkeinSite) -> tuple[LinkDiagram, LinkDiagram]:
    """(crossing-switched diagram, oriented smoothing), both revalidated."""
    switched = normalize(switch_crossing(site.diagram, site.crossing_index))
    smoothed = normalize(smooth_crossing(site.diagram, site.crossing_index))
    validate(switched)
    validate(smoothed)
    return switched, smoothed


def simplify(d: LinkDiagram) -> LinkDiagram:
    """Remove first-Reidemeister kinks, collecting the circles they leave.

    A kink is a crossing whose outgoing edge on one strand is the incoming
    edge of the other.  Smoothing it closes that loop off as one circle and
    joins the rest of the strand, so each kink is removed by
    ``smooth_crossing`` less the one circle.  Preserves the underlying link;
    used to drive the skein recursion toward crossingless base cases.
    """
    while True:
        for i, c in enumerate(d.crossings):
            if c.under_out == c.over_in or c.over_out == c.under_in:
                smoothed = smooth_crossing(d, i)
                d = replace(smoothed, unknot_count=smoothed.unknot_count - 1)
                break
        else:
            return d


def first_non_descending(d: LinkDiagram) -> int | None:
    """Index of the first crossing met on its understrand, traversing
    components in label order; None when the diagram is descending."""
    cycles, step = d._walked
    met: set[int] = set()
    for cycle in cycles:
        for e in cycle:
            i, under, _ = step[e]
            if i not in met:
                if under:
                    return i
                met.add(i)
    return None
