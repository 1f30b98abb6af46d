"""Oriented link diagrams: PD and braid-word input, crossing surgeries.

A diagram is an abstract oriented 4-valent graph: each crossing records the
edges of its understrand (in, out) and overstrand (in, out) plus a sign, and
crossingless split unknot components are counted separately.  Every edge
label occurs exactly once as the head of a strand (an ``*_in`` slot) and
once as a tail (an ``*_out`` slot); following tails to heads partitions the
edges into closed oriented components.

PD input ``X[a,b,c,d]`` lists the four edges counterclockwise starting at
the incoming understrand, so the understrand runs a -> c.  The overstrand
direction is inferred globally (each edge needs one head and one tail);
for components that never pass under, where both directions are consistent,
the successor-label heuristic used by standard knot tables decides.  The
crossing is positive exactly when the overstrand enters at slot b.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace


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
        return len(_component_cycles(self.crossings)) + self.unknot_count

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


def _head_tail_maps(crossings) -> tuple[dict[int, tuple[int, str]], dict[int, tuple[int, str]]]:
    """Edge -> (crossing index, role) maps; validates the one-head-one-tail rule."""
    heads: dict[int, tuple[int, str]] = {}
    tails: dict[int, tuple[int, str]] = {}
    for i, c in enumerate(crossings):
        for e in c.edges():
            if not isinstance(e, int) or e < 1:
                raise DiagramError(f"edge labels must be positive integers, got {e!r}")
        for e, role, book in ((c.under_in, "under", heads), (c.over_in, "over", heads),
                              (c.under_out, "under", tails), (c.over_out, "over", tails)):
            if e in book:
                kind = "head" if book is heads else "tail"
                raise DiagramError(f"edge {e} has two {kind}s; orientation is inconsistent")
            book[e] = (i, role)
    if set(heads) != set(tails):
        missing = set(heads) ^ set(tails)
        raise DiagramError(f"edges {sorted(missing)} do not occur exactly twice")
    return heads, tails


def validate(d: LinkDiagram) -> None:
    if d.unknot_count < 0:
        raise DiagramError("negative unknot count")
    for c in d.crossings:
        if c.sign not in (1, -1):
            raise DiagramError(f"crossing sign must be +1 or -1, got {c.sign}")
    _head_tail_maps(d.crossings)


def _successor(crossings, heads) -> dict[int, int]:
    """Edge -> next edge along the strand orientation."""
    nxt = {}
    for e, (i, role) in heads.items():
        c = crossings[i]
        nxt[e] = c.under_out if role == "under" else c.over_out
    return nxt


def _component_cycles(crossings) -> list[list[int]]:
    """Edge cycles of the diagram, ordered by smallest edge label."""
    if not crossings:
        return []
    heads, _ = _head_tail_maps(crossings)
    nxt = _successor(crossings, heads)
    seen: set[int] = set()
    cycles = []
    for start in sorted(nxt):
        if start in seen:
            continue
        cyc = []
        e = start
        while e not in seen:
            seen.add(e)
            cyc.append(e)
            e = nxt[e]
        cycles.append(cyc)
    return cycles


def normalize(d: LinkDiagram) -> LinkDiagram:
    """Relabel edges 1..2c in traversal order; crossing order is preserved."""
    if not d.crossings:
        return LinkDiagram((), d.unknot_count, d.name)
    relabel: dict[int, int] = {}
    for cyc in _component_cycles(d.crossings):
        for e in cyc:
            relabel[e] = len(relabel) + 1
    newcs = [Crossing(c.sign, relabel[c.under_in], relabel[c.under_out],
                      relabel[c.over_in], relabel[c.over_out]) for c in d.crossings]
    return LinkDiagram(tuple(newcs), d.unknot_count, d.name)


def make_diagram(crossings, unknot_count: int = 0, name: str | None = None) -> LinkDiagram:
    d = LinkDiagram(tuple(crossings), unknot_count, name)
    validate(d)
    if not d.crossings and d.unknot_count == 0:
        raise DiagramError("empty diagram")
    return normalize(d)


def canonical_key(d: LinkDiagram):
    """Hashable encoding of the diagram; used as the skein memo key.

    The key describes the diagram completely, so equal keys mean the same
    diagram up to edge labels and crossing order.  It is stable under reordering the crossings and under any
    order-preserving relabeling of the edges, because ``normalize`` starts
    each component at its smallest label.  It is not canonical: a relabeling
    that moves a component's smallest label to another edge, such as a
    cyclic shift of the labels of a T(3,4) closure, changes the key.
    """
    nd = normalize(d)
    return (tuple(sorted((c.sign,) + c.edges() for c in nd.crossings)), nd.unknot_count)


# -- PD notation ---------------------------------------------------------------

_PD_X = re.compile(r"X\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")


def _infer_over_directions(quads: list[tuple[int, int, int, int]]) -> list[bool]:
    """For each crossing decide whether the overstrand enters at slot b.

    Constraint propagation from the fixed understrand roles, then the
    successor-label heuristic for any crossings that remain free (components
    that never pass under).  Returns a list of ``in_is_b`` flags.
    """
    occurrences: dict[int, list[tuple[str, int]]] = {}
    for i, (a, b, c, dd) in enumerate(quads):
        occurrences.setdefault(a, []).append(("uin", i))
        occurrences.setdefault(c, []).append(("uout", i))
        occurrences.setdefault(b, []).append(("b", i))
        occurrences.setdefault(dd, []).append(("d", i))
    for e, occ in occurrences.items():
        if len(occ) != 2:
            raise DiagramError(f"edge label {e} occurs {len(occ)} time(s), expected 2")

    decided: dict[int, bool] = {}  # crossing -> in_is_b
    # role of an over slot given a decision: slot b is a head iff in_is_b
    def slot_is_head(slot: str, in_is_b: bool) -> bool:
        return (slot == "b") == in_is_b

    changed = True
    while True:
        while changed:
            changed = False
            for e, occ in occurrences.items():
                roles: list[bool | None] = []
                for slot, i in occ:
                    if slot == "uin":
                        roles.append(True)
                    elif slot == "uout":
                        roles.append(False)
                    elif i in decided:
                        roles.append(slot_is_head(slot, decided[i]))
                    else:
                        roles.append(None)
                if roles[0] is not None and roles[1] is not None:
                    if roles[0] == roles[1]:
                        raise DiagramError(
                            f"edge {e} cannot be oriented consistently")
                    continue
                for k in (0, 1):
                    if roles[k] is None and roles[1 - k] is not None:
                        slot, i = occ[k]
                        want_head = not roles[1 - k]
                        value = want_head if slot == "b" else not want_head
                        if i in decided:
                            if decided[i] != value:
                                raise DiagramError(
                                    f"edge {e} cannot be oriented consistently")
                        else:
                            decided[i] = value
                            changed = True
        free = [i for i in range(len(quads)) if i not in decided]
        if not free:
            break
        # successor heuristic on the lowest-index free crossing
        i = free[0]
        _, b, _, dd = quads[i]
        if dd == b + 1:
            decided[i] = True   # over runs b -> d
        elif b == dd + 1:
            decided[i] = False  # over runs d -> b
        else:
            decided[i] = b > dd  # wraparound: orient from larger to smaller
        changed = True
    return [decided[i] for i in range(len(quads))]


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
    in_is_b = _infer_over_directions(quads)
    crossings = []
    for (a, b, c, dd), ib in zip(quads, in_is_b):
        if ib:
            crossings.append(Crossing(+1, a, c, b, dd))
        else:
            crossings.append(Crossing(-1, a, c, dd, b))
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
    fresh = strands
    current = list(range(1, strands + 1))
    initial = list(current)
    crossings = []
    for g in word:
        i = abs(g) - 1
        left, right = current[i], current[i + 1]
        fresh += 1
        new_left = fresh
        fresh += 1
        new_right = fresh
        if g > 0:
            # strand entering at position i passes over, landing at i+1
            crossings.append(Crossing(+1, right, new_left, left, new_right))
        else:
            crossings.append(Crossing(-1, left, new_right, right, new_left))
        current[i], current[i + 1] = new_left, new_right
    # close up: final edge at each position is the same edge as the initial one
    ident = {}
    for init, fin in zip(initial, current):
        if fin != init:
            ident[fin] = init
    unknots = 0
    used = set()
    for c in crossings:
        used.update(c.edges())
    def resolve(e: int) -> int:
        while e in ident:
            e = ident[e]
        return e
    closed = [Crossing(c.sign, resolve(c.under_in), resolve(c.under_out),
                       resolve(c.over_in), resolve(c.over_out)) for c in crossings]
    for init, fin in zip(initial, current):
        if init == fin and init not in used:
            unknots += 1
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


def _merge_edges(crossings, keep: int, drop: int):
    if keep == drop:
        return crossings, True  # merging an edge with itself closes a circle
    out = []
    for c in crossings:
        out.append(Crossing(c.sign,
                            keep if c.under_in == drop else c.under_in,
                            keep if c.under_out == drop else c.under_out,
                            keep if c.over_in == drop else c.over_in,
                            keep if c.over_out == drop else c.over_out))
    return out, False


def smooth_crossing(d: LinkDiagram, i: int) -> LinkDiagram:
    """Oriented smoothing: reconnect under-in to over-out and over-in to
    under-out, deleting the crossing."""
    c = d.crossings[i]
    rest = list(d.crossings[:i] + d.crossings[i + 1:])
    circles = 0
    rest, closed = _merge_edges(rest, c.under_in, c.over_out)
    if closed:
        circles += 1
    rest, closed = _merge_edges(rest, c.over_in, c.under_out)
    if closed:
        circles += 1
    return LinkDiagram(tuple(rest), d.unknot_count + circles, d.name)


def skein_resolve(site: SkeinSite) -> tuple[LinkDiagram, LinkDiagram]:
    """(crossing-switched diagram, oriented smoothing), both revalidated."""
    switched = normalize(switch_crossing(site.diagram, site.crossing_index))
    smoothed = normalize(smooth_crossing(site.diagram, site.crossing_index))
    validate(switched)
    validate(smoothed)
    return switched, smoothed


def simplify(d: LinkDiagram) -> LinkDiagram:
    """Remove first-Reidemeister kinks and collect crossingless circles.

    Preserves the underlying link; used to drive the skein recursion toward
    crossingless base cases.
    """
    crossings = list(d.crossings)
    circles = d.unknot_count
    changed = True
    while changed:
        changed = False
        for i, c in enumerate(crossings):
            loop_a = c.under_out == c.over_in
            loop_b = c.over_out == c.under_in
            if loop_a and loop_b:
                del crossings[i]
                circles += 1
                changed = True
                break
            if loop_a:
                del crossings[i]
                crossings, closed = _merge_edges(crossings, c.under_in, c.over_out)
                circles += 1 if closed else 0
                changed = True
                break
            if loop_b:
                del crossings[i]
                crossings, closed = _merge_edges(crossings, c.over_in, c.under_out)
                circles += 1 if closed else 0
                changed = True
                break
    return LinkDiagram(tuple(crossings), circles, d.name)


def first_non_descending(d: LinkDiagram) -> int | None:
    """Index of the first crossing met on its understrand, traversing
    components in label order; None when the diagram is descending."""
    if not d.crossings:
        return None
    heads, _ = _head_tail_maps(d.crossings)
    nxt = _successor(d.crossings, heads)
    seen_edges: set[int] = set()
    visited_crossings: set[int] = set()
    for start in sorted(nxt):
        if start in seen_edges:
            continue
        e = start
        while e not in seen_edges:
            seen_edges.add(e)
            i, role = heads[e]
            if i not in visited_crossings:
                if role == "under":
                    return i
                visited_crossings.add(i)
            e = nxt[e]
    return None
