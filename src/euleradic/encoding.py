"""Per-step path encoding and the good-path transport bijection.

Each step of a path is encoded by one symbol: s_a when the step traverses
a still-marked edge labeled s_a (labels as in goodpaths.LabelScheme),
otherwise h_a (resp. v_a) where a is the edge's 1-based position among
the unmarked horizontal (resp. vertical) edges of its bundle, in
ascending edge-index order.  Decoding replays a symbol sequence greedily
from any base of the same level; on good paths with a deep enough
endpoint (i, j >= p+q+2) this transports the good-path set of one base
bijectively onto that of another.
"""

from __future__ import annotations

import re
from operator import index as _index
from typing import NamedTuple

from .errors import DecodeError
from .goodpaths import LabelScheme, _require_base
from .paths import EulerPath, HORIZONTAL, Step, VERTICAL, validate

KIND_MARKED = "s"
KIND_H_UNMARKED = "h"
KIND_V_UNMARKED = "v"

_UNMARKED_KIND = {HORIZONTAL: KIND_H_UNMARKED, VERTICAL: KIND_V_UNMARKED}
_UNMARKED_DIRECTION = {kind: d for d, kind in _UNMARKED_KIND.items()}


class EncodingSymbol(NamedTuple):
    """One symbol: kind 's' (marked label index), 'h' or 'v' (1-based
    position among the unmarked edges of that direction)."""

    kind: str
    index: int


class EncodingSequence(NamedTuple):
    """A symbol sequence together with the base level n = p+q it was
    produced from.  s-symbols are pairwise distinct, with indices in
    [1, n+2] for decodable sequences."""

    base_level: int
    symbols: tuple[EncodingSymbol, ...]


def encode(scheme: LabelScheme, path: EulerPath) -> EncodingSequence:
    """Encode a path (any path, good or not) relative to the scheme whose
    base it starts at."""
    _require_base(scheme, path)
    validate(path)
    bundles = scheme.bundles
    consumed = 0
    symbols: list[EncodingSymbol] = []
    new = tuple.__new__     # a NamedTuple without its Python-level __new__
    for direction, idx in path.steps:
        first, labeled = bundles[direction]
        if idx <= labeled and not consumed >> (first + idx - 1) & 1:
            consumed |= 1 << (first + idx - 1)
            kind, index = KIND_MARKED, first + idx
        else:
            # Position among the unmarked edges: idx less the marked
            # (labeled, unconsumed) edges below it.
            below = min(labeled, idx - 1)
            kind = _UNMARKED_KIND[direction]
            index = idx - below + (consumed >> first & ((1 << below) - 1)).bit_count()
        symbols.append(new(EncodingSymbol, (kind, index)))
    return EncodingSequence(sum(scheme.base), tuple(symbols))


def unmarked_counts(scheme: LabelScheme, path: EulerPath, m: int) -> tuple[int, int]:
    """Counts of unmarked horizontal and vertical edges exiting the vertex
    reached after the first m steps.

    Along any path the pair obeys a fixed recursion: a marked step raises
    both counts by one; an unmarked horizontal step raises only the
    vertical count; an unmarked vertical step raises only the horizontal
    count.
    """
    if not 0 <= m <= len(path.steps):
        raise ValueError(f"step index {m} outside [0, {len(path.steps)}]")
    _require_base(scheme, path)
    validate(path)
    head = path.steps[:m]
    consumed = scheme.consumed(head)
    dx = [step.direction for step in head].count(HORIZONTAL)
    # A bundle's unmarked edges are its consumed labeled edges plus one
    # unlabeled edge per step taken in the other direction.  The vertical
    # labels are the mask's top bits.
    v_used = (consumed >> scheme.bundles[VERTICAL][0]).bit_count()
    return m - dx + consumed.bit_count() - v_used, dx + v_used


def decode(scheme: LabelScheme, code: EncodingSequence) -> EulerPath:
    """Reconstruct the unique path from scheme.base whose encoding is
    `code`.  Requires code.base_level = the base's level; raises
    DecodeError when some symbol matches no edge (the code is not in the
    image of any path from this base)."""
    p, q = scheme.base
    if code.base_level != p + q:
        raise ValueError(f"code was taken at level {code.base_level}, "
                         f"base {tuple(scheme.base)} has level {p + q}")
    x, y = scheme.base
    bundles = scheme.bundles
    consumed = 0
    steps: list[Step] = []
    new = tuple.__new__
    for pos, (kind, index) in enumerate(code.symbols, start=1):
        if kind == KIND_MARKED:
            if not 1 <= index <= p + q + 2:
                raise DecodeError(f"symbol {pos}: no label s_{index} at a level-"
                                  f"{p + q} base")
            if consumed >> (index - 1) & 1:
                raise DecodeError(f"symbol {pos}: label s_{index} already consumed")
            consumed |= 1 << (index - 1)
            direction = HORIZONTAL if index <= q + 1 else VERTICAL
            idx = index - bundles[direction][0]
        elif kind in _UNMARKED_DIRECTION:
            # encode's position, inverted: the unmarked edges of a bundle
            # are its c consumed labeled edges, then every edge past the
            # labeled ones.
            direction = _UNMARKED_DIRECTION[kind]
            first, labeled = bundles[direction]
            used = consumed >> first & ((1 << labeled) - 1)
            c = used.bit_count()
            if 1 <= index <= c:
                # The index-th consumed edge from edge 1: the index-th
                # lowest 1 bit of `used`, which has as many bits above it
                # as rsplit leaves in front of it.
                idx = used.bit_length() - len(f"{used:b}".rsplit("1", index)[0])
            else:
                idx = labeled + _index(index) - c
                size = y + 1 if direction == HORIZONTAL else x + 1
                if not labeled < idx <= size:
                    raise DecodeError(
                        f"symbol {pos}: only {c + size - labeled} unmarked "
                        f"{'horizontal' if direction == HORIZONTAL else 'vertical'} "
                        f"edges at {(x, y)}, need position {index}")
        else:
            raise DecodeError(f"symbol {pos}: unknown kind {kind!r}")
        steps.append(new(Step, (direction, idx)))
        if direction == HORIZONTAL:
            x += 1
        else:
            y += 1
    return EulerPath(scheme.base, tuple(steps))


def transport(scheme_from: LabelScheme, scheme_to: LabelScheme,
              path: EulerPath) -> EulerPath:
    """decode(scheme_to, encode(scheme_from, path)): carry a path across
    two bases of equal level by matching encoding sequences.

    On good paths this preserves the endpoint and is a bijection between
    the two good-path sets whenever the endpoint satisfies
    i, j >= p+q+2 (same-base transport is the identity at any size).
    Decoding may fail (DecodeError) outside those conditions.
    """
    n_from = scheme_from.base.x + scheme_from.base.y
    n_to = scheme_to.base.x + scheme_to.base.y
    if n_from != n_to:
        raise ValueError(f"bases {tuple(scheme_from.base)} and "
                         f"{tuple(scheme_to.base)} have different levels")
    return decode(scheme_to, encode(scheme_from, path))


def format_code(code: EncodingSequence) -> str:
    """Serialize as 'n=<level>;s1,v1,h2,...' (nothing after the semicolon
    for an empty sequence)."""
    body = ",".join(f"{s.kind}{s.index}" for s in code.symbols)
    return f"n={code.base_level};{body}"


_CODE_RE = re.compile(r"n=(0|[1-9][0-9]*);(.*)", re.DOTALL)
_SYMBOL_RE = re.compile(r"([shv])([1-9][0-9]*)")


def parse_code(text: str) -> EncodingSequence:
    """Inverse of format_code; raises ValueError on malformed input or on
    repeated s-symbols."""
    m = _CODE_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"malformed code text {text!r}; expected "
                         f"'n=<level>;s1,v1,...'")
    level = int(m.group(1))
    body = m.group(2)
    symbols: list[EncodingSymbol] = []
    seen_s: set[int] = set()
    if body:
        for token in body.split(","):
            sm = _SYMBOL_RE.fullmatch(token.strip())
            if not sm:
                raise ValueError(f"malformed symbol token {token!r} in {text!r}")
            kind, index = sm.group(1), int(sm.group(2))
            if kind == KIND_MARKED:
                if index in seen_s:
                    raise ValueError(f"repeated marked symbol s{index} in {text!r}")
                seen_s.add(index)
            symbols.append(EncodingSymbol(kind, index))
    return EncodingSequence(level, tuple(symbols))
