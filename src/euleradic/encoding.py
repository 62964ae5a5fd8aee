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
from .goodpaths import LabelScheme
from .paths import EulerPath, HORIZONTAL, Step, VERTICAL, validate

KIND_MARKED = "s"
KIND_H_UNMARKED = "h"
KIND_V_UNMARKED = "v"


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
    validate(path, scheme.base)
    return _encode(scheme, path)


def _encode(scheme: LabelScheme, path: EulerPath) -> EncodingSequence:
    # encode of a path already known to be valid and to start at the base.
    h = (*scheme.bundles[HORIZONTAL], KIND_H_UNMARKED)
    v = (*scheme.bundles[VERTICAL], KIND_V_UNMARKED)
    consumed = 0
    symbols: list[EncodingSymbol] = []
    new = tuple.__new__     # a NamedTuple without its Python-level __new__
    for direction, idx in path.steps:
        first, labeled, kind = h if direction == HORIZONTAL else v
        # Unmarked: the position is idx less the marked edges below it.
        if idx > labeled:
            below = labeled
        elif consumed >> (first + idx - 1) & 1:
            below = idx - 1
        else:
            consumed |= 1 << (first + idx - 1)
            symbols.append(new(EncodingSymbol, (KIND_MARKED, first + idx)))
            continue
        index = idx - below + (consumed >> first & ((1 << below) - 1)).bit_count()
        symbols.append(new(EncodingSymbol, (kind, index)))
    return new(EncodingSequence, (sum(scheme.base), tuple(symbols)))


def unmarked_trail(scheme: LabelScheme, path: EulerPath) -> list[tuple[int, int]]:
    """Counts of unmarked horizontal and vertical edges exiting the vertex
    reached after the first m steps, for m = 0, 1, ..., len(path.steps),
    from one checked pass over the path.

    Along any path the pair obeys a fixed recursion: a marked step raises
    both counts by one; an unmarked horizontal step raises only the
    vertical count; an unmarked vertical step raises only the horizontal
    count.
    """
    validate(path, scheme.base)
    h, v = (*scheme.bundles[HORIZONTAL], 1), (*scheme.bundles[VERTICAL], 0)
    consumed = dx = 0
    trail = [(0, 0)]
    for direction, idx in path.steps:
        first, labeled, horizontal = h if direction == HORIZONTAL else v
        dx += horizontal
        if idx <= labeled:
            consumed |= 1 << (first + idx - 1)
        # A bundle's unmarked edges: its consumed labeled ones, plus one
        # unlabeled edge per step taken in the other direction.
        v_used = (consumed >> v[0]).bit_count()    # the mask's top bits
        trail.append((len(trail) - dx + consumed.bit_count() - v_used, dx + v_used))
    return trail


def unmarked_counts(scheme: LabelScheme, path: EulerPath, m: int) -> tuple[int, int]:
    """Entry m of unmarked_trail(scheme, path), for 0 <= m <= len(path.steps)."""
    if not 0 <= m <= len(path.steps):
        raise ValueError(f"step index {m} outside [0, {len(path.steps)}]")
    return unmarked_trail(scheme, path)[m]


def decode(scheme: LabelScheme, code: EncodingSequence) -> EulerPath:
    """Reconstruct the unique path from scheme.base whose encoding is
    `code`.  Requires code.base_level = the base's level; raises
    DecodeError when some symbol matches no edge (the code is not in the
    image of any path from this base)."""
    p, q = x, y = scheme.base
    if code.base_level != p + q:
        raise ValueError(f"code was taken at level {code.base_level}, "
                         f"base {tuple(scheme.base)} has level {p + q}")
    bundles = scheme.bundles
    (_, h_labeled), (v_first, v_labeled) = bundles[HORIZONTAL], bundles[VERTICAL]
    h_mask, consumed = (1 << h_labeled) - 1, 0
    steps: list[Step] = []
    new = tuple.__new__
    for kind, index in code.symbols:
        if kind == KIND_MARKED:
            a = _index(index)
            if not 1 <= a <= p + q + 2:
                raise DecodeError(f"symbol {len(steps) + 1}: no label s_{index} "
                                  f"at a level-{p + q} base")
            if consumed >> (a - 1) & 1:
                raise DecodeError(f"symbol {len(steps) + 1}: label s_{index} "
                                  f"already consumed")
            consumed |= 1 << (a - 1)
            if a <= h_labeled:
                direction, idx, x = HORIZONTAL, a, x + 1
            else:
                direction, idx, y = VERTICAL, a - v_first, y + 1
        else:
            # encode's position, inverted: a bundle's unmarked edges are its
            # c consumed labeled edges, then every edge past the labeled ones.
            if kind == KIND_H_UNMARKED:
                direction, labeled, size, x = HORIZONTAL, h_labeled, y + 1, x + 1
                used = consumed & h_mask
            elif kind == KIND_V_UNMARKED:
                direction, labeled, size, y = VERTICAL, v_labeled, x + 1, y + 1
                used = consumed >> v_first     # the mask's top bits
            else:
                raise DecodeError(f"symbol {len(steps) + 1}: unknown kind {kind!r}")
            c = used.bit_count()
            if 1 <= index <= c:
                # The index-th consumed edge from edge 1: the index-th lowest
                # 1 bit of `used`, which has as many bits above it as rsplit
                # leaves in front of it.
                idx = used.bit_length() - len(f"{used:b}".rsplit("1", index)[0])
            else:
                idx = labeled + _index(index) - c
                if not labeled < idx <= size:
                    at = (x - 1, y) if direction == HORIZONTAL else (x, y - 1)
                    raise DecodeError(
                        f"symbol {len(steps) + 1}: only {c + size - labeled} unmarked "
                        f"{'horizontal' if direction == HORIZONTAL else 'vertical'} "
                        f"edges at {at}, need position {index}")
        steps.append(new(Step, (direction, idx)))
    return new(EulerPath, (scheme.base, tuple(steps)))


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
