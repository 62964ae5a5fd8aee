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
from bisect import insort
from operator import index as _index
from typing import NamedTuple

from .errors import DecodeError
from .goodpaths import LabelScheme
from .paths import (EncodingSymbol, EulerPath, HORIZONTAL, KIND_H_UNMARKED, KIND_MARKED,
                    KIND_V_UNMARKED, Step, VERTICAL, validate)


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
    marked = scheme._symbols[0]
    h, v = scheme._directions
    consumed = 0
    symbols: list[EncodingSymbol] = []
    append = symbols.append
    for direction, idx in path.steps:
        first, labeled, unmarked = h if direction == HORIZONTAL else v
        # Unmarked: the position is idx less the marked edges below it.
        if idx > labeled:
            below = labeled
        elif consumed & (bit := 1 << (first + idx - 1)):
            below = idx - 1
        else:
            consumed |= bit
            append(marked[first + idx])
            continue
        append(unmarked[idx - below + (consumed >> first & ((1 << below) - 1)).bit_count()])
    return tuple.__new__(EncodingSequence, (scheme.label_count - 2, tuple(symbols)))


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
    h, v = scheme._directions
    consumed = dx = 0
    trail = [(0, 0)]
    for direction, idx in path.steps:
        first, labeled, _ = h if direction == HORIZONTAL else v
        dx += direction == HORIZONTAL
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
    (_, h_labeled, _), (v_first, v_labeled, _) = scheme._directions
    h_steps, v_steps = scheme._steps[HORIZONTAL], scheme._steps[VERTICAL]
    h_used, v_used, consumed, labels = [], [], 0, scheme.label_count
    steps: list[Step] = []
    append = steps.append
    for kind, index in code.symbols:
        if kind == KIND_MARKED:
            a = _index(index)
            if not 1 <= a <= labels:
                raise DecodeError(f"symbol {len(steps) + 1}: no label s_{index} "
                                  f"at a level-{p + q} base")
            bit = 1 << (a - 1)
            if consumed & bit:
                raise DecodeError(f"symbol {len(steps) + 1}: label s_{index} "
                                  f"already consumed")
            consumed |= bit
            # At most three names per assignment: more would build a tuple per symbol.
            if a <= h_labeled:
                table, used, idx = h_steps, h_used, a
                x += 1
            else:
                table, used, idx = v_steps, v_used, a - v_first
                y += 1
            insort(used, idx)
        else:
            # encode's position, inverted: a bundle's unmarked edges are its c consumed
            # labeled edges, ascending in `used`, then every edge past the labeled ones.
            if kind == KIND_H_UNMARKED:
                table, used, labeled = h_steps, h_used, h_labeled
                size, x = y + 1, x + 1
            elif kind == KIND_V_UNMARKED:
                table, used, labeled = v_steps, v_used, v_labeled
                size, y = x + 1, y + 1
            else:
                raise DecodeError(f"symbol {len(steps) + 1}: unknown kind {kind!r}")
            c = len(used)
            if 1 <= index <= c:
                idx = used[_index(index) - 1]
            else:
                idx = labeled + _index(index) - c
                if not labeled < idx <= size:
                    horizontal = table is h_steps
                    raise DecodeError(
                        f"symbol {len(steps) + 1}: only {c + size - labeled} unmarked "
                        f"{'horizontal' if horizontal else 'vertical'} edges at "
                        f"{(x - 1, y) if horizontal else (x, y - 1)}, need position {index}")
        append(table[idx])
    return tuple.__new__(EulerPath, (scheme.base, tuple(steps)))


def transport(scheme_from: LabelScheme, scheme_to: LabelScheme,
              path: EulerPath) -> EulerPath:
    """decode(scheme_to, encode(scheme_from, path)): carry a path across
    two bases of equal level by matching encoding sequences.

    On good paths this preserves the endpoint and is a bijection between
    the two good-path sets whenever the endpoint satisfies
    i, j >= p+q+2 (same-base transport is the identity at any size).
    Decoding may fail (DecodeError) outside those conditions.
    """
    if scheme_from.label_count != scheme_to.label_count:
        raise ValueError(f"bases {tuple(scheme_from.base)} and "
                         f"{tuple(scheme_to.base)} have different levels")
    return decode(scheme_to, encode(scheme_from, path))


def format_code(code: EncodingSequence) -> str:
    """Serialize as 'n=<level>;s1,v1,h2,...' (nothing after the semicolon
    for an empty sequence)."""
    body = ",".join([f"{kind}{index}" for kind, index in code.symbols])
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
