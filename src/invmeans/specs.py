"""Textual mean expressions: parse strings into means and pairs.

Grammar (colon-separated, recursive operands parenthesized)::

    expr   := atom
            | "power:" num
            | "stolarsky:" num ":" num
            | "proj:" cone
            | "mt:" mean ":" num
            | "nt:" mean ":" mean ":" mean ":" num
            | "pair:" mean ":" mean ":" mean ":" num
    mean   := expr that is not a pair; parenthesize when it contains ":"
    atom   := arithmetic | geometric | harmonic | logarithmic
            | min | max | proj1 | proj2
    cone   := full | empty | lower | upper | mixed

The headed productions are the ``_HEADS`` table, row for row: each head
maps to the readers of its arguments and the constructor they feed.
"pair:..." produces a MeanPair, everything else a Mean.  Parse errors
carry the character position of the offending token; range violations
from the underlying constructors (e.g. stolarsky:1:1) surface verbatim.

Each (expression, offset) is parsed once: ``_parse`` keeps the latest
``_PARSED`` results in an LRU cache, so a spec parsed again, and a
parenthesized operand at the same offset of another spec, such as
``(stolarsky:3:1)`` in ``pair:(stolarsky:3:1):...``, return the same
object.  Parsed means and pairs are therefore shared: they are frozen,
and nothing may write to them (the constructors, which the parser
calls, stay uncached and build a fresh object on every call).  A raise
is never cached, so a malformed spec raises with the same message and
position on every call.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .complement import MeanPair, general_base, general_pair, self_complement_base
from .errors import InvalidMeanSpec
from .means import CLASSICAL_NAMES, Mean, classical, power_mean, stolarsky
from .projective import BUILTIN_CONE_NAMES, ConeSet, builtin_cone, projective_mean

__all__ = ["parse_mean_spec", "parse_mean", "parse_pair"]


def _split(s: str, offset: int) -> list[tuple[str, int]]:
    """Strip the parentheses enclosing ``s``, split it on top-level colons.

    ``s`` is stripped while its first "(" closes at its last character.
    Each part keeps its absolute offset.  An unbalanced ")" raises where
    the walk reaches it, an unbalanced "(" at the first "(" of ``s``.
    """
    while True:
        parts, depth, start, first_close = [], 0, 0, None
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise InvalidMeanSpec("unbalanced ')'", offset + i)
                if depth == 0 and first_close is None:
                    first_close = i
            elif ch == ":" and depth == 0:
                parts.append((s[start:i], offset + start))
                start = i + 1
        if depth:
            raise InvalidMeanSpec("unbalanced '('", offset + s.index("("))
        if not (s.startswith("(") and first_close == len(s) - 1):
            return parts + [(s[start:], offset + start)]
        s, offset = s[1:-1], offset + 1


def _number(token: str, pos: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise InvalidMeanSpec(f"expected a number, got {token!r}", pos) from None
    if not math.isfinite(value):
        raise InvalidMeanSpec(f"expected a finite number, got {token!r}", pos)
    return value


def _mean(token: str, pos: int) -> Mean:
    result = _parse(token, pos)
    if isinstance(result, MeanPair):
        raise InvalidMeanSpec("a pair expression cannot be used as a mean", pos)
    return result


def _cone(token: str, pos: int) -> ConeSet:
    if token not in BUILTIN_CONE_NAMES:
        raise InvalidMeanSpec(f"unknown cone name {token!r}", pos)
    return builtin_cone(token)


# head -> (argument readers, constructor)
_HEADS = {
    "power": ((_number,), power_mean),
    "stolarsky": ((_number, _number), stolarsky),
    "proj": ((_cone,), projective_mean),
    "mt": ((_mean, _number), self_complement_base),
    "nt": ((_mean, _mean, _mean, _number), general_base),
    "pair": ((_mean, _mean, _mean, _number), general_pair),
}


# the size of re's pattern cache; repeated specs are mostly parsed back
# to back (a sweep parses each pair's spec for its K, L and invariance
# rows), so their hits do not depend on the bound
_PARSED = 512


@lru_cache(maxsize=_PARSED)
def _parse(s: str, offset: int) -> Mean | MeanPair:
    (head, pos), *args = _split(s, offset)
    if not args:
        if not head:
            raise InvalidMeanSpec("empty mean specification", pos)
        if head in CLASSICAL_NAMES:
            return classical(head)
        raise InvalidMeanSpec(f"unknown mean identifier {head!r}", pos)
    if head not in _HEADS:
        raise InvalidMeanSpec(f"unknown constructor {head!r}", pos)
    readers, build = _HEADS[head]
    if len(args) != len(readers):
        plural = "argument" if len(readers) == 1 else "arguments"
        raise InvalidMeanSpec(
            f"{head!r} expects {len(readers)} {plural}, got {len(args)}", pos
        )
    # read left to right, so the first bad argument raises first
    return build(*(read(*arg) for read, arg in zip(readers, args)))


def parse_mean_spec(s: str) -> Mean | MeanPair:
    """Parse a textual expression into a Mean or MeanPair."""
    if not isinstance(s, str):
        raise InvalidMeanSpec("mean specification must be a string")
    return _parse(s, 0)


def parse_mean(s: str) -> Mean:
    """Parse an expression that must denote a single mean."""
    result = parse_mean_spec(s)
    if isinstance(result, MeanPair):
        raise InvalidMeanSpec(f"{s!r} specifies a pair, expected a single mean")
    return result


def parse_pair(s: str) -> MeanPair:
    """Parse an expression that must denote a pair (head "pair:")."""
    result = parse_mean_spec(s)
    if not isinstance(result, MeanPair):
        raise InvalidMeanSpec(f"{s!r} specifies a single mean, expected pair:...")
    return result
