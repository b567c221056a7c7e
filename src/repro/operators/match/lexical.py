"""Lexical matching: name-based similarity.

Combines three classic signals on tokenized identifiers:

* exact / prefix-abbreviation token matches ("Dept" vs "Department");
* trigram Dice coefficient on the raw names;
* normalized Levenshtein distance.

Tokenization splits camelCase, snake_case, digits and common
separators, so ``billingAddr`` and ``billing_address`` share tokens.
"""

from __future__ import annotations

import re
from functools import lru_cache

from repro.metamodel.schema import Schema
from repro.operators.match.base import Matcher, SimilarityMatrix, kept_row

_SPLITTER = re.compile(
    r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|\d+"
)


@lru_cache(maxsize=65536)
def tokenize(identifier: str) -> tuple[str, ...]:
    """Split an identifier into lowercase tokens.

    >>> tokenize("billingAddr")
    ('billing', 'addr')
    >>> tokenize("CUSTOMER_ID2")
    ('customer', 'id', '2')
    """
    return tuple(t.lower() for t in _SPLITTER.findall(identifier))


@lru_cache(maxsize=65536)
def _trigrams(lowered: str) -> frozenset[str]:
    """A lowered name's padded trigrams, built once per name: a Match
    scores each name against every name of the other schema."""
    padded = f"  {lowered} "
    return frozenset(padded[i : i + 3] for i in range(len(padded) - 2))


def _dice(a: set, b: set) -> float:
    if not a or not b:
        return 0.0
    return 2 * len(a & b) / (len(a) + len(b))


def _levenshtein(a: str, b: str) -> int:
    """Edit distance by the bit-parallel algorithm of Myers (JACM 1999),
    in Hyyrö's form for the distance between two whole strings: bit i
    of the vertical delta vectors ``vp``/``vn`` says whether
    D[i + 1][j] − D[i][j] is +1/−1 in the current column j, and the
    bottom row's horizontal delta moves the distance D[len(a)][j]."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    match_bits: dict[str, int] = {}
    bit = 1
    for ch in a:
        match_bits[ch] = match_bits.get(ch, 0) | bit
        bit <<= 1
    full = bit - 1
    last = bit >> 1
    vp, vn, distance = full, 0, len(a)
    for ch in b:
        eq = match_bits.get(ch, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        if hp & last:
            distance += 1
        elif hn & last:
            distance -= 1
        hp = (hp << 1) | 1
        hn <<= 1
        vp = (hn | ~(xv | hp)) & full
        vn = hp & xv & full
    return distance


@lru_cache(maxsize=65536)
def _token_pair_score(token_a: str, token_b: str) -> float:
    """Exact, prefix, abbreviation or scaled edit-distance similarity of
    two tokens."""
    if token_a == token_b:
        return 1.0
    if token_a.startswith(token_b) or token_b.startswith(token_a):
        return 0.85
    if _is_abbreviation(token_a, token_b) or _is_abbreviation(token_b, token_a):
        return 0.75
    distance = _levenshtein(token_a, token_b)
    longest = max(len(token_a), len(token_b))
    return max(0.0, 1.0 - distance / longest) * 0.7


def _token_similarity(a: tuple[str, ...], b: tuple[str, ...]) -> float:
    """Greedy best-pair token alignment with abbreviation awareness."""
    if not a or not b:
        return 0.0
    total = 0.0
    used: set[int] = set()
    for token_a in a:
        best, best_index = 0.0, -1
        for index, token_b in enumerate(b):
            if index in used:
                continue
            score = _token_pair_score(token_a, token_b)
            if score > best:
                best, best_index = score, index
        if best_index >= 0 and best > 0.3:
            used.add(best_index)
            total += best
    return total / max(len(a), len(b))


def _is_abbreviation(short: str, long: str) -> bool:
    """True when ``short`` plausibly abbreviates ``long``: either
    ``long`` with (some) vowels removed ("addr"/"address") or an
    in-order character selection sharing a 2-char prefix
    ("dept"/"department")."""
    if len(short) >= len(long) or len(short) < 2:
        return False
    if short[0] != long[0]:
        return False
    position = 0
    for ch in long:
        if position < len(short) and ch == short[position]:
            position += 1
        elif ch in "aeiou":
            continue
        else:
            break
    if position == len(short):
        return True
    if len(short) >= 3 and short[:2] == long[:2]:
        position = 0
        for ch in long:
            if position < len(short) and ch == short[position]:
                position += 1
        return position == len(short)
    return False


@lru_cache(maxsize=65536)
def name_similarity(a: str, b: str) -> float:
    """Overall lexical similarity of two element names in [0, 1].

    Memoized per process on the ordered pair, as
    :func:`_token_pair_score` is on the token pair: Match over a
    repository rescores the same names again and again."""
    if a == b:
        return 1.0
    lower_a, lower_b = a.lower(), b.lower()
    if lower_a == lower_b:
        return 0.98
    tokens = _token_similarity(tokenize(a), tokenize(b))
    trigram = _dice(_trigrams(lower_a), _trigrams(lower_b))
    distance = _levenshtein(lower_a, lower_b)
    edit = max(0.0, 1.0 - distance / max(len(a), len(b)))
    return max(tokens, 0.5 * trigram + 0.5 * edit)


class LexicalMatcher(Matcher):
    """Name similarity on the final path segment (attribute or entity
    name), with a small bonus when the owning entities also match."""

    name = "lexical"

    def __init__(self, floor: float = 0.05):
        self.floor = floor

    def similarity(self, source: Schema, target: Schema) -> SimilarityMatrix:
        matrix = SimilarityMatrix(source, target)
        floor = self.floor
        t_entities = list(target.entities)
        entity_scores: dict[str, dict[str, float]] = {}
        for s_entity in source.entities:
            scores = [name_similarity(s_entity, t_entity) for t_entity in t_entities]
            entity_scores[s_entity] = dict(zip(t_entities, scores))
            matrix.install_row(s_entity, kept_row(t_entities, scores, floor))
        targets = [
            (t_path, *t_path.split(".", 1))
            for t_path in self.attribute_paths(target)
        ]
        t_paths = [t_path for t_path, _, _ in targets]
        # One list of name scores per distinct source attribute name, and
        # one of owner scores per source entity, aligned with ``targets``.
        name_rows: dict[str, list[float]] = {}
        owner_rows: dict[str, list[float]] = {}
        for s_path in self.attribute_paths(source):
            s_entity, s_attr = s_path.split(".", 1)
            names = name_rows.get(s_attr)
            if names is None:
                names = name_rows[s_attr] = [
                    name_similarity(s_attr, t_attr) for _, _, t_attr in targets
                ]
            owners = owner_rows.get(s_entity)
            if owners is None:
                scores = entity_scores.get(s_entity, {})
                owners = owner_rows[s_entity] = [
                    scores.get(t_entity, 0.0) for _, t_entity, _ in targets
                ]
            matrix.install_row(s_path, kept_row(t_paths, [
                0.85 * name_score + 0.15 * owner_score
                for name_score, owner_score in zip(names, owners)
            ], floor))
        return matrix
