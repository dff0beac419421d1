"""Location-code matching: tokenizer, code trie, and the batch find stage.

The find stage is the HLOC-style half of the hint pipeline: split every
PTR name into tokens, walk each token through a trie of the world's
location codes, and report at most one :class:`HintMatch` per name.

Matching semantics (the property tests pin these exactly):

* a hostname is split into dot-labels, each label into hyphen/underscore
  tokens, everything lowercased;
* a token ``t`` matches a code ``c`` iff ``t == c`` or ``t`` is ``c``
  followed by a pure digit tail (site numbering: ``fra03``);
* blacklisted tokens (:data:`~repro.world.hostnames.NOISE_VOCABULARY` by
  default) never match, and blacklisted codes are refused at insert time;
* among several candidate matches the *longest code* wins, ties broken by
  leftmost token position, then lexicographically smallest code — so the
  result is independent of insertion order and of token scan details.

:func:`find_hints` fans the scan out over
:func:`repro.exec.parallel_map`; worker-side observer capture keeps the
``hint-find`` event stream and ``hints.*`` counters byte-identical to a
serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.check.invariants import NULL_CHECKER
from repro.exec import parallel_map
from repro.obs import events
from repro.obs.observer import NULL_OBSERVER


def tokenize(hostname: str) -> List[str]:
    """The match tokens of a hostname: dot-labels split on ``-``/``_``,
    lowercased, empties dropped. Never raises, whatever the input."""
    if not hostname:
        return []
    tokens: List[str] = []
    for label in hostname.lower().split("."):
        for token in label.replace("_", "-").split("-"):
            if token:
                tokens.append(token)
    return tokens


class _Node:
    __slots__ = ("children", "code", "city_id")

    def __init__(self) -> None:
        self.children: Dict[str, _Node] = {}
        self.code: Optional[str] = None
        self.city_id: int = -1


class CodeTrie:
    """A character trie over location codes, with the digit-tail match rule."""

    def __init__(self, blacklist: Iterable[str] = ()) -> None:
        self._root = _Node()
        self._blacklist = frozenset(token.lower() for token in blacklist)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def blacklist(self) -> frozenset:
        """Tokens (and codes) this trie refuses to match."""
        return self._blacklist

    def insert(self, code: str, city_id: int) -> None:
        """Install one code.

        Raises:
            ValueError: for empty, non-lowercase-alphabetic, or
                blacklisted codes, and for duplicate codes mapping to a
                different city.
        """
        if not code or not code.isascii() or not code.isalpha() or not code.islower():
            raise ValueError(f"location codes must be lowercase letters: {code!r}")
        if code in self._blacklist:
            raise ValueError(f"blacklisted code: {code!r}")
        node = self._root
        for char in code:
            node = node.children.setdefault(char, _Node())
        if node.code is not None and node.city_id != city_id:
            raise ValueError(f"code {code!r} already maps to city {node.city_id}")
        if node.code is None:
            self._size += 1
        node.code = code
        node.city_id = city_id

    def match_token(self, token: str) -> Optional[Tuple[str, int]]:
        """The longest code this one token carries, or ``None``.

        A blacklisted token never matches. A non-matching walk simply
        falls off the trie — degenerate tokens (unicode, digits-only,
        empty) return ``None`` without raising.
        """
        if not token or token in self._blacklist:
            return None
        best: Optional[Tuple[str, int]] = None
        node = self._root
        for position, char in enumerate(token):
            node = node.children.get(char)
            if node is None:
                break
            if node.code is not None:
                tail = token[position + 1 :]
                if not tail or (tail.isascii() and tail.isdigit()):
                    best = (node.code, node.city_id)
        return best

    def find(self, hostname: Optional[str]) -> Optional[Tuple[str, int, int]]:
        """The best match in a hostname: ``(code, city_id, token_position)``.

        Longest code wins; ties break on leftmost token, then smallest
        code — a pure function of the *set* of installed codes and the
        name, independent of insertion and scan order.
        """
        if not hostname:
            return None
        best: Optional[Tuple[str, int, int]] = None
        for position, token in enumerate(tokenize(hostname)):
            found = self.match_token(token)
            if found is None:
                continue
            code, city_id = found
            candidate = (code, city_id, position)
            if best is None or (-len(code), position, code) < (
                -len(best[0]),
                best[2],
                best[0],
            ):
                best = candidate
        return best


@dataclass(frozen=True)
class HintMatch:
    """One location hint mined from one PTR name.

    Attributes:
        index: position of the name in the scanned sequence (for the
            experiment pipelines this is the target column).
        ip: the address the name reverse-resolves from.
        hostname: the PTR name the code was found in.
        code: the matched location code.
        city_id: the city the code belongs to.
    """

    index: int
    ip: str
    hostname: str
    code: str
    city_id: int


def _find_one(
    names: Sequence[Tuple[str, Optional[str]]],
    trie: CodeTrie,
    obs,
    index: int,
) -> Optional[HintMatch]:
    ip, hostname = names[index]
    found = trie.find(hostname)
    if obs.enabled:
        obs.count("hints.names_scanned")
        if found is not None:
            obs.count("hints.matches")
            obs.event(
                events.HINT_FIND,
                index=index,
                ip=ip,
                code=found[0],
                city=found[1],
            )
    if found is None:
        return None
    return HintMatch(
        index=index, ip=ip, hostname=hostname or "", code=found[0], city_id=found[1]
    )


def find_hints(
    names: Sequence[Tuple[str, Optional[str]]],
    trie: CodeTrie,
    obs=NULL_OBSERVER,
    checker=NULL_CHECKER,
    live=None,
) -> List[Optional[HintMatch]]:
    """Scan ``(ip, hostname)`` pairs for location hints, index-aligned.

    Entry ``i`` of the result is the :class:`HintMatch` for ``names[i]``
    or ``None`` (unnamed address, or no code found). Honours the
    ``REPRO_WORKERS`` knob through :func:`repro.exec.parallel_map`;
    worker-side event/metric capture makes a parallel scan byte-identical
    to a serial one, which the ``diff_hints`` selfcheck leg pins.
    """
    names = list(names)
    return parallel_map(
        partial(_find_one, names, trie, obs),
        range(len(names)),
        obs=obs,
        checker=checker,
        live=live,
    )
