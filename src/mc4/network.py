"""Constraint networks over the MC-4 relations.

A network has a finite set of named vertices (each standing for a spatial
region) and one MC-4 relation per unordered vertex pair, constraining the
congruence relationship of the two regions.  Unconstrained pairs carry ALL,
every vertex relates to itself by CG, and the two orientations of a pair
always hold converse labels, so the whole state is a dense n-by-n matrix of
relation codes.

The text format, one declaration per line with ``#`` starting a comment:

    # vertices first, then constraints
    nodes: a b c
    a b : CG|CGPP
    b c : CNO

Repeated declarations for the same pair intersect, so a contradictory file
stores NONE on the edge rather than failing at parse time.  A self-loop
``a a : R`` is satisfiable only if CG is in R (in which case it says
nothing); the parser rejects self-loops without CG, while the programmatic
``add_constraint`` intersects the diagonal cell like any other, leaving
NONE there.  Every contradiction is thus a NONE label in the matrix.

``parse_network`` reads the lines up to ``nodes:`` one at a time, then
the rest a chunk of lines at a time, by one rule: in bulk when the chunk
is in the form ``serialize_network`` writes (ASCII, no byte below ``' '``
but line feed, and every line ``NAME NAME : RELATION`` with spaces between
the tokens and none between the last and the line feed, two distinct
declared vertices and a canonical spelling), and otherwise by the grammar,
one line at a time.
The bulk read resolves names of up to 31 bytes and spellings by their
bytes, in hash tables, and makes no Python object per token.  Its errors,
their messages, tokens and line numbers are those of a line-by-line
reading of the same text.

``path_consistency`` is the workhorse approximation: it refines every label
against all two-step paths until a fixpoint, detecting many inconsistencies
cheaply, though not all — deciding consistency exactly is the job of
mc4.solvers.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, repeat
from typing import Iterable, Sequence

import numpy as np

from .algebra import (
    ParseError,
    Relation,
    RelationSet,
    _COMPOSE_CODE,
    _CONVERSE_CODE,
    _POPCOUNT,
    _RELATIONS,
    format_relation,
    parse_relation,
)

_COMPOSE_ARR = np.array(_COMPOSE_CODE, dtype=np.uint8)
_CONVERSE_ARR = np.array(_CONVERSE_CODE, dtype=np.uint8)
_POPCOUNT_ARR = np.array(_POPCOUNT, dtype=np.uint8)
# Right-hand side of a serialized constraint line, by relation code.
_FORMAT = np.array([" : " + format_relation(r) for r in _RELATIONS], dtype=object)
_SPELLINGS = {format_relation(r): int(r) for r in _RELATIONS}
# Entries kept by each per-process table keyed by a network's vertex names or
# vertex count: enough for a few networks used in turn, and a bound on the
# memory held (an n=2000 upper triangle is 4 MB).
_TABLES = 4


class ConstraintNetwork:
    """Dense matrix of MC-4 labels over named vertices.

    The matrix invariants (CG or NONE diagonal, converse-coherent orientations,
    ALL for unconstrained pairs) are maintained by every mutator, so any
    network reachable through the public API is well-formed.
    """

    __slots__ = ("names", "_index", "_m")

    def __init__(self, names: Sequence[str]):
        self.names = tuple(names)
        n = len(self.names)
        self._index = dict(zip(self.names, range(n)))
        if len(self._index) != n:
            raise ValueError("duplicate vertex name")
        self._m = np.full((n, n), 15, dtype=np.uint8)
        self._m.reshape(-1)[:: n + 1] = 1  # CG on the diagonal

    def __len__(self) -> int:
        return len(self.names)

    def _vertex(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown vertex {name!r}") from None

    @property
    def self_contradiction(self) -> str | None:
        """First vertex by index whose self-loop excluded CG: its diagonal is NONE."""
        bad = np.flatnonzero(self._m.diagonal() == 0)
        return self.names[bad[0]] if bad.size else None

    def add_constraint(self, u: str, v: str, r: Relation) -> None:
        """Constrain the pair (u, v) by r, intersecting with any prior label.

        A self-loop intersects the diagonal label CG: it is a no-op when CG
        is in r and otherwise leaves NONE (CG always holds reflexively, so
        no assignment could satisfy it).  CG and NONE are their own
        converses, so both orientations are the one diagonal cell.
        """
        i = self._vertex(u)
        j = self._vertex(v)
        code = int(self._m[i, j]) & int(r)
        self._m[i, j] = code
        self._m[j, i] = _CONVERSE_CODE[code]

    def label(self, u: str, v: str) -> Relation:
        """Current label on (u, v); ALL when unconstrained, CG or NONE when u == v."""
        return _RELATIONS[int(self._m[self._vertex(u), self._vertex(v)])]

    def copy(self) -> "ConstraintNetwork":
        dup = ConstraintNetwork.__new__(ConstraintNetwork)
        dup.names = self.names
        dup._index = self._index
        dup._m = self._m.copy()
        return dup

    def to_array(self) -> np.ndarray:
        """Copy of the label matrix as relation codes (uint8)."""
        return self._m.copy()

    def is_atomic(self) -> bool:
        """True iff every off-diagonal label is a single base case."""
        off = ~np.eye(len(self), dtype=bool)
        return bool(np.all(_POPCOUNT_ARR[self._m[off]] == 1))

    def relation_profile(self) -> RelationSet:
        """Set of labels appearing on the unordered pairs of the network."""
        # The explicit dtype keeps numpy 1's value-based casting from
        # shifting in uint8, the codes' type.
        bits = np.left_shift(1, self._m[_upper_triangle(len(self))], dtype=np.uint16)
        return RelationSet(int(np.bitwise_or.reduce(bits)))


@lru_cache(maxsize=_TABLES)
def _upper_triangle(n: int) -> np.ndarray:
    """Boolean n-by-n mask of the pairs (i, j) with i < j.

    Built once per n, for the last _TABLES values of n a process asked for,
    and read-only, as every caller with that n shares it.
    """
    k = np.arange(n, dtype=np.min_scalar_type(n))  # narrow indices compare faster
    upper = k[:, None] < k
    upper.setflags(write=False)
    return upper


def path_consistency(net: ConstraintNetwork) -> tuple[bool, ConstraintNetwork]:
    """Refine every label against all two-step paths until a fixpoint.

    Returns (ok, refined) where refined is a new network holding the
    fixpoint labels; ok is False when some label was refined to NONE (or
    one already was, a contradicted self-loop's diagonal included), in
    which case the network is certainly inconsistent.
    ok True means no local contradiction was found, which does not by
    itself guarantee consistency.

    The fixpoint is reached by _propagate from every vertex as a pivot; it
    is unique, so the labels are those of any other propagation order.  On
    a contradiction refined holds the labels after the first sweep that
    left a NONE (the input's, when it held one).
    """
    refined = net.copy()
    return _propagate(refined._m, range(len(net))), refined


def _propagate(m: np.ndarray, pivots: Sequence[int]) -> bool:
    """Refine the label matrix m in place to its path-consistency fixpoint.

    m must already be closed under every pivot outside pivots: for such a
    k, every label (i, j) lies within label(i, k) composed with label(k, j).
    Each round sweeps the pivots, and the next round's pivots are the ends
    of every pair the sweep narrowed.  This is exact: the constraint
    through a pivot k can break only when a pair touching k narrows, and
    every such pair puts k back into the pivot set.  The fixpoint is
    reached once a sweep narrows nothing.

    Returns False when m holds a NONE, either on input or at the end of a
    sweep, and stops there; otherwise returns True.

    The next round's pivots are handed on as a list of Python ints: the
    sweep indexes m[:, k] and m[k] with each, and an int index costs less
    than a numpy scalar one, which counts on small networks, where a round
    sweeps a handful of pivots over a matrix of a few hundred cells.  For
    the same reason the NONE test counts nonzero cells and the pivots come
    from np.logical_or.reduce: m.all() and .any(axis=0) pass through
    numpy's Python-level reduction wrappers, several times slower on a
    matrix of 400 cells.
    """
    while np.count_nonzero(m) == m.size:
        if not len(pivots):
            return True
        before = m.copy()
        _pivot_sweep(m, pivots)
        pivots = np.logical_or.reduce(m != before, axis=0).nonzero()[0].tolist()
    return False


def _pivot_sweep(m: np.ndarray, pivots: Iterable[int]) -> np.ndarray:
    """Sweep each pivot k in turn over the label matrix m, in place; returns m.

    Pivot k refines every label (i, j) by label(i, k) composed with
    label(k, j), in two numpy gathers from the 16-by-16 composition table:
    its rows at column k of m, then their entries at row k of m.  Row and
    column k cannot change at pivot k, as label (k, k) is CG, so each step
    equals the sequential loop over i and j; orientations stay
    converse-coherent, as the converse of a∘b is conv(b)∘conv(a).
    """
    for k in pivots:
        m &= _COMPOSE_ARR.take(m[:, k], axis=0).take(m[k], axis=1)
    return m


def is_algebraically_closed(net: ConstraintNetwork) -> bool:
    """True iff labels are non-NONE and every label survives every triangle.

    The condition is label(i,j) contained in compose(label(i,k), label(k,j))
    for all triples; on atomic networks it coincides with the
    path_consistency fixpoint reporting ok.  Once no label is NONE it holds
    exactly when one pivot sweep changes nothing: every pivot leaves a
    closed matrix as it is, and a sweep that changes nothing saw the input
    itself at every pivot.
    """
    m = net._m
    return bool(m.all()) and np.array_equal(_pivot_sweep(m.copy(), range(len(m))), m)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


# Characters scanned at once, at least: a chunk runs on to the end of the
# line it reaches _CHUNK in.  Few enough that a chunk's arrays sit in memory
# reused from chunk to chunk, not in fresh pages; enough that each chunk's
# fixed numpy calls are a small part of its time.  In end-to-end runs of
# `mc4 solve` on 2 vCPUs, 64 KiB beat 32 KiB on dense 350-vertex files and
# 128 KiB on 200-vertex planted ones.
_CHUNK = 1 << 16

# A token is looked up as a key of a few little-endian uint64 words: its
# bytes, then 0xFF bytes.  A bulk chunk is ASCII, so a token holds no 0xFF
# and the key gives the token back: "a" and "a\0" differ.  A table's keys
# have the words its longest string needs, at most _KEY_WORDS, and always
# one 0xFF byte or more.  A token too long for them fills its words with
# its own bytes and is not found; one of 8 * _KEY_WORDS bytes or more gets
# no 0xFF at all.  So names and spellings of up to 31 bytes are read in
# bulk, and a chunk that uses a longer one is read by the grammar.
_KEY_WORDS = 4
# Spaces behind a chunk's bytes, so that a key read at any token start stays
# inside them.
_PAD = b" " * (8 * _KEY_WORDS)
# Per word k of a key, the 0xFF bytes ORed into it for a token of each
# length L in 0..8 * _KEY_WORDS: those at offsets L and up of the key.
_KEY_FILL = list(
    (
        (np.arange(8 * _KEY_WORDS) >= np.arange(8 * _KEY_WORDS + 1)[:, None]) * np.uint8(255)
    ).view("<u8").T.copy()
)
# Odd, so multiplying by it is a bijection on uint64 (Knuth, TAOCP vol. 3,
# section 6.4): the golden ratio in 64 bits.
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)
# The first word of an empty slot: all 0xFF, as no key's first word is.
_EMPTY = ~np.uint64(0)


def _token_keys(
    view: np.ndarray, starts: np.ndarray, lengths: np.ndarray, words: int, first: int = 0
) -> list[np.ndarray]:
    """Words first up to words of the keys of the tokens that begin at
    starts in view (see _scan_lines) and have the given lengths, as a list
    of uint64 arrays shaped like starts."""
    keys = []
    for k in range(first, words):
        word = view[8 * k :][starts]
        word |= _KEY_FILL[k].take(lengths, mode="clip")
        keys.append(word)
    return keys


class _ByteTable:
    """Exact hash table from the short ASCII keys of a dict to its values,
    looked up by the keys of tokens in a chunk's bytes (_token_keys).

    A key's hash multiplies its first word by _HASH_MUL, then folds in each
    further word by xor and multiply.  The top bits of the hash pick a home
    slot, among eight slots a key and at least 2048, so that few keys share
    one.  When some do, linear probing goes on from the home slot: keys are
    placed in order of their home slots, each at the first slot past its
    home and its predecessor, so every slot from a key's home to its own is
    taken.  An empty slot holds _EMPTY words, and at least one follows the
    last key, so a probe for a token that is not a key meets one.

    Strings that are not ASCII or longer than 31 characters are left out:
    no token of a chunk read in bulk can equal them.  The table's arrays are
    read-only once built, so one table can serve every parse that shares it.
    """

    __slots__ = ("words", "shift", "keys", "values")

    def __init__(self, mapping: dict[str, int], dtype: type):
        keys, values = list(mapping), np.fromiter(mapping.values(), dtype, len(mapping))
        longest = max(map(len, keys), default=0)
        if longest >= 8 * _KEY_WORDS or not "".join(keys).isascii():
            keep = [k.isascii() and len(k) < 8 * _KEY_WORDS for k in keys]
            keys, values = list(compress(keys, keep)), values[keep]
            longest = max(map(len, keys), default=0)
        self.words = longest // 8 + 1
        # Each key's bytes, then 0xFF bytes up to its words: its key as
        # _token_keys reads a token.
        size = 8 * self.words
        data = "".join(map(str.ljust, keys, repeat(size), repeat("\xff"))).encode("latin-1")
        found = [np.frombuffer(data, "<u8")[k :: self.words] for k in range(self.words)]
        bits = max(8 * len(values) - 1, 2047).bit_length()
        self.shift = np.uint64(64 - bits)
        h = self._hash(found)
        h >>= self.shift
        at = h.view(np.intp)  # the top bit is clear
        order = at.argsort(kind="stable")
        k = np.arange(len(at))
        at[order] = np.maximum.accumulate(at.take(order) - k) + k
        # Room for every key to sit past the last home slot, and one empty.
        self.keys = [np.full((1 << bits) + len(at) + 1, _EMPTY, np.uint64) for _ in found]
        for table, word in zip(self.keys, found):
            table[at] = word
        self.values = np.empty(len(self.keys[0]), dtype)  # read at keys only
        self.values[at] = values
        for table in (*self.keys, self.values):
            table.setflags(write=False)

    def _hash(self, keys: list[np.ndarray]) -> np.ndarray:
        h = keys[0] * _HASH_MUL
        for word in keys[1:]:
            h ^= word
            h *= _HASH_MUL
        return h

    def _differ(self, slot: np.ndarray, keys: list[np.ndarray]) -> np.ndarray:
        differ = self.keys[0].take(slot) != keys[0]
        for table, word in zip(self.keys[1:], keys[1:]):
            differ |= table.take(slot) != word
        return differ

    def get(
        self, key0: np.ndarray, view: np.ndarray, starts: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray | None:
        """Values of the tokens that begin at starts in view and have the
        given lengths, shaped like starts, or None when some token is not a
        key.  key0 holds the first words of their keys (_token_keys); the
        table reads any further words itself."""
        keys = [key0, *_token_keys(view, starts, lengths, self.words, 1)]
        h = self._hash(keys)
        h >>= self.shift
        slot = h.view(np.intp)  # the top bit is clear
        differ = self._differ(slot, keys)
        if np.count_nonzero(differ):  # tokens past their home slot, or not keys
            flat = slot.reshape(-1)
            keys = [word.reshape(-1) for word in keys]
            lost = np.flatnonzero(differ)
            while lost.size:
                here = flat[lost]
                if (self.keys[0].take(here) == _EMPTY).any():
                    return None
                flat[lost] = here = here + 1
                lost = lost[self._differ(here, [word[lost] for word in keys])]
        return self.values.take(slot)


_SPELLING_TABLE = _ByteTable(_SPELLINGS, np.uint8)
# The first word of the key of the token ':'.
_COLON = _KEY_FILL[0][1] | np.uint64(ord(":"))


@lru_cache(maxsize=_TABLES)
def _names_table(names: tuple[str, ...]) -> _ByteTable:
    """The _ByteTable from each of names to its index, built once per names
    tuple, for the last _TABLES tuples a process parsed; read-only."""
    return _ByteTable(dict(zip(names, range(len(names)))), np.intp)


def parse_network(text: str) -> ConstraintNetwork:
    """Parse the text format documented in the module docstring.

    Each CRLF and each lone carriage return in the text is first made a
    '\\n': str.splitlines takes each of them as one line break, so the
    lines, their tokens and their numbers stay those of the text as given.
    The CRLFs go first, so a text whose every '\\r' stood in one is copied
    once.  A CRLF file pays for that copy: it parses in about 1.7x the time.

    _parse_header reads the lines up to 'nodes:' once, one at a time.  The
    names table is that of the names it declares (_names_table, built once
    per names tuple), and the rest of the text is read in chunks of whole
    lines (_chunk_end) that begin after that line.

    One rule decides how a chunk is read: in bulk when it is in the form
    serialize_network writes, ASCII, no byte below ' ' but '\\n', and
    every line four tokens with no space between the fourth and the line's
    break: two distinct declared vertices, ':' and a canonical relation
    spelling.  No vertex name or spelling holds '#', so such a chunk holds
    no comment.  _scan_lines splits it into lines and tokens in one pass
    over its bytes, and the tokens are resolved by their bytes, with no
    Python object made for one: two exact hash tables (_ByteTable) map the
    names of up to 31 characters to vertex indices and the canonical
    spellings (_SPELLING_TABLE) to relation codes.  Nothing is written
    until the whole chunk is found plain; then one gather and one scatter
    intersect its declarations into the label matrix.  Only a chunk that
    declares a pair twice, with labels that differ, has its cells
    intersected again one declaration at a time (np.bitwise_and.at).

    The chunk is small so that each one's arrays sit in memory the
    allocator reuses from chunk to chunk; smaller chunks lose to the fixed
    cost of each chunk's numpy calls.  A 600 KB dense-random file of 30 000
    lines parses in about 3.7 ms on 2 vCPUs, and a 21 MB file of 2000
    vertices in about 0.11 s.

    Every other chunk (one with a non-ASCII character, a tab or another
    byte below ' ' but '\\n', a blank, comment or otherwise irregular line,
    another spelling of a relation, or a name longer than 31 characters)
    goes through _parse_line, the grammar one line at a time, from its
    first line on.  So the first bad line raises, and the ParseError, its
    message, token and line number, is the one a loop over
    text.splitlines() would raise.  A chunk read this way is about 3 ms
    slower than in bulk for the 3300 lines of a 64 KiB chunk of a
    dense-random file; only the chunk that needs it pays.

    Each declaration, in bulk or by _parse_line, is written into its own
    cell (i, j) only.  After the last chunk _close_converse intersects each
    cell with the converse of its mirror, so a pair's two cells hold
    converse labels that meet its declarations in either orientation.

    Raises:
        ParseError: with a 1-based line number, on any malformed line,
            undeclared or duplicate vertices, unknown relation tokens, or a
            self-loop whose relation excludes CG.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            text = text.replace("\r", "\n")
    net, pos, lineno = _parse_header(text)  # lineno: the next chunk's first line
    names = _names_table(net.names)
    # The grammar's relation spellings to codes: the canonical ones, and any
    # other the file uses, parsed once.
    spellings = dict(_SPELLINGS)
    while pos < len(text):
        end = _chunk_end(text, pos)
        chunk = text[pos:end]
        pos = end
        plain = chunk.isascii()
        if plain:
            n_lines, plain, view, starts, lengths = _scan_lines(chunk)
        if plain:
            # One row per role of a line's four tokens: name, name, ':' and
            # spelling, so each lookup and test below runs on contiguous rows.
            begin = starts.reshape(-1, 4).T.copy()
            width = lengths.reshape(-1, 4).T.copy()
            key0 = _token_keys(view, begin, width, 1)[0]  # their keys' first words
            ij = names.get(key0[:2], view, begin[:2], width[:2])
            codes = _SPELLING_TABLE.get(key0[3], view, begin[3], width[3])
            plain = (
                ij is not None
                and codes is not None
                and not np.count_nonzero(key0[2] != _COLON)
                and not np.count_nonzero(ij[0] == ij[1])
            )
        if plain:
            m = net._m.reshape(-1)
            cells = ij[0] * len(net) + ij[1]
            labels = m.take(cells)
            labels &= codes
            m[cells] = labels
            # A cell declared twice in the chunk holds one declaration's
            # label.  Where that reads back other than written, the chunk's
            # declarations are intersected in again, each one, which leaves
            # those already in unchanged.
            if np.count_nonzero(m.take(cells) != labels):
                np.bitwise_and.at(m, cells, codes)
            lineno += n_lines
            continue
        lines = chunk.splitlines()
        for k, line in enumerate(lines, lineno):
            _parse_line(line, k, net, spellings)
        lineno += len(lines)
    _close_converse(net._m)
    return net


def _parse_header(text: str) -> tuple[ConstraintNetwork, int, int]:
    """Read text up to its first non-blank line, which must be 'nodes:'.

    Returns (net, pos, lineno): the network that line declares, the offset
    just past it and the number of the next line.  Each '\\n'-line is split
    by str.splitlines, so every line break it knows ends a line here too.

    Raises:
        ParseError: for every error of the lines up to 'nodes:'.
    """
    pos, lineno = 0, 1
    while pos < len(text):
        end = text.find("\n", pos) + 1 or len(text)
        for raw in text[pos:end].splitlines(keepends=True):
            pos += len(raw)
            line = raw.partition("#")[0].strip()
            if not line:
                lineno += 1
                continue
            if line[:6].lower() != "nodes:":
                raise ParseError("expected a 'nodes:' line before constraints", line=lineno)
            names = line[6:].split()
            if not names:
                raise ParseError("'nodes:' line declares no vertices", line=lineno)
            for name in names:
                if ":" in name:
                    raise ParseError(
                        f"vertex name {name!r} may not contain ':'", token=name, line=lineno
                    )
            if len(set(names)) != len(names):
                raise ParseError("duplicate vertex name", line=lineno)
            return ConstraintNetwork(names), pos, lineno + 1
    raise ParseError("no 'nodes:' line found")


def _close_converse(m: np.ndarray) -> None:
    """AND each cell of the label matrix m with the converse of its mirror.

    A converse swaps CGPP and CGPPi, bits 1 and 2: where they differ, both
    flip.  Bit arithmetic needs a byte a cell; a take from _CONVERSE_ARR
    would make an index of eight bytes a cell, slower.  The steps run in
    place on one temporary: each fresh one may cost page faults.
    """
    t = m.T
    converse = t >> 1
    converse ^= t
    converse &= 2  # bit 1: CGPP and CGPPi differ
    converse *= 3
    converse ^= t
    m &= converse


def _chunk_end(text: str, pos: int) -> int:
    """End of the chunk of text that begins at pos: just after the first
    '\\n' at or past pos + _CHUNK, or the end of text.

    A chunk thus holds whole lines and at least _CHUNK characters, unless
    it is the last.  parse_network has made each CRLF and each lone
    carriage return a '\\n', so a text with either line end is read in
    the chunks of its '\\n' form.
    """
    cut = text.find("\n", pos + _CHUNK)
    return len(text) if cut < 0 else cut + 1


def _scan_lines(chunk: str) -> tuple[int, bool, np.ndarray, np.ndarray, np.ndarray]:
    """The lines and tokens of an ASCII chunk, split as by str.splitlines
    and str.split, when its only byte below ' ' is '\\n'.

    Returns (lines, regular, view, starts, lengths): the number of lines
    in chunk; whether every line holds four tokens, with no space between
    the fourth and the break that ends the line; the
    little-endian uint64 at each byte offset of chunk, read on into _PAD,
    so that a key can be read at any token (_token_keys); and for each
    token, its offset in chunk and its length.  Every line break is one
    character, as parse_network has folded each CRLF into '\\n'.

    A byte up to ' ' is taken for a space and '\\n' for the one break,
    which is what str.split and str.splitlines see for ' ' and '\\n', the
    only such bytes in the text mc4 writes.  A chunk that holds any other
    byte below ' ' (a tab, or a '\\v' that ends a line) is not scanned: it
    comes back (0, False, None, None, None), not regular, and goes to the
    grammar.
    """
    raw = b" " + chunk.encode("ascii") + _PAD
    byte = np.frombuffer(raw, dtype=np.uint8)
    body = byte[1 : len(chunk) + 1]
    breaks = body == 10
    n_breaks = int(np.count_nonzero(breaks))
    if np.count_nonzero(body < 32) != n_breaks:  # a byte below ' ' not '\n'
        return 0, False, None, None, None
    space = byte <= 32
    # raw begins and ends in a space, so its edges alternate: a token begins
    # at offset k of chunk where byte k of raw is a space and byte k + 1 is
    # not, and ends before offset k where byte k is not a space and k + 1 is.
    edges = (space[1:] != space[:-1]).nonzero()[0]
    starts = edges[0::2]
    lines = n_breaks + (not breaks[-1])
    # A chunk of 4 * lines tokens is regular when each of its first n_breaks
    # fourth tokens is followed at once by a break (token 4r + 3 by raw byte
    # edges[8r + 7] + 1).  Those are n_breaks distinct breaks, so all of
    # them: line r holds tokens 4r to 4r + 3, and a last line with no break
    # the four left.  Only the first n_breaks are tested: 8 and 4 tokens on
    # two lines and a last line of spaces would pass a test of all three.
    regular = (
        len(starts) == 4 * lines
        and np.count_nonzero(byte[edges[7::8][:n_breaks] + 1] == 10) == n_breaks
    )
    view = np.ndarray((len(raw) - 8,), "<u8", raw, 1, (1,))
    return lines, regular, view, starts, edges[1::2] - starts


def _parse_line(
    raw: str, lineno: int, net: ConstraintNetwork, spellings: dict[str, int]
) -> None:
    """Parse one line after the 'nodes:' line by the whole grammar.

    parse_network hands it every line of a chunk that is not in the form
    serialize_network writes.  A constraint line 'u v : R' is intersected
    into the cell (u, v) of net; a blank or comment line says nothing.
    spellings maps relation spellings to codes, and each spelling that
    parse_relation reads is added to it.  parse_network closes the
    converse cells after its last chunk.

    Raises:
        ParseError: at lineno, for every error of a constraint line.
    """
    line = raw.partition("#")[0].strip()
    if not line:
        return
    left, colon, right = line.partition(":")
    if not colon:
        raise ParseError("expected 'NAME NAME : RELATION'", line=lineno)
    parts = left.split()
    if len(parts) != 2:
        raise ParseError("expected exactly two vertex names before ':'", line=lineno)
    u, v = parts
    i = net._index.get(u)
    if i is None:
        raise ParseError(f"undeclared vertex {u!r}", token=u, line=lineno)
    j = net._index.get(v)
    if j is None:
        raise ParseError(f"undeclared vertex {v!r}", token=v, line=lineno)
    # Without the space after ':' a canonical spelling is a key of spellings.
    right = right.lstrip()
    code = spellings.get(right)
    if code is None:
        try:
            code = spellings[right] = int(parse_relation(right))
        except ParseError as exc:
            raise ParseError(str(exc), token=exc.token, line=lineno) from None
    if i == j and not code & Relation.CG:
        raise ParseError(
            f"self-loop on {u!r} excludes CG and is unsatisfiable", token=u, line=lineno
        )
    net._m[i, j] &= code


def serialize_network(net: ConstraintNetwork) -> str:
    """Canonical text form: one 'nodes:' line, then each non-ALL pair once.

    Pairs are emitted in declaration order of their endpoints; ALL labels
    are omitted as they say nothing.  Round-trips through parse_network.
    _pair_rows writes the lines, from the rows table _serial_rows builds
    once per names tuple and the upper triangle _upper_triangle builds once
    per vertex count; both are read-only.

    Raises:
        ValueError: on a network with no vertices, on a contradicted
            self-loop, or on a vertex name the parser cannot read back
            (empty, or with whitespace, ':' or '#').
    """
    if not len(net):
        raise ValueError("network with no vertices cannot be serialized")
    if net.self_contradiction is not None:
        raise ValueError("network with a self-contradictory loop cannot be serialized")
    names = net.names
    heads, tails = _serial_rows(names)
    m = net._m
    kept = (m != 15) & _upper_triangle(len(names))
    rows = _pair_rows(heads, tails, m, kept, "\n")
    return "\n".join(["nodes: " + " ".join(names), *rows]) + "\n"


@lru_cache(maxsize=_TABLES)
def _serial_rows(names: tuple[str, ...]) -> tuple[tuple[str, ...], np.ndarray]:
    """The heads and tails (_pair_rows) of serialize_network's lines on
    names: 'NAME ' and 'NAME : RELATION'.  Built once per names tuple, for
    the last _TABLES tuples a process wrote, after the check that the parser
    can read each name back; a tuple and a read-only array.

    Raises:
        ValueError: on a name that is empty or holds whitespace, ':' or '#'.
    """
    for name in names:
        if name.split() != [name] or ":" in name or "#" in name:
            raise ValueError(f"vertex name {name!r} cannot be serialized")
    return tuple(name + " " for name in names), _tails(names, _FORMAT)


def _tails(names: Sequence[str], rhs: np.ndarray) -> np.ndarray:
    """The tails table of _pair_rows: the read-only len(names)-by-len(rhs)
    object array of the strings names[j] + rhs[code], at (j, code).  rhs is
    an object array of strings, one per code."""
    tails = np.array(names, dtype=object)[:, None] + rhs
    tails.setflags(write=False)
    return tails


def _pair_rows(
    heads: Sequence[str], tails: np.ndarray, codes: np.ndarray, kept: np.ndarray, sep: str
) -> list[str]:
    """The pairs (i, j) that the n-by-n mask kept marks, in row-major
    order, each written as heads[i] + tails[j, codes[i, j]]: one string per
    row that holds a kept pair, its pairs joined by sep.  tails is a
    table _tails builds; the writers build theirs once per key, names or n,
    and keep it read-only.  Every pair list mc4 prints is written here; the
    caller joins the rows, so a large text is copied once more only where
    the caller adds to it.

    One take on the flattened tails gathers the tail of every kept pair in
    row-major order, and one tolist hands them to Python.  Row i is then
    written as one string, its tails joined behind heads[i] with sep, so
    Python's loop runs once per row, and no Python int is made for a
    pair.  Only numpy's C methods and ufuncs run, none of its Python-level
    wrappers (np.flatnonzero, np.count_nonzero, np.cumsum), which cost
    most on a small scenario.
    """
    n, width = tails.shape
    flat = kept.ravel().nonzero()[0]
    pair_tails = tails.take(flat % n * width + codes.ravel().take(flat)).tolist()
    rows = []
    start = 0
    for head, count in zip(heads, np.add.reduce(kept, axis=1).tolist()):
        if count:
            end = start + count
            rows.append(head + (sep + head).join(pair_tails[start:end]))
            start = end
    return rows


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------


def random_network(
    n_vertices: int,
    density: float,
    palette: Iterable[Relation],
    rng: np.random.Generator | int | None = None,
) -> ConstraintNetwork:
    """Random network on vertices v0..v{n-1}.

    Each unordered pair is constrained independently with probability
    ``density``, by a label drawn uniformly from ``palette``; other pairs
    stay ALL.  Pass an int (or a Generator) as ``rng`` to make the draw
    reproducible.

    The draws are one uniform per pair for the hit, then one palette index
    per pair, both in row-major order of the upper triangle; the labels
    fill that triangle through a boolean mask.  The lower triangle is still
    ALL, so ANDing the matrix with the converses of its transpose, one
    take, fills it with the converses of the labels and leaves the upper
    triangle and the CG diagonal as they are (ALL and CG are their own
    converses).  A seed thus always gives the same matrix.
    """
    if n_vertices < 1:
        raise ValueError("a network needs at least one vertex")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    codes = np.array([int(r) for r in palette], dtype=np.uint8)
    if codes.size == 0:
        raise ValueError("palette is empty")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be within [0, 1]")
    net = ConstraintNetwork(tuple(f"v{k}" for k in range(n_vertices)))
    n_pairs = n_vertices * (n_vertices - 1) // 2
    hit = rng.random(n_pairs) < density
    drawn = codes[rng.integers(0, codes.size, size=n_pairs)]
    # A pair not hit stays ALL, 15, which ORs any code to 15.  This is
    # np.where(hit, drawn, 15) without its branch per pair, which a
    # random hit mask mispredicts about half the time.
    vals = drawn | np.uint8(15) * ~hit
    m = net._m
    m[_upper_triangle(n_vertices)] = vals
    m &= _CONVERSE_ARR.take(m.T)
    return net
