"""Languages of one-sided subshifts.

Words are plain strings over the alphabet "a", "b", "c", ... (symbol index
order).  A subshift is described declaratively by a spec object and its
language is read, up to a depth bound, as a LanguageTable.  A tree of words
is its sorted leaves: a word's parent is its prefix, and the leaves below a
word are contiguous.  The table keeps the leaves it was built from, and
reads everything else from them and from the longest common prefix of each
pair of neighbouring leaves: the level counts, the right special words of
each length, the forks, that is the branching words with their children's
leaf ranges, and the skeleton of the branching words.  On top of these
sit the usual combinatorial statistics: the complexity function, right
special words, repetitivity and the repulsiveness estimators, which read
each word as a prefix of a leaf and keep none; and each spec family's
level counts and branching chain, the closed forms of full-shift and
Sturmian trees.  The words level by level are a view built only on
request, for the test oracles that scan every word.
"""

import string
from collections.abc import Sequence
from dataclasses import dataclass, field
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from functools import cached_property
from itertools import accumulate, chain, count, groupby, product
from operator import eq, itemgetter, mul

ALPHABET = string.ascii_lowercase


class UnknownSymbolError(ValueError):
    """A word contains a symbol outside the substitution's domain."""


class InsufficientDataError(ValueError):
    """A finite coefficient list ran out before the requested length."""


class OutOfDepthError(ValueError):
    """A query asked for a length at or beyond the table depth."""


def alphabet(k):
    """The first k symbols as a string."""
    if k < 1:
        raise ValueError("alphabet size must be at least 1")
    if k > len(ALPHABET):
        raise ValueError("alphabet size capped at %d" % len(ALPHABET))
    return ALPHABET[:k]


# ---------------------------------------------------------------------------
# subshift specs


@dataclass(frozen=True)
class FullShift:
    """Every word over a k-letter alphabet is admissible."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("full shift needs k >= 1")


@dataclass(frozen=True)
class ExplicitWindow:
    """The language is the factor set of one explicit finite word."""

    window: str

    def __post_init__(self):
        if not self.window:
            raise ValueError("window must be nonempty")


@dataclass(frozen=True)
class Substitution:
    """A primitive-style substitution with a seed letter it fixes.

    rules maps each letter to a nonempty image word; the image of the seed
    must start with the seed so that iteration converges to a one-sided
    fixed point.
    """

    rules: tuple  # sorted tuple of (letter, image) pairs
    seed: str

    def __post_init__(self):
        rules = dict(self.rules)
        for letter, image in rules.items():
            if not image:
                raise ValueError("erasing rule for %r" % letter)
        if self.seed not in rules:
            raise ValueError("seed %r has no rule" % self.seed)
        if not rules[self.seed].startswith(self.seed):
            raise ValueError("rule for seed %r does not fix it" % self.seed)

    @classmethod
    def from_rules(cls, rules, seed):
        return cls(tuple(sorted(rules.items())), seed)


# tail rules for continued fraction coefficients past the explicit prefix:
#   ("constant", c)  mu_i = c
#   ("linear",)      mu_i = i
#   ("pow2",)        mu_i = 2**i
TAIL_FAMILIES = ("constant", "linear", "pow2")


@dataclass(frozen=True)
class SturmianCF:
    """Sturmian subshift from continued fraction data [1+mu_0, mu_1, ...].

    mu is a finite coefficient prefix; tail optionally extends it by a
    simple formula so that arbitrarily long characteristic words exist.
    """

    mu: tuple = ()
    tail: tuple = None

    def __post_init__(self):
        for i, m in enumerate(self.mu):
            if m < 0 or (i >= 1 and m < 1):
                raise ValueError("bad CF coefficient mu_%d = %r" % (i, m))
        if self.tail is None:
            return
        if self.tail[0] not in TAIL_FAMILIES:
            raise ValueError("unknown tail rule %r" % (self.tail,))
        if self.tail[0] == "constant" and not self.tail[1] >= 1:
            raise ValueError("constant CF tail %r is below 1"
                             % (self.tail[1],))

    def coefficient(self, i):
        if i < len(self.mu):
            return self.mu[i]
        if self.tail is None:
            raise InsufficientDataError(
                "CF prefix exhausted at index %d and no tail rule" % i)
        kind = self.tail[0]
        if kind == "constant":
            return self.tail[1]
        if kind == "linear":
            return i
        return 2 ** i


def fibonacci_spec():
    """All CF coefficients equal to 1."""
    return SturmianCF(mu=(), tail=("constant", 1))


# ---------------------------------------------------------------------------
# substitutions and characteristic words


def substitution_apply(rules, w):
    """Apply a substitution (letter -> word map) to a word."""
    out = []
    for letter in w:
        if letter not in rules:
            raise UnknownSymbolError("no rule for symbol %r" % letter)
        out.append(rules[letter])
    return "".join(out)


def sturmian_characteristic(spec, min_len):
    """The last min_len letters of the left-infinite Sturmian
    characteristic word.

    They are the last min_len letters of the first word
    R_k = sigma0^mu_0 sigma1^mu_1 ... sigma0^mu_2k (b) at least that long.
    Successive R_k nest as suffixes, so a shorter result is a suffix of
    every longer one.
    """
    if min_len < 1:
        raise ValueError("min_len must be >= 1")
    # maintain the composed images A = Phi(a), B = Phi(b) where Phi is the
    # product of the substitution powers taken so far, extended on the right;
    # every mu_i from i = 1 on is at least 1, so each step lengthens an image.
    # An image is held as its length and its last min_len letters (all of
    # it when shorter), and a power of it as only as many copies as those
    # letters need.
    a_len, b_len = 1, 1
    a_img, b_img = "a", "b"
    i = 0
    while True:
        m = spec.coefficient(i)
        if i % 2 == 0:
            # compose with sigma0^m: a -> a, b -> b a^m
            b_len += a_len * m
            b_img = (b_img + a_img * min(m, min_len // len(a_img) + 1)
                     )[-min_len:]
            if b_len >= min_len:
                return b_img
        else:
            # compose with sigma1^m: a -> a b^m, b -> b
            a_len += b_len * m
            a_img = (a_img + b_img * min(m, min_len // len(b_img) + 1)
                     )[-min_len:]
        i += 1


def substitution_fixed_point(spec, min_len):
    """Prefix (of length >= min_len) of the fixed point of a substitution."""
    rules = dict(spec.rules)
    w = spec.seed
    while len(w) < min_len:
        nxt = substitution_apply(rules, w)
        if len(nxt) == len(w):
            raise InsufficientDataError(
                "substitution fixed point stalls at length %d" % len(w))
        w = nxt
    return w


# ---------------------------------------------------------------------------
# language tables


@dataclass(frozen=True)
class LanguageTable:
    """Admissible words per length up to a depth bound: the tree of words.

    sorted_leaves holds the words with no child, in order: the leaves the
    table was built from, which fix every word in it.  stabilized[n]
    records whether the count at length n was unchanged across the last
    window doubling; exact specs set every flag.  The hash reads the depth
    and the flags.  Views are read from the leaves on first use and kept,
    and take no part in equality, hash or repr: lcps, the longest common
    prefix length of each pair of neighbouring leaves, which the others
    read; counts, P(n) for n = 0..depth; right_special[n], the branching
    words of length n; and forks and skeleton, which the tree analyses
    read.  levels[n], the sorted tuple of the length-n
    words, holds sum of n * P(n) letters and is built only for the
    oracles that scan every word; no statistic here reads it.
    """

    depth: int
    sorted_leaves: list = field(hash=False)
    stabilized: tuple

    def leaves(self):
        return tuple(v for v in self.sorted_leaves if len(v) == self.depth)

    @cached_property
    def lcps(self):
        return _neighbour_lcps(self.sorted_leaves)

    @cached_property
    def counts(self):
        return _level_counts(self.sorted_leaves, self.lcps, self.depth)

    @cached_property
    def right_special(self):
        """The branching words of each length below the depth: the common
        prefixes of neighbouring leaves, grouped by their length."""
        special = [set() for _ in range(self.depth)]
        for v, h in zip(self.sorted_leaves, self.lcps):
            special[h].add(v[:h])
        return tuple(map(frozenset, special))

    @cached_property
    def levels(self):
        return _tree_of_words(self.sorted_leaves, self.depth)

    @cached_property
    def forks(self):
        """Each branching word in lexicographic order with the bounds of its
        children's leaf ranges (see _shape)."""
        return _shape(self.sorted_leaves, self.lcps)

    @cached_property
    def skeleton(self):
        """The skeleton of the branching words at the table depth (see
        _skeleton)."""
        return _skeleton(self.forks, self.depth)


def _tree_of_words(leaves, N):
    """Levels 0..N of the tree with these sorted leaves.

    Level n is the run-deduplicated w[:-1] of level n + 1 plus the leaves of
    length n."""
    cut_last = itemgetter(slice(None, -1))
    by_length = {n: list(vs)
                 for n, vs in groupby(sorted(leaves, key=len), len)}
    level = by_length.pop(N, [])
    levels = [tuple(level)]
    for n in range(N - 1, -1, -1):
        level = [p for p, _ in groupby(level, cut_last)]
        for v in by_length.get(n, ()):
            insort(level, v)
        levels.append(tuple(level))
    return tuple(levels[::-1])


DEFAULT_WINDOW_CAP = 2 ** 20
# the letters of a table's words, sum of n * P(n).  Nothing outside the
# test oracles builds the levels view that would hold them as strings
# (sturmian:cf=1 at depth 1024 has 3.6e8, which lang held in 423 MB of max
# RSS when it read them); lang visits each of the sum of P(n) words once as
# a prefix of a leaf.  The cap bounds that walk and keeps deep tables
# refused as before: sturmian:cf=1 passes it at depth 1476
TABLE_LETTER_CAP = 2 ** 30


def _recurrent_prefix(window, N):
    """Cut the window to its right-extendable, factor-closed part.

    Read the window as a walk whose vertices are its length-(N-1) factors
    and whose edges are its length-N factors.  Up to the last vertex j that
    repeats an earlier one the walk can go on forever (jump back and retrace
    it); past j every vertex is new, so the walk dead-ends at the window's
    end.  The part sought is the factor set of window[:j + N - 1], empty
    when no vertex repeats.
    """
    seen = set()
    end = 0
    for i in range(len(window) - N + 2):
        vertex = window[i:i + N - 1]
        if vertex in seen:
            end = i + N - 1
        else:
            seen.add(vertex)
    return window[:end]


def _window_for(spec, length):
    if isinstance(spec, SturmianCF):
        return sturmian_characteristic(spec, length)
    if isinstance(spec, Substitution):
        word = substitution_fixed_point(spec, length)
        return word[:length]
    raise TypeError("no window construction for %r" % (spec,))


def _refuse_oversized(spec, N):
    """Refuse a depth below 1, an explicit window deeper than
    DEFAULT_WINDOW_CAP, and a full shift with more than DEFAULT_WINDOW_CAP
    words at length N (the bound a generated window obeys), before
    anything is enumerated."""
    if N < 1:
        raise ValueError("depth must be >= 1")
    if isinstance(spec, ExplicitWindow) and N > DEFAULT_WINDOW_CAP:
        raise ValueError("explicit window deeper than %d" % DEFAULT_WINDOW_CAP)
    if isinstance(spec, FullShift):
        alphabet(spec.k)
        # k^64 is past the cap for every k > 1
        if spec.k ** min(N, 64) > DEFAULT_WINDOW_CAP:
            raise ValueError("full:%d at depth %d has more than %d words of "
                             "length %d" % (spec.k, N, DEFAULT_WINDOW_CAP, N))


def _leaves(spec, N):
    """The sorted leaves (the words with no child) of a spec's tree of
    words at depth N, and the stabilization flags of its levels.

    Full shifts and explicit windows are exact; a window's leaves are its
    length-N factors and its shorter suffixes that occur only at its end.
    A Sturmian or substitution window is cut to its recurrent prefix (see
    _recurrent_prefix), whose length-N factors, or else the root, are the
    leaves.  A Sturmian window is doubled until it holds N + 1 of them, the
    count of words of length N in its language (leaf_count), which settles
    every level, and a substitution one until they stop changing.  Each
    factor of such a prefix extends to length N in it and the windows nest
    (Sturmian ones as suffixes, substitution ones as prefixes), so every
    count has then settled, at the cap as below it.  At the cap, a
    Sturmian window with fewer than N + 1 leaves is refused, and the flags
    of a substitution window compare the counts of the last two."""
    _refuse_oversized(spec, N)
    flags = (True,) * (N + 1)
    if isinstance(spec, FullShift):
        return list(map("".join, product(alphabet(spec.k), repeat=N))), flags
    if isinstance(spec, ExplicitWindow):
        w, top = spec.window, min(N - 1, len(spec.window))
        # a suffix that occurs earlier has a child, and so has each shorter
        # one, one letter later: bisect for the first that occurs only last
        first = 1 + bisect_left(range(1, top + 1), True,
                                key=lambda n: w.find(w[-n:]) == len(w) - n)
        return sorted({w[i:i + N] for i in range(len(w) - N + 1)}
                      | {w[-n:] for n in range(first, top + 1)}), flags
    length = max(4 * N, 64)
    prev, complete = None, leaf_count(spec, N)
    while True:
        prefix = _recurrent_prefix(_window_for(spec, length), N)
        keys = sorted({prefix[i:i + N]
                       for i in range(len(prefix) - N + 1)}) or [""]
        if len(keys) == complete or complete is None and keys == prev:
            return keys, flags
        if 2 * length > DEFAULT_WINDOW_CAP:
            if complete is not None:
                raise ValueError(
                    "Sturmian window of %d letters holds %d of the %d words "
                    "of length %d" % (length, len(keys), complete, N))
            if prev is None:
                return keys, (False,) * (N + 1)
            P, Q = (_level_counts(v, _neighbour_lcps(v), N)
                    for v in (keys, prev))
            return keys, tuple(map(eq, P, Q))
        prev = keys
        length *= 2


def _neighbour_lcps(leaves):
    """The longest common prefix length of each pair of neighbouring
    leaves, at C speed: each leaf is read as one big integer, padded on
    the right to the longest, and the highest bit in which two neighbours
    differ falls in the first letter in which they do.  No leaf is a
    prefix of another, so no padding is ever compared."""
    if len(leaves) < 2:
        return []
    width = max(map(len, leaves))
    try:
        bits, ints = 8, [int.from_bytes(v.ljust(width).encode("latin-1"),
                                        "big") for v in leaves]
    except UnicodeEncodeError:
        bits, ints = 32, [int.from_bytes(v.ljust(width).encode("utf-32-be"),
                                         "big") for v in leaves]
    top = bits * width
    return [(top - (x ^ y).bit_length()) // bits
            for x, y in zip(ints, ints[1:])]


def _level_counts(leaves, lcps, N):
    """P(n) for n = 0..N of the depth-N tree with these sorted leaves and
    neighbour LCPs: the leaves at least n long less the neighbour pairs
    sharing at least n letters, since the leaves below a word are
    contiguous."""
    net = [0] * (N + 1)  # leaves of length m less neighbour pairs sharing m
    for m, c in Counter(map(len, leaves)).items():
        net[m] += c
    for h, c in Counter(lcps).items():
        net[h] -= c
    return tuple(accumulate(net[::-1]))[::-1]


def _shape(leaves, lcps=None):
    """The forks of the tree of words with these sorted leaves, whose
    neighbour LCPs (see _neighbour_lcps) are read when not given.

    The leaves below a word are contiguous, and two neighbours sharing h
    letters part at the branching word of those letters, so a branching
    word of length h is a run of leaves sharing h letters, split into its
    children where neighbours share no more: the LCP-interval tree of
    Abouelhoda, Kurtz and Ohlebusch (2004), read with a stack of open runs.
    The forks map each branching word, in lexicographic order, to the
    bounds of its children's leaf ranges (child k holds bounds[k]:bounds[k +
    1])."""
    if lcps is None:
        lcps = _neighbour_lcps(leaves)
    found = {}
    tops, runs = [-1], [[]]  # the open runs: their h, increasing, and bounds
    for i, h in enumerate(chain(lcps, [-1]), 1):  # leaves i - 1, i share h
        lo = i - 1
        while tops[-1] > h:
            bounds = runs.pop()
            bounds.append(i)
            lo = bounds[0]
            found[leaves[lo][:tops.pop()]] = bounds
        if tops[-1] == h:
            runs[-1].append(i)
        else:
            tops.append(h)
            runs.append([lo, i])
    return {v: found[v] for v in sorted(found)}


def _skeleton(forks, N):
    """The root and the branching words below level N in lexicographic
    order, so that ties go to the least child, the index of each one's
    longest branching proper prefix (the root for none) and its level."""
    words = sorted({"", *(v for v in forks if len(v) < N)})
    parent = [0] * len(words)
    stack = [0]
    for i in range(1, len(words)):
        while not words[i].startswith(words[stack[-1]]):
            stack.pop()
        parent[i] = stack[-1]
        stack.append(i)
    return words, parent, [len(w) for w in words]


def table_letters(source, N=None):
    """The letters in all the words of a depth-N table, the sum of
    n * P(n): in closed form for a full shift or a Sturmian spec, whose
    P(n) leaf_count gives, and otherwise from the level counts of a table:
    the table given, whose counts are read once and kept on it, or one on
    the spec's leaves."""
    if isinstance(source, FullShift):
        k = source.k
        if k == 1:
            return N * (N + 1) // 2
        return (N * k ** (N + 2) - (N + 1) * k ** (N + 1) + k) // (k - 1) ** 2
    if isinstance(source, SturmianCF):
        return N * (N + 1) * (N + 2) // 3
    if not isinstance(source, LanguageTable):
        source = LanguageTable(N, *_leaves(source, N))
    return sum(map(mul, count(), source.counts))


def _refuse_large_table(source, N=None):
    """Refuse a table of more than TABLE_LETTER_CAP letters, counted by
    table_letters, before any statistic walks its words."""
    letters = table_letters(source, N)
    if letters > TABLE_LETTER_CAP:
        raise ValueError("table of %d letters exceeds the limit of %d"
                         % (letters, TABLE_LETTER_CAP))


def language_table(spec, N):
    """The admissible words of length <= N for a spec: the tree of words on
    the leaves that _leaves reads, with its flags.  A table of more than
    TABLE_LETTER_CAP letters is refused once its level counts are read, and
    a full shift's or Sturmian spec's before its leaves are read."""
    _refuse_oversized(spec, N)
    if isinstance(spec, (FullShift, SturmianCF)):
        _refuse_large_table(spec, N)
        return LanguageTable(N, *_leaves(spec, N))
    table = LanguageTable(N, *_leaves(spec, N))
    _refuse_large_table(table)
    return table


# ---------------------------------------------------------------------------
# statistics on tables


def right_special_words(table, n):
    """Length-n words with at least two one-letter right extensions: the
    common prefixes of the neighbouring leaves that share n letters."""
    if n < 0:
        raise OutOfDepthError("need length %d >= 0" % n)
    if n >= table.depth:
        raise OutOfDepthError("need length %d < depth %d" % (n, table.depth))
    return set(table.right_special[n])


def complexity_profile(table):
    """The complexity counts P(n) and their increments g(n) = P(n+1) - P(n)."""
    P = table.counts
    g = tuple(P[n + 1] - P[n] for n in range(table.depth))
    return P, g


def border_array(w):
    """Failure function: b[i] = length of the longest proper border of w[:i]."""
    n = len(w)
    b = [0] * (n + 1)
    k = 0
    for i in range(1, n):
        while k and w[i] != w[k]:
            k = b[k]
        if w[i] == w[k]:
            k += 1
        b[i + 1] = k
    return b


# ---------------------------------------------------------------------------
# family structure: level counts and branching chains


class ScaledPowers(Sequence):
    """The exact integers scale * k^n for start <= n < stop, read-only.

    They are made one at a time by repeated multiplication as the sequence
    is iterated, so a full shift's level counts hold a few small integers,
    not Theta(N^2) bits of them; with k = 1 they are the constant scale, as
    a Sturmian spec's counts are.  Length, indexing, step-1 slicing
    (another ScaledPowers) and equality behave as on the tuple of the same
    integers.
    """

    __slots__ = ("scale", "k", "start", "stop")

    def __init__(self, scale, k, stop, start=0):
        self.scale, self.k, self.start, self.stop = scale, k, start, stop

    def __len__(self):
        return self.stop - self.start

    def __getitem__(self, i):
        if isinstance(i, slice):
            lo, hi, step = i.indices(len(self))
            if step != 1:
                return tuple(self)[i]
            return ScaledPowers(self.scale, self.k, self.start + max(lo, hi),
                                self.start + lo)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("ScaledPowers index out of range")
        return self.scale * self.k ** (self.start + i)

    def __iter__(self):
        x = self.scale * self.k ** self.start
        for _ in range(len(self)):
            yield x
            x *= self.k

    def __eq__(self, other):
        if not isinstance(other, (tuple, ScaledPowers)):
            return NotImplemented
        if isinstance(other, ScaledPowers) and (
                self.scale, self.k, self.start, self.stop) == (
                other.scale, other.k, other.start, other.stop):
            return True
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return "ScaledPowers(%r, %r, %r, %r)" % (self.scale, self.k,
                                                  self.stop, self.start)


@dataclass(frozen=True)
class LevelProfile:
    """Per-level counts needed by the zeta series.

    P[n] is the word count at length n (0..N); for n below N, edge_weight[n]
    is sum of a(v)(a(v)+1) over level-n vertices, g[n] = P(n+1) - P(n) and
    branching[n] counts the level-n vertices with a(v) > 0 (the right
    special words).  Counts are exact integers, held in tuples, or in
    ScaledPowers where they have a closed form: every series of a full
    shift, and a Sturmian spec's g, edge_weight and branching, the
    constants 1, 2 and 1 (k = 1).  A Sturmian P(n) = n + 1 is a tuple.
    """

    depth: int
    P: tuple
    g: tuple
    edge_weight: tuple
    branching: tuple


def level_profile(source, N=None):
    """Level counts from a spec or a language table (the tree of words).

    Full shifts (every word branches k ways) and Sturmian specs (one binary
    branching word per length) use closed forms, so that depths in the
    thousands stay cheap; anything else is read from its sorted leaves: a
    table's from its counts and forks, read once and kept on it, and a
    spec's from those of a table on its leaves, whose levels are never
    built.
    """
    if isinstance(source, LanguageTable):
        table = source
    elif N is None:
        raise ValueError("a spec source needs an explicit depth")
    elif isinstance(source, FullShift):
        k = source.k
        return LevelProfile(N, ScaledPowers(1, k, N + 1),
                            ScaledPowers(k - 1, k, N),
                            ScaledPowers(k * (k - 1), k, N),
                            ScaledPowers(int(k > 1), k, N))
    elif isinstance(source, SturmianCF):
        ones = ScaledPowers(1, 1, N)
        return LevelProfile(N, tuple(range(1, N + 2)), ones,
                            ScaledPowers(2, 1, N), ones)
    else:
        table = LanguageTable(N, *_leaves(source, N))
    N, P = table.depth, table.counts
    edge, branching = [0] * N, [0] * N
    for v, bounds in table.forks.items():
        edge[len(v)] += (len(bounds) - 1) * (len(bounds) - 2)
        branching[len(v)] += 1
    g = tuple(P[n + 1] - P[n] for n in range(N))
    return LevelProfile(N, P, g, tuple(edge), tuple(branching))


def leaf_count(spec, N):
    """The number of depth-N words in closed form, level_profile's P[N]
    with no other level: k^N for a full shift and N + 1 for a Sturmian
    spec; None for any other spec, whose count is its sorted leaves."""
    if isinstance(spec, FullShift):
        return spec.k ** N
    if isinstance(spec, SturmianCF):
        return N + 1
    return None


class RecentValues:
    """A few values under their keys; past size, the least recently used
    one is dropped."""

    def __init__(self, size):
        self.size = size
        self.entries = {}  # the most recently used last

    def get(self, key):
        value = self.entries.pop(key, None)
        if value is not None:
            self.entries[key] = value
        return value

    def put(self, key, value):
        self.entries.pop(key, None)
        self.entries[key] = value
        if len(self.entries) > self.size:
            del self.entries[next(iter(self.entries))]
        return value


def spec_key(spec):
    """A spec's type and repr: a key for a spec with list fields too, which
    has no hash, that follows such fields if they change."""
    return type(spec), repr(spec)


# (depth, chain) of the specs whose branching chains were built last
_CHAINS = RecentValues(8)


def _branching_chain(spec, N):
    """(reversed branching path, its failure array) at least N deep for a
    full shift or Sturmian spec; None for any other family.

    A Sturmian path's branching prefixes form a border chain of the suffixes
    of the characteristic word, encoded by the failure array of its reversal.
    In a full shift the path a^N attains every maximum, and its failure
    array border_array("a" * N) is fail[m] = m - 1.  The chain at depth N is
    a prefix of every deeper one, so each spec's chain is built once and
    read at every depth up to the one it was built for.
    """
    if not isinstance(spec, (FullShift, SturmianCF)):
        return None
    key = spec_key(spec)
    entry = _CHAINS.get(key)
    if entry is None or entry[0] < N:
        entry = _CHAINS.put(key, (N, _build_chain(spec, N)))
    return entry[1]


def _build_chain(spec, N):
    if isinstance(spec, FullShift):
        return ("", [0]) if spec.k == 1 else ("a" * N, [0, *range(N)])
    word = sturmian_characteristic(spec, max(N, 2))[::-1][:N]
    return word, border_array(word)


REPULSIVENESS_INF = float("inf")


def repulsiveness_estimates(table, N=None):
    """Minimal relative overlap gap over prefix-and-suffix pairs.

    l_hat minimizes (|W| - |w|) / |w| over pairs w != W in the table with
    |W| <= N and w both a prefix and a suffix of W; l_hat_R does the same
    with both words required to be right special.  Candidate w for a fixed
    W is its longest proper border (longest right-special border for the
    restricted variant).  Returns (l_hat, l_hat_R, witnesses) where
    witnesses maps each estimate name to its minimizing pair or None; ties
    go to the shorter W, then to the lexicographically lesser.

    Every word is a prefix of a leaf, and the words first met at a leaf
    are its prefixes longer than the letters it shares with the leaf
    before it, met in lexicographic order.  So one Knuth-Morris-Pratt
    failure array, cut back to those shared letters and extended along
    each leaf in turn, gives every word's longest border once, and no word
    is kept.  The table is a language, so it is closed under taking
    factors: being suffix-closed, every suffix of a right-special word is
    right special, so the longest border of a right-special W is the
    restricted candidate as well.
    """
    if N is None:
        N = table.depth
    if N > table.depth:
        raise OutOfDepthError("N exceeds table depth")
    special = table.right_special
    # (ratio, |W|, leaf, |w|) of the least pair met so far, of each kind;
    # the restricted one is never less
    best = best_rs = (REPULSIVENESS_INF, 0, None, 0)
    worst = REPULSIVENESS_INF
    # the failure array of the current leaf's prefixes: fail[m] is the
    # longest proper border of the first m letters, and fail[0] = -1
    fail = [-1]
    append = fail.append
    for leaf, h in zip(table.sorted_leaves, chain([0], table.lcps)):
        del fail[h + 1:]
        k = fail[-1]
        for n, letter in enumerate(leaf[h:N], h + 1):
            while k >= 0 and leaf[k] != letter:
                k = fail[k]
            k += 1
            append(k)
            if not k:
                continue
            ratio = (n - k) / k
            if ratio <= worst:
                if ratio < best[0] or ratio == best[0] and n < best[1]:
                    best = (ratio, n, leaf, k)
                if (ratio < worst or n < best_rs[1]) and n < table.depth \
                        and leaf[:n] in special[n]:
                    best_rs = (ratio, n, leaf, k)
                    worst = ratio
    witnesses = {name: None if leaf is None else (leaf[:k], leaf[:n])
                 for name, (_, n, leaf, k) in (("l_hat", best),
                                               ("l_hat_R", best_rs))}
    return best[0], best_rs[0], witnesses


def _words_of_length(leaves, n):
    """The length-n words in lexicographic order, made one at a time: the
    length-n prefix of a leaf, then a bisection past the leaves that share
    it."""
    i = 0
    while i < len(leaves):
        if len(leaves[i]) < n:
            i += 1
            continue
        word = leaves[i][:n]
        yield word
        i = bisect_right(leaves, word, i, key=itemgetter(slice(n)))


def repetitivity_estimate(table, n):
    """Smallest n' <= depth such that every length-n' word contains every
    length-n word as a factor; None when no such n' exists in the table.
    There is no word longer than the longest leaf."""
    if n < 0:
        raise OutOfDepthError("need length %d >= 0" % n)
    if n >= table.depth + 1:
        raise OutOfDepthError("n exceeds table depth")
    leaves = table.sorted_leaves
    targets = list(_words_of_length(leaves, n))
    for np in range(n, max(map(len, leaves)) + 1):
        if all(all(t in h for t in targets)
               for h in _words_of_length(leaves, np)):
            return np
    return None
