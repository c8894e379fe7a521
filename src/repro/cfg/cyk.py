"""CYK recognition on the packed kernel core — the Figure-8 CFG row.

Classic O(|G| * n^3) bottom-up dynamic programming over a CNF grammar,
run one span length at a time with every child pair and every start
combined in one batched kernel call.

Representation: two packed *fences* per nonterminal over fence
positions ``0..n``.  In the forward fence ``fwd[b, i]`` (one row per
start fence, bits indexing end fences) bit *j* means *b* derives
``words[i:j]``; the backward fence ``bwd[b, j]`` is its transpose (one
row per end fence, bits indexing start fences), with bit *i* meaning
the same thing.  For a binary rule ``A -> B C`` and a span
``words[i:i+length]``, the AND of ``fwd[B, i]`` and ``bwd[C, i+length]``
keeps exactly the split fences *k* with B deriving ``words[i:k]`` and C
deriving ``words[k:i+length]``, so the span is derivable iff the rows
intersect.  One :meth:`~repro.kernels.backend.KernelBackend.rows_intersect`
call per span length answers that for every distinct child pair and
every start at once; a pair->lhs incidence product turns the hits into
new (A, start) spans, and one scatter sets them in both fences.

Spans found at the current length cannot leak into its own step: a new
bit in ``fwd[B, i]`` sits at fence ``i+length``, where it could only
meet bit ``i+length`` of ``bwd[C, i+length]`` — an empty span, which
is never set (and symmetrically for ``bwd``).  So the fences agree bit
for bit with the length-by-length set-based chart
(:func:`cyk_parse_sets`, kept as the oracle).

An earlier formulation computed a full (n+1)x(n+1) Boolean matrix
product per span length and child pair — the Valiant/Lee form — and
then read one diagonal of it: n full products per pair where CYK needs
one diagonal each.  The BMM reduction bounds sub-cubic *recursive* CFG
parsing; a length-by-length loop only ever needs the diagonal, which
is why :mod:`repro.kernels` has no BMM kernel for it to call.

The chart is read out of ``fwd``; each distinct cell membership becomes
one shared frozenset.  ``split_operations`` counts the same (length,
split, rule) combination steps the textbook loop performs — input-shape
arithmetic independent of chart content, so both implementations report
identical values.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from repro.cfg.grammar import CFG
from repro.errors import GrammarError
from repro.kernels import bitops
from repro.kernels.backend import KernelBackend, create_backend


@dataclass
class CYKResult:
    accepted: bool
    chart_sets: list[list[frozenset[str]]]  # chart_sets[i][j]: span i..j (incl.)
    split_operations: int  # counted (length, split, rule) combination steps
    kernel_backend: str | None = None  # None on the set-based oracle path


@dataclass(frozen=True)
class _CNFTables:
    """One CNF grammar compiled for CYK (both implementations share it)."""

    nts: tuple[str, ...]  # sorted nonterminals; bit/axis index = position
    start: int
    accepts_empty: bool
    lexicon: dict[str, tuple[int, ...]]  # terminal -> nonterminals deriving it
    binary: tuple[tuple[int, int, int], ...]  # (lhs, left, right) per rule
    pair_left: np.ndarray  # (P,) left child of each distinct child pair
    pair_right: np.ndarray  # (P,) right child
    pair_lhs: np.ndarray  # (P, |N|) bool: pair p feeds some rule A -> B_p C_p


#: One compiled form per live grammar object; entries die with the grammar.
_TABLES: "weakref.WeakKeyDictionary[CFG, _CNFTables]" = weakref.WeakKeyDictionary()


def _cnf_tables(grammar: CFG) -> _CNFTables:
    """The CYK tables of *grammar*, built once per (immutable) grammar.

    Raises:
        GrammarError: if *grammar* is not in CNF.
    """
    cached = _TABLES.get(grammar)
    if cached is not None:
        return cached
    if not grammar.is_cnf():
        raise GrammarError("CYK requires a CNF grammar; call to_cnf() first")
    nts = tuple(sorted(grammar.nonterminals))
    nt_index = {nt: i for i, nt in enumerate(nts)}
    lexicon: dict[str, list[int]] = {}
    binary = []
    for p in grammar.productions:
        if len(p.rhs) == 1:
            lexicon.setdefault(p.rhs[0], []).append(nt_index[p.lhs])
        elif len(p.rhs) == 2:
            binary.append((nt_index[p.lhs], nt_index[p.rhs[0]], nt_index[p.rhs[1]]))
    pairs = sorted({(left, right) for _, left, right in binary})
    pair_of = {pair: k for k, pair in enumerate(pairs)}
    pair_lhs = np.zeros((len(pairs), len(nts)), dtype=bool)
    for lhs, left, right in binary:
        pair_lhs[pair_of[left, right], lhs] = True
    tables = _CNFTables(
        nts=nts,
        start=nt_index[grammar.start],
        accepts_empty=any(
            p.lhs == grammar.start and not p.rhs for p in grammar.productions
        ),
        lexicon={t: tuple(members) for t, members in lexicon.items()},
        binary=tuple(binary),
        pair_left=np.array([left for left, _ in pairs], dtype=np.intp),
        pair_right=np.array([right for _, right in pairs], dtype=np.intp),
        pair_lhs=pair_lhs,
    )
    _TABLES[grammar] = tables
    return tables


def _split_operations(tables: _CNFTables, n: int) -> int:
    """The textbook loop's (length, split, rule) step count.

    Sum over span lengths ``l`` of ``starts * splits = (n-l+1) * (l-1)``
    per rule, which is ``C(n+1, 3)``.
    """
    return len(tables.binary) * math.comb(n + 1, 3)


def cyk_parse(
    grammar: CFG,
    words: list[str] | tuple[str, ...],
    *,
    backend: "str | KernelBackend | None" = None,
) -> CYKResult:
    """Recognize *words* with CYK on the packed kernel core.

    Args:
        grammar: a CNF grammar.
        backend: kernel backend for the span-combination step (see
            :mod:`repro.kernels.backend`); None resolves the default.

    Raises:
        GrammarError: if *grammar* is not in CNF.
    """
    kernels = create_backend(backend)
    tables = _cnf_tables(grammar)
    n = len(words)
    if n == 0:
        return CYKResult(tables.accepts_empty, [], 0, kernels.name)

    n_nts = len(tables.nts)
    fence_words = -(-(n + 1) // bitops.WORD_BITS)
    # fwd[b, i]: end fences j with b =>* words[i:j];
    # bwd[b, j]: start fences i with b =>* words[i:j].
    fwd = np.zeros((n_nts, n + 1, fence_words), dtype=bitops.WORD_DTYPE)
    bwd = np.zeros_like(fwd)
    lexical = [(b, i) for i, word in enumerate(words) for b in tables.lexicon.get(word, ())]
    if lexical:
        nt, start = np.array(lexical, dtype=np.int64).T
        bitops.set_bits(fwd, (nt, start), start + 1)
        bitops.set_bits(bwd, (nt, start + 1), start)

    left = tables.pair_left[:, None]
    right = tables.pair_right[:, None]
    feeds = tables.pair_lhs.T
    for length in range(2, n + 1):
        starts = np.arange(n - length + 1)
        # hit[p, i]: some split k has B_p =>* words[i:k], C_p =>* words[k:i+length].
        hit = kernels.rows_intersect(fwd[left, starts], bwd[right, starts + length])
        nt, start = np.nonzero(feeds @ hit)
        if len(nt):
            bitops.set_bits(fwd, (nt, start), start + length)
            bitops.set_bits(bwd, (nt, start + length), start)

    chart_sets = _read_chart(tables.nts, fwd, n)
    accepted = bitops.test_bit(fwd[tables.start, 0], n)
    return CYKResult(accepted, chart_sets, _split_operations(tables, n), kernels.name)


def _read_chart(
    nts: tuple[str, ...], fwd: np.ndarray, n: int
) -> list[list[frozenset[str]]]:
    """``chart[i][j]``: the nonterminals deriving ``words[i:j+1]``.

    Cells repeat memberships heavily (every ``j < i`` cell is empty), so
    each distinct membership becomes one frozenset shared by its cells.
    """
    # [a, i, j]: a derives words[i:j+1] -- bit j+1 of fwd[a, i].
    membership = bitops.unpack_bits(fwd[:, :n], n + 1)[:, :, 1:]
    cells = bitops.pack_bits(membership.transpose(1, 2, 0).reshape(n * n, len(nts)))
    if cells.shape[1] == 1:
        # One word per cell: a flat sort, far cheaper than row-wise unique.
        distinct, inverse = np.unique(cells[:, 0], return_inverse=True)
        distinct = distinct[:, None]
    else:
        distinct, inverse = np.unique(cells, axis=0, return_inverse=True)
    sets = [
        frozenset(nts[a] for a in np.flatnonzero(row))
        for row in bitops.unpack_bits(distinct, len(nts))
    ]
    return [[sets[k] for k in row] for row in inverse.reshape(n, n).tolist()]


def cyk_parse_sets(grammar: CFG, words: list[str] | tuple[str, ...]) -> CYKResult:
    """The pre-kernel set-based CYK, kept as the oracle.

    It shares only the compiled grammar tables with :func:`cyk_parse`.

    The chart is boolean numpy matrices per nonterminal and the inner
    split loop a vectorized AND/any; :func:`cyk_parse` must agree with
    this bit for bit (accepted flag, every chart cell, the operation
    count) — asserted by the test suite and by the benchmark harness
    before any timing.
    """
    tables = _cnf_tables(grammar)
    n = len(words)
    if n == 0:
        return CYKResult(tables.accepts_empty, [], 0)
    nts, binary = tables.nts, tables.binary

    # chart[a, i, j] = nonterminal a derives words[i..j] inclusive.
    chart = np.zeros((len(nts), n, n), dtype=bool)
    for i, word in enumerate(words):
        for a in tables.lexicon.get(word, ()):
            chart[a, i, i] = True

    operations = 0
    for length in range(2, n + 1):
        for i in range(0, n - length + 1):
            j = i + length - 1
            for lhs, left, right in binary:
                # All split points k in one vector operation.
                lefts = chart[left, i, i : j]  # spans (i, k)
                rights = chart[right, i + 1 : j + 1, j]  # spans (k+1, j)
                operations += length - 1
                if (lefts & rights).any():
                    chart[lhs, i, j] = True

    chart_sets = [
        [
            frozenset(nts[a] for a in range(len(nts)) if chart[a, i, j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    accepted = bool(chart[tables.start, 0, n - 1])
    return CYKResult(accepted, chart_sets, operations)


def cyk_accepts(grammar: CFG, words) -> bool:
    return cyk_parse(grammar, list(words)).accepted
