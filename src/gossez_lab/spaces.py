"""Exact sequence spaces and couplings.

Every value is an exact rational; no operation here ever rounds.  The
representations store integer numerators over one least common
denominator and build ``fractions.Fraction`` values only at the API
boundary.  Three value representations cover the spaces in play:

- ``SparseSeq``: a finitely supported rational sequence, the computable slice
  of the summable sequences l1.  Indices are 1-based.  It stores its
  support, one integer numerator per support index and one denominator.
- ``TailSeq``: a finite head followed by an eventually periodic tail, the
  computable slice of the bounded sequences l-infinity.  Its values are
  integer numerators over one least common denominator, and the head is
  stored as runs of equal numerators.  A TailSeq converges exactly when
  its (canonical) tail pattern has length one.
- ``ModelMeasure``: an atomic part (SparseSeq) plus one rational mass acting
  as the limit functional on convergent sequences; the computable slice of
  the dual of l-infinity.

Two dual systems are supported: FIRST pairs SparseSeq with TailSeq through
the series coupling sum x_n*y_n, SECOND pairs ModelMeasure with TailSeq
through the measure action.  ``PairPoint`` tags a product-space point with
its system, and ``natural_couple`` implements the induced coupling
z.w = c(x_z, y_w) + c(x_w, y_z) on pairs.

The hot kernels do no ``Fraction`` arithmetic.  ``couple``,
``pair_measure`` and ``natural_couple`` take one integer dot product of
the numerators and build one normalised ``Fraction`` at the end;
``natural_couple_terms`` stops before it, for callers that only test a
sign or a zero.  The
``SparseSeq`` kernels (sums, negation, scaling, sums of entries, the l1
norm, equality and hashing) and the ``TailSeq`` kernels (sums, negation,
scaling, equality, hashing, the sup norm and the canonical trim) work on
the integers, so an image of G costs O(|supp x|) however far its support
reaches.  ``Fraction`` values appear only at the boundary: ``value``,
``limit``, the norms, the cached ``SparseSeq.entries`` and
``TailSeq.run_values``/``tail`` views and ``TailSeq.head``.  Only this
module and the G kernels of ``gossez`` touch runs; other callers build a
TailSeq with ``_from_values`` or ``_from_sparse`` and read it with ``_dense``
(integer numerators at 1..N, like ``head`` and ``to_json`` a dense expansion).

All types are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
import operator
import re
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import cycle, groupby, islice, repeat
from typing import Iterable, Union


class OutsideModelDomain(Exception):
    """Raised when a measure with nonzero mass at infinity meets a
    non-convergent sequence: the limit functional is undefined there and
    assigning a Banach-limit value would be an arbitrary choice."""


class SystemMismatchError(ValueError):
    """Raised when points from different dual systems are paired."""


RationalLike = Union[Fraction, int]

_set = object.__setattr__
_ZERO = Fraction(0)


def as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def format_rational(value: Fraction) -> str:
    """Serialize a rational as the canonical string "p/q" (q always present)."""
    return f"{value.numerator}/{value.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a bare integer string, the forms ``format_rational`` writes.

    Anything else, a float or a JSON ``true`` included, is rejected rather
    than converted: a binary fraction or a bool is not an exact input.
    """
    if text.__class__ is not str:
        raise TypeError(f"expected a rational string, got {type(text).__name__}")
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"expected a rational 'p/q' or an integer, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class SparseSeq:
    """Finitely supported rational sequence, indexed from 1.

    Stored as integers: ``indices`` holds the support, strictly increasing;
    ``nums`` one nonzero numerator per index; ``den`` the one denominator
    they share, the least positive one, so gcd(den, *nums) == 1.  Equal
    sequences therefore have equal fields.  ``entries`` is the same
    sequence as sorted ``(index, Fraction)`` pairs, built on first read and
    cached; the kernels read only the integers.
    """

    __slots__ = ("indices", "nums", "den", "_entries")

    def __init__(self, entries: Iterable[tuple[int, RationalLike]] = ()) -> None:
        kept = []
        seen: set[int] = set()
        for index, value in entries:
            # An exact int skips both isinstance calls.
            if (
                index.__class__ is not int
                and (not isinstance(index, int) or isinstance(index, bool))
                or index < 1
            ):
                raise ValueError(f"indices are 1-based integers, got {index!r}")
            if index in seen:
                raise ValueError(f"duplicate index {index}")
            seen.add(index)
            if value.__class__ is int:
                if value:
                    kept.append((index, value, 1))
                continue
            if value.__class__ is not Fraction:
                value = as_fraction(value)
            # The slots behind Fraction.numerator and .denominator: two
            # property calls per value would cost more than the rest of the loop.
            num = value._numerator
            if num:
                kept.append((index, num, value._denominator))
        kept.sort()
        indices, nums, dens = zip(*kept) if kept else ((), (), ())
        # The lcm of reduced denominators is the least common one: no gcd pass.
        den = math.lcm(*dens)
        if den != 1:
            nums = tuple([n * (den // d) for n, d in zip(nums, dens)])
        _set(self, "indices", indices)
        _set(self, "nums", nums)
        _set(self, "den", den)

    @staticmethod
    def _from_ints(indices: tuple[int, ...], nums: tuple[int, ...], den: int) -> SparseSeq:
        """A kernel's result: strictly increasing indices, nonzero integer
        numerators over den > 0; reduced here to the least denominator."""
        if den != 1:
            # gcd(*nums) takes the tuple as it is; gcd(den, *nums) would copy it.
            common = math.gcd(math.gcd(*nums), den)
            if common != 1:
                den //= common
                nums = tuple([n // common for n in nums])
        seq = object.__new__(SparseSeq)
        _set(seq, "indices", indices)
        _set(seq, "nums", nums)
        _set(seq, "den", den)
        return seq

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"SparseSeq is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"SparseSeq is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return SparseSeq._from_ints, (self.indices, self.nums, self.den)

    def __repr__(self) -> str:
        return f"SparseSeq(entries={self.entries!r})"

    @property
    def entries(self) -> tuple[tuple[int, Fraction], ...]:
        """(index, Fraction) pairs sorted by index, no zero values; built once."""
        try:
            return self._entries
        except AttributeError:
            den = self.den
            entries = tuple(zip(self.indices, [Fraction(n, den) for n in self.nums]))
            _set(self, "_entries", entries)
            return entries

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, RationalLike]]) -> SparseSeq:
        return SparseSeq(pairs)

    @staticmethod
    def from_values(values: Iterable[RationalLike]) -> SparseSeq:
        """Build from consecutive values starting at index 1."""
        return SparseSeq(enumerate(values, start=1))

    @staticmethod
    def unit(index: int) -> SparseSeq:
        """The unit vector e_index."""
        return SparseSeq(((index, 1),))

    @staticmethod
    def zero() -> SparseSeq:
        return SparseSeq()

    def value(self, index: int) -> Fraction:
        indices = self.indices
        i = bisect_left(indices, index)
        if i == len(indices) or indices[i] != index:
            return _ZERO
        try:
            return self._entries[i][1]
        except AttributeError:
            return self.entries[i][1]

    def max_index(self) -> int:
        """Largest support index, 0 for the zero sequence."""
        return self.indices[-1] if self.indices else 0

    def is_zero(self) -> bool:
        return not self.indices

    def entry_sum(self) -> Fraction:
        return Fraction(sum(self.nums), self.den)

    def l1_norm(self) -> Fraction:
        return Fraction(sum(map(abs, self.nums)), self.den)

    def __eq__(self, other: object) -> bool:
        # Canonical forms decide equality.
        if other.__class__ is not SparseSeq:
            return NotImplemented
        return self.indices == other.indices and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.indices, self.nums, self.den))

    def _merge(self, other: SparseSeq, sign: int) -> SparseSeq:
        """self + sign * other on numerators over the lcm of both denominators."""
        den = math.lcm(self.den, other.den)
        mine, theirs = den // self.den, (den // other.den) * sign
        total = dict(zip(self.indices, [n * mine for n in self.nums]))
        for n, v in zip(other.indices, other.nums):
            total[n] = total.get(n, 0) + v * theirs
        indices = sorted(total)
        nums = [total[n] for n in indices]
        if 0 in nums:  # cancelled at a shared index
            indices = [n for n, v in zip(indices, nums) if v]
            nums = [v for v in nums if v]
        return SparseSeq._from_ints(tuple(indices), tuple(nums), den)

    def __add__(self, other: SparseSeq) -> SparseSeq:
        return self._merge(other, 1)

    def __sub__(self, other: SparseSeq) -> SparseSeq:
        return self._merge(other, -1)

    def __neg__(self) -> SparseSeq:
        return SparseSeq._from_ints(self.indices, tuple([-n for n in self.nums]), self.den)

    def scale(self, factor: RationalLike) -> SparseSeq:
        factor = as_fraction(factor)
        if not factor:
            return SparseSeq()
        p = factor.numerator
        return SparseSeq._from_ints(
            self.indices, tuple([n * p for n in self.nums]), self.den * factor.denominator
        )

    def to_json(self) -> dict:
        return {"entries": [[n, format_rational(v)] for n, v in self.entries]}

    @staticmethod
    def from_json(obj: dict) -> SparseSeq:
        return SparseSeq.from_pairs((n, parse_rational(v)) for n, v in obj["entries"])


def _minimal_period(pattern: tuple[int, ...]) -> tuple[int, ...]:
    length = len(pattern)
    for d in range(1, length + 1):
        if length % d == 0 and pattern == pattern[:d] * (length // d):
            return pattern[:d]
    return pattern


def _expand(values: Iterable, ends: tuple[int, ...]) -> list:
    """The dense values of runs: values[i] repeated up to index ends[i]."""
    dense, start = [], 0
    for v, end in zip(values, ends):
        dense += repeat(v, end - start)
        start = end
    return dense


def _runs(values: Iterable) -> tuple[tuple[int, ...], tuple]:
    """(ends, values) of the runs of equal neighbours: ``_expand`` inverted."""
    ends, kept, length = [], [], 0
    for v, run in groupby(values):
        length += len(list(run))
        ends.append(length)
        kept.append(v)
    return tuple(ends), tuple(kept)


class TailSeq:
    """Bounded sequence with a finite head and an eventually periodic tail.

    Every value is stored as an integer numerator over one common
    denominator ``den``.  The head covers indices 1..H and is stored as
    runs: ``run_ends`` holds strictly increasing end indices (the last is
    H) and ``run_nums`` one numerator per run, adjacent numerators
    distinct; run i covers the indices after ``run_ends[i - 1]`` up to
    ``run_ends[i]``.  For n > H the numerator is
    ``tail_nums[(n - H - 1) % len(tail_nums)]``; a constant tail is the
    pattern of length one.

    Construction canonicalizes: the pattern is reduced to its minimal
    period, the head is trimmed to the minimal preperiod (a head element
    equal to the value the tail would produce there is absorbed into the
    cycle), and ``den`` is the least positive denominator, so that
    gcd(den, *run_nums, *tail_nums) == 1.  Structural equality of
    canonical forms therefore decides semantic equality of the represented
    sequences.

    ``run_values`` and ``tail`` are the same values as ``Fraction``
    tuples, built on first read and cached; ``head`` expands the runs
    densely on each read.  The kernels need none of them.  Gx has at most
    2*|supp x| + 1 runs however far its support reaches, so the kernels
    work per run on Python ints: ``value`` is one bisect, and sums,
    negation, scaling, equality, hashing and the sup norm cost O(runs).
    """

    __slots__ = ("run_ends", "run_nums", "tail_nums", "den", "_head_len", "_run_values", "_tail")

    def __init__(
        self, head: Iterable[RationalLike] = (), tail: Iterable[RationalLike] = (Fraction(0),)
    ) -> None:
        # Kernel results are Fractions already; only other values convert.
        head = [v if v.__class__ is Fraction else as_fraction(v) for v in head]
        tail = tuple(v if v.__class__ is Fraction else as_fraction(v) for v in tail)
        if not tail:
            raise ValueError("tail pattern must be nonempty")
        ends, values = _runs(head)
        # One lcm over the runs and the pattern, not over the dense values.
        den = math.lcm(*{v.denominator for v in values}, *{v.denominator for v in tail})
        self.__post_init__(
            ends,
            tuple(v.numerator * (den // v.denominator) for v in values),
            tuple(v.numerator * (den // v.denominator) for v in tail),
            den,
        )

    @staticmethod
    def _from_runs(
        ends: tuple[int, ...], nums: tuple[int, ...], tail: tuple[int, ...], den: int
    ) -> TailSeq:
        """A kernel's result: integer runs over den > 0, adjacent numerators
        distinct, nonempty tail."""
        seq = object.__new__(TailSeq)
        seq.__post_init__(ends, nums, tail, den)
        return seq

    @staticmethod
    def _from_values(head: Iterable[int], tail: Iterable[int], den: int) -> TailSeq:
        """Integer numerators over den > 0: a dense head at indices
        1..len(head), its equal neighbours merged into runs, then a
        nonempty tail pattern."""
        return TailSeq._from_runs(*_runs(head), tuple(tail), den)

    @staticmethod
    def _from_sparse(indices: Iterable[int], nums: Iterable[int], den: int) -> TailSeq:
        """Nonzero integer numerators over den > 0 at strictly increasing
        indices, zero elsewhere and in the tail: one run per point and one
        per gap, so the cost is O(support) however far the indices reach."""
        ends, runs = [0], [0]  # an empty zero run before index 1
        for n, v in zip(indices, nums):
            if n - 1 > ends[-1]:  # a zero gap; it never equals a value
                ends.append(n - 1)
                runs.append(0)
            if runs[-1] == v:
                ends[-1] = n
            else:
                ends.append(n)
                runs.append(v)
        return TailSeq._from_runs(tuple(ends[1:]), tuple(runs[1:]), (0,), den)

    def __post_init__(
        self, ends: tuple[int, ...], nums: tuple[int, ...], tail: tuple[int, ...], den: int
    ) -> None:
        """Store runs and pattern in canonical form: minimal period, minimal
        preperiod, then least denominator.

        The one construction hook of both the public and the kernel path.
        """
        if len(tail) > 1:
            tail = _minimal_period(tail)
        period = len(tail)
        if period == 1 and nums and nums[-1] == tail[0]:
            # A run equal to the constant tail is absorbed whole; the run
            # before it differs from it.
            ends, nums = ends[:-1], nums[:-1]
        length = keep = ends[-1] if ends else 0
        if period > 1:
            # The pattern is not constant, so the trim stops within one
            # period of entering a run: O(period) steps per run crossed.
            run = len(ends) - 1
            while keep and nums[run] == tail[(keep - length - 1) % period]:
                keep -= 1
                if run and keep == ends[run - 1]:
                    run -= 1
            if keep != length:
                cut = bisect_left(ends, keep)  # the run holding index keep
                ends = ends[:cut] + (keep,) if keep else ()
                nums = nums[: cut + 1] if keep else ()
                shift = (length - keep) % period
                if shift:
                    tail = tail[-shift:] + tail[:-shift]
        # Every trimmed value recurs in the pattern, so the trim leaves the
        # gcd alone; it is taken over what is left.
        if den != 1:
            common = math.gcd(math.gcd(*nums), math.gcd(*tail), den)
            if common != 1:
                den //= common
                nums = tuple([n // common for n in nums])
                tail = tuple([t // common for t in tail])
        set_attr = object.__setattr__
        set_attr(self, "run_ends", ends)
        set_attr(self, "run_nums", nums)
        set_attr(self, "tail_nums", tail)
        set_attr(self, "den", den)
        set_attr(self, "_head_len", keep)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"TailSeq is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"TailSeq is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return TailSeq._from_runs, (self.run_ends, self.run_nums, self.tail_nums, self.den)

    def __repr__(self) -> str:
        runs = tuple(zip(self.run_ends, self.run_values))
        return f"TailSeq(runs={runs!r}, tail={self.tail!r})"

    def _cache(self, slot: str, nums: tuple[int, ...]) -> tuple[Fraction, ...]:
        den = self.den
        values = tuple(Fraction(n, den) for n in nums)
        object.__setattr__(self, slot, values)
        return values

    @property
    def run_values(self) -> tuple[Fraction, ...]:
        """One Fraction per run (run_nums over den), built once."""
        try:
            return self._run_values
        except AttributeError:
            return self._cache("_run_values", self.run_nums)

    @property
    def tail(self) -> tuple[Fraction, ...]:
        """The tail pattern as Fractions (tail_nums over den), built once."""
        try:
            return self._tail
        except AttributeError:
            return self._cache("_tail", self.tail_nums)

    @property
    def head(self) -> tuple[Fraction, ...]:
        """Values at indices 1..head_len(), expanded from the runs on each read.

        Not cached: a dense head kept alive costs O(head length) memory per
        sequence read this way.
        """
        return tuple(_expand(self.run_values, self.run_ends))

    @staticmethod
    def constant(value: RationalLike, head: Iterable[RationalLike] = ()) -> TailSeq:
        return TailSeq(tuple(head), (as_fraction(value),))

    @staticmethod
    def periodic(pattern: Iterable[RationalLike], head: Iterable[RationalLike] = ()) -> TailSeq:
        return TailSeq(tuple(head), tuple(pattern))

    @staticmethod
    def zero() -> TailSeq:
        return TailSeq._from_runs((), (), (0,), 1)

    @staticmethod
    def ones() -> TailSeq:
        return TailSeq._from_runs((), (), (1,), 1)

    def value(self, index: int) -> Fraction:
        if index < 1:
            raise ValueError("indices are 1-based")
        # The stored head length spares a lookup of run_ends[-1] per read;
        # a slot read of a cached view costs less than the property call.
        head_len = self._head_len
        if index <= head_len:
            try:
                values = self._run_values
            except AttributeError:
                values = self.run_values
            return values[bisect_left(self.run_ends, index)]
        try:
            tail = self._tail
        except AttributeError:
            tail = self.tail
        return tail[(index - head_len - 1) % len(tail)]

    def head_len(self) -> int:
        return self._head_len

    def is_zero(self) -> bool:
        return not self.run_ends and self.tail_nums == (0,)

    def is_convergent(self) -> bool:
        """Whether the represented sequence has a limit (constant tail)."""
        return len(self.tail_nums) == 1

    def limit(self) -> Fraction | None:
        """The limit for a constant tail, None when the tail oscillates."""
        return self.tail[0] if len(self.tail_nums) == 1 else None

    def first_nonzero(self) -> tuple[int, Fraction] | None:
        """(index, value) of the first nonzero entry, None for the zero sequence."""
        ends, nums = self._pieces(self._head_len + len(self.tail_nums))
        for end, num in zip((0,) + ends, nums):  # the end before each piece
            if num:
                return end + 1, Fraction(num, self.den)
        return None

    def __eq__(self, other: object) -> bool:
        # Canonical forms decide equality.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.run_ends == other.run_ends
            and self.den == other.den
            and self.tail_nums == other.tail_nums
            and self.run_nums == other.run_nums
        )

    def __hash__(self) -> int:
        return hash((self.run_ends, self.run_nums, self.tail_nums, self.den))

    def linf_norm(self) -> Fraction:
        # Every run value occurs and every pattern value recurs forever, so
        # the sup norm is a max over finitely many values.
        return Fraction(max(map(abs, self.run_nums + self.tail_nums)), self.den)

    def oscillation(self) -> Fraction:
        """Half the spread of the tail pattern.

        An exact lower bound on the sup-distance to the convergent
        sequences: both the pattern max and the pattern min recur forever,
        and no limit value is within less than half their spread of both.
        """
        return Fraction(max(self.tail_nums) - min(self.tail_nums), 2 * self.den)

    def _pieces(self, upto: int, factor: int = 1) -> tuple[tuple[int, ...], Iterable[int]]:
        """(ends, numerators over den * factor) of pieces covering indices
        1..upto, for upto > head_len(): the runs, then a constant tail as
        one piece or a periodic one as one piece per index."""
        tail, start = self.tail_nums, self._head_len
        if len(tail) == 1:
            ends, nums = self.run_ends + (upto,), self.run_nums + tail
        else:
            ends = self.run_ends + tuple(range(start + 1, upto + 1))
            nums = self.run_nums + tuple(islice(cycle(tail), upto - start))
        if factor != 1:
            nums = [n * factor for n in nums]
        return ends, nums

    def _dense(self, upto: int, factor: int = 1) -> list[int]:
        """The numerators over den * factor at indices 1..upto."""
        ends, nums = self._pieces(max(upto, self._head_len + 1), factor)
        return _expand(nums, ends[: bisect_left(ends, upto) + 1])[:upto]

    def _combine(self, other: TailSeq, op) -> TailSeq:
        # Merge the pieces of both operands over the longer head and one
        # common period, on numerators over the lcm of both denominators;
        # equal neighbouring results merge into one run.
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        head_len = max(self._head_len, other._head_len)
        upto = head_len + math.lcm(len(self.tail_nums), len(other.tail_nums))
        ends_a, nums_a = self._pieces(upto, fa)
        ends_b, nums_b = other._pieces(upto, fb)
        ends: list[int] = []
        nums: list[int] = []
        tail: list[int] = []
        i = j = 0
        end_a, end_b = ends_a[0], ends_b[0]
        while True:
            end = end_a if end_a < end_b else end_b
            v = op(nums_a[i], nums_b[j])
            # Every piece ends at or before head_len or starts after it (the
            # longer head has a run ending there), and one past it is one
            # index long: a tail entry.
            if end > head_len:
                tail.append(v)
                if end == upto:
                    break
            elif nums and v == nums[-1]:
                ends[-1] = end
            else:
                ends.append(end)
                nums.append(v)
            if end_a == end:
                i += 1
                end_a = ends_a[i]
            if end_b == end:
                j += 1
                end_b = ends_b[j]
        return TailSeq._from_runs(tuple(ends), tuple(nums), tuple(tail), den)

    def __add__(self, other: TailSeq) -> TailSeq:
        return self._combine(other, operator.add)

    def __sub__(self, other: TailSeq) -> TailSeq:
        return self._combine(other, operator.sub)

    def __neg__(self) -> TailSeq:
        # Negation keeps runs distinct and the form canonical.
        neg = operator.neg
        return TailSeq._from_runs(
            self.run_ends, tuple(map(neg, self.run_nums)), tuple(map(neg, self.tail_nums)), self.den
        )

    def scale(self, factor: RationalLike) -> TailSeq:
        factor = as_fraction(factor)
        if not factor:
            return TailSeq.zero()
        times = partial(operator.mul, factor.numerator)
        return TailSeq._from_runs(
            self.run_ends,
            tuple(map(times, self.run_nums)),
            tuple(map(times, self.tail_nums)),
            self.den * factor.denominator,
        )

    def to_json(self) -> dict:
        kind = "const" if len(self.tail_nums) == 1 else "periodic"
        return {
            "head": _expand(map(format_rational, self.run_values), self.run_ends),
            "tail": {"kind": kind, "values": [format_rational(v) for v in self.tail]},
        }

    @staticmethod
    def from_json(obj: dict) -> TailSeq:
        head, tail = obj["head"], obj["tail"]
        if not isinstance(tail, dict):
            raise TypeError("tail must be an object with a kind and values")
        kind, values = tail.get("kind"), tail["values"]
        # A string is iterable too: it would read as one-character rationals.
        if not isinstance(head, list) or not isinstance(values, list):
            raise TypeError("head and tail values must be lists of rational strings")
        if kind not in ("const", "periodic") or (kind == "const" and len(values) != 1):
            raise ValueError(f"invalid tail: kind {kind!r} with {len(values)} values")
        # One parse per run of equal strings; the run then shares one Fraction,
        # so __init__ merges it by identity rather than by Fraction.__eq__.
        ends, texts = _runs(head)
        return TailSeq(_expand(map(parse_rational, texts), ends), map(parse_rational, values))


@dataclass(frozen=True)
class ModelMeasure:
    """Finitely many atoms on the integers plus one mass at infinity.

    Acts on a convergent TailSeq y as <atomic, y> + infinity_mass * lim y.
    The mass at infinity models the limit functional; measures with richer
    behaviour at infinity are not representable here.
    """

    atomic: SparseSeq = SparseSeq()
    infinity_mass: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "infinity_mass", as_fraction(self.infinity_mass))

    @staticmethod
    def zero() -> ModelMeasure:
        return ModelMeasure()

    @staticmethod
    def from_atomic(x: SparseSeq) -> ModelMeasure:
        """Canonical embedding of a summable sequence."""
        return ModelMeasure(x, Fraction(0))

    def is_zero(self) -> bool:
        return self.atomic.is_zero() and self.infinity_mass == 0

    def __add__(self, other: ModelMeasure) -> ModelMeasure:
        return ModelMeasure(self.atomic + other.atomic, self.infinity_mass + other.infinity_mass)

    def __sub__(self, other: ModelMeasure) -> ModelMeasure:
        return ModelMeasure(self.atomic - other.atomic, self.infinity_mass - other.infinity_mass)

    def __neg__(self) -> ModelMeasure:
        return ModelMeasure(-self.atomic, -self.infinity_mass)

    def scale(self, factor: RationalLike) -> ModelMeasure:
        factor = as_fraction(factor)
        return ModelMeasure(self.atomic.scale(factor), factor * self.infinity_mass)

    def to_json(self) -> dict:
        return {"atomic": self.atomic.to_json(), "infinity_mass": format_rational(self.infinity_mass)}

    @staticmethod
    def from_json(obj: dict) -> ModelMeasure:
        return ModelMeasure(SparseSeq.from_json(obj["atomic"]), parse_rational(obj["infinity_mass"]))


def _couple_terms(x: SparseSeq, y: TailSeq) -> tuple[int, int]:
    """sum_n x_n * y_n as an unreduced (numerator, denominator > 0) pair.

    One integer dot product of the numerators of x and y, over
    ``x.den * y.den``.
    """
    ends, nums, tail = y.run_ends, y.run_nums, y.tail_nums
    head_len, period = y._head_len, len(tail)
    num = 0
    for n, v in zip(x.indices, x.nums):
        num += v * (nums[bisect_left(ends, n)] if n <= head_len else tail[(n - head_len - 1) % period])
    return num, x.den * y.den


def _measure_terms(mu: ModelMeasure, y: TailSeq) -> tuple[int, int]:
    """<mu, y> as an unreduced (numerator, denominator > 0) pair."""
    num, den = _couple_terms(mu.atomic, y)
    mass = mu.infinity_mass
    if mass:
        if len(y.tail_nums) != 1:
            raise OutsideModelDomain(
                "measure has mass at infinity but the sequence has no limit"
            )
        q = mass.denominator * y.den
        common = math.lcm(den, q)
        num = num * (common // den) + mass.numerator * y.tail_nums[0] * (common // q)
        den = common
    return num, den


def couple(x: SparseSeq, y: TailSeq) -> Fraction:
    """Series coupling sum_n x_n * y_n; finite because x is finitely supported.

    Summed on integer numerators; one normalised Fraction is built at the end.
    """
    return Fraction(*_couple_terms(x, y))


def pair_measure(mu: ModelMeasure, y: TailSeq) -> Fraction:
    """Measure action <mu, y> = <atomic, y> + infinity_mass * lim y.

    Raises OutsideModelDomain when the mass at infinity is nonzero and y
    does not converge.
    """
    return Fraction(*_measure_terms(mu, y))


class DualSystem(Enum):
    """The two dual systems: (l1, linf) and (linf*, linf) in the model."""

    FIRST = "first"
    SECOND = "second"


XPart = Union[SparseSeq, ModelMeasure]


@dataclass(frozen=True)
class PairPoint:
    """A point z = (x, y) of the product space, tagged with its dual system."""

    system: DualSystem
    x: XPart
    y: TailSeq

    def __post_init__(self) -> None:
        expected = SparseSeq if self.system is DualSystem.FIRST else ModelMeasure
        if not isinstance(self.x, expected):
            raise TypeError(
                f"{self.system.value} system requires x of type {expected.__name__}, "
                f"got {type(self.x).__name__}"
            )

    @staticmethod
    def first(x: SparseSeq, y: TailSeq) -> PairPoint:
        return PairPoint(DualSystem.FIRST, x, y)

    @staticmethod
    def second(mu: ModelMeasure, y: TailSeq) -> PairPoint:
        return PairPoint(DualSystem.SECOND, mu, y)

    @staticmethod
    def zero(system: DualSystem) -> PairPoint:
        x: XPart = SparseSeq.zero() if system is DualSystem.FIRST else ModelMeasure.zero()
        return PairPoint(system, x, TailSeq.zero())

    def __add__(self, other: PairPoint) -> PairPoint:
        _require_same_system(self, other)
        return PairPoint(self.system, self.x + other.x, self.y + other.y)

    def __sub__(self, other: PairPoint) -> PairPoint:
        _require_same_system(self, other)
        return PairPoint(self.system, self.x - other.x, self.y - other.y)

    def scale(self, factor: RationalLike) -> PairPoint:
        return PairPoint(self.system, self.x.scale(factor), self.y.scale(factor))

    def to_json(self) -> dict:
        return {"system": self.system.value, "x": self.x.to_json(), "y": self.y.to_json()}

    @staticmethod
    def from_json(obj: dict) -> PairPoint:
        system = DualSystem(obj["system"])
        x: XPart
        if system is DualSystem.FIRST:
            x = SparseSeq.from_json(obj["x"])
        else:
            x = ModelMeasure.from_json(obj["x"])
        return PairPoint(system, x, TailSeq.from_json(obj["y"]))


def _require_same_system(z: PairPoint, w: PairPoint) -> None:
    if z.system is not w.system:
        raise SystemMismatchError(f"cannot pair {z.system.value} with {w.system.value}")


def coupling_value(z: PairPoint) -> Fraction:
    """c(z) = <x, y> in the point's own system."""
    return Fraction(*_cross_terms(z.x, z.y))


def _cross_terms(x: XPart, y: TailSeq) -> tuple[int, int]:
    if x.__class__ is SparseSeq:
        return _couple_terms(x, y)
    return _measure_terms(x, y)


def natural_couple_terms(z: PairPoint, w: PairPoint) -> tuple[int, int]:
    """z.w as an unreduced (numerator, denominator > 0) pair.

    The integer form of ``natural_couple``: its sign and its zeros are
    those of the numerator, so a caller that tests them builds a
    ``Fraction`` only for a value it reports.
    """
    _require_same_system(z, w)
    a, p = _cross_terms(z.x, w.y)
    b, q = _cross_terms(w.x, z.y)
    if p == q:
        return a + b, p
    common = math.lcm(p, q)
    return a * (common // p) + b * (common // q), common


def natural_couple(z: PairPoint, w: PairPoint) -> Fraction:
    """The product-space coupling z.w = c(x_z, y_w) + c(x_w, y_z).

    Symmetric by construction; z.z = 2*c(z).
    """
    return Fraction(*natural_couple_terms(z, w))
