"""Query templating, after Ma et al. (SIGMOD 2018).

The TDE cannot afford to examine every query on a production system, so it
first reduces the stream to *templates*: the query text with all literal
parameters replaced by placeholders. Queries sharing a template share a
template id, which shrinks the population that reservoir sampling (see
:mod:`repro.workloads.sampling`) then draws from.

The paper additionally substitutes the *most frequent* concrete parameters
back into a selected template before running EXPLAIN on it;
:class:`TemplateCatalog` keeps per-template parameter frequency counts to
support that.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field

from repro.workloads.query import Query

__all__ = [
    "make_template",
    "template_id",
    "family_template_info",
    "FamilyTemplateInfo",
    "TemplateCatalog",
    "TemplateStats",
]

_STRING_LITERAL = re.compile(r"'(?:[^']|'')*'")
# Numbers as standalone literals AND numeric suffixes of identifiers
# (tmp_sales_482 and tmp_sales_91 must share a template): `_` is a word
# character, so a plain \b would leave identifier suffixes untouched and
# generated names would each mint a fresh template.
_NUMBER_LITERAL = re.compile(r"(?:\b|(?<=_))\d+(?:\.\d+)?\b")
_WHITESPACE = re.compile(r"\s+")


def make_template(sql: str) -> str:
    """Strip literal parameters from *sql*, returning the template text.

    String literals are replaced first (so numbers inside strings are not
    double-substituted), then bare numeric literals; whitespace is
    normalised and keywords upper-cased are left as written (the generators
    emit consistent casing).
    """
    text = _STRING_LITERAL.sub("?", sql)
    text = _NUMBER_LITERAL.sub("?", text)
    return _WHITESPACE.sub(" ", text).strip()


def template_id(template: str) -> str:
    """Stable short identifier for a template string."""
    return hashlib.sha1(template.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class FamilyTemplateInfo:
    """Precomputed templating result for one query family.

    ``template`` is the normalised template every instantiation of the
    family produces; ``slots`` describes the literal-extraction output:
    a ``str`` entry is a literal baked into the family's template text, an
    ``int`` entry is an index into the family's rendered parameters.
    """

    template: str
    slots: tuple[str | int, ...]


def _extract_literals(sql: str) -> tuple[str, tuple[str, ...]]:
    """One fused pass: the template of *sql* plus its literals in order."""
    params: list[str] = []
    append = params.append

    def _collect(match: re.Match) -> str:
        append(match.group(0))
        return "?"

    stripped = _NUMBER_LITERAL.sub(_collect, _STRING_LITERAL.sub(_collect, sql))
    return _WHITESPACE.sub(" ", stripped).strip(), tuple(params)


def _sentinel(kind: str, index: int, salt: int) -> str | None:
    """A unique, improbable parameter rendering for *kind* (None: unknown)."""
    if kind == "int":
        return str(900_000_000 + salt * 1_000 + index)
    if kind == "str":
        return f"'zzsent{salt}x{index}'"
    if kind == "float":
        return f"{700_000_000 + salt * 1_000 + index}.5"
    return None


def family_template_info(
    template: str, param_spec: tuple[str, ...]
) -> FamilyTemplateInfo | None:
    """Templating info valid for *every* instantiation of a family.

    All drawn parameters normalise to ``?`` (ints and floats are bare
    numeric literals, strings are quoted), so a family's instantiations
    share one template; the literal-extraction output likewise always has
    the same shape — static template literals interleaved with the drawn
    parameters in a fixed order (strings first, then numbers).

    The mapping is derived by instantiating the family with two distinct
    sentinel parameter sets and diffing the extractions: slots whose text
    matches a sentinel map to that parameter index; slots identical across
    both instantiations are static literals. Any pathology that would make
    extraction depend on the drawn values — a parameter fusing with an
    adjacent literal, say — shows up as a cross-instantiation mismatch and
    returns ``None`` (callers then fall back to per-query templating).
    """

    def build(salt: int) -> tuple[str, tuple[str, ...], list[str]] | None:
        text = template
        rendered: list[str] = []
        for index, kind in enumerate(param_spec):
            sentinel = _sentinel(kind, index, salt)
            if sentinel is None:
                # Unknown kind: ``QueryFamily`` rejects it when built.
                return None
            rendered.append(sentinel)
            text = text.replace("%s", sentinel, 1)
        extracted_template, literals = _extract_literals(text)
        return extracted_template, literals, rendered

    built_a = build(1)
    built_b = build(2)
    if built_a is None or built_b is None:
        return None
    template_a, literals_a, rendered_a = built_a
    template_b, literals_b, rendered_b = built_b
    if template_a != template_b or len(literals_a) != len(literals_b):
        return None
    slots: list[str | int] = []
    for lit_a, lit_b in zip(literals_a, literals_b):
        if lit_a in rendered_a:
            index = rendered_a.index(lit_a)
            if lit_b != rendered_b[index]:
                return None
            slots.append(index)
        elif lit_a == lit_b:
            slots.append(lit_a)
        else:
            return None
    if sorted(s for s in slots if isinstance(s, int)) != list(range(len(param_spec))):
        return None
    return FamilyTemplateInfo(template=template_a, slots=tuple(slots))


#: Per-template parameter-frequency bookkeeping is compacted to the
#: ``_PARAM_COUNTS_KEEP`` most frequent entries once it exceeds
#: ``_PARAM_COUNTS_CAP`` distinct parameter sets: randomly drawn
#: parameters are almost all distinct, so an unbounded counter grows by
#: one entry per observed query — hundreds of megabytes over a fleet-day —
#: while the frequent entries that EXPLAIN substitution wants survive
#: compaction by construction.
_PARAM_COUNTS_CAP = 1024
_PARAM_COUNTS_KEEP = 256


@dataclass
class TemplateStats:
    """Frequency bookkeeping for one template."""

    template: str
    count: int = 0
    param_counts: Counter = field(default_factory=Counter)
    example: Query | None = None

    def most_frequent_params(self) -> tuple[str, ...]:
        """Concrete parameters seen most often (for EXPLAIN substitution)."""
        if not self.param_counts:
            return ()
        (params, _count), = self.param_counts.most_common(1)
        return params


class TemplateCatalog:
    """Streaming template extractor with per-template frequencies.

    Feed it the raw query stream with :meth:`observe`; read back the known
    templates, their counts and a representative query per template.
    """

    def __init__(self) -> None:
        self._stats: dict[str, TemplateStats] = {}
        self._total = 0
        # template text -> id; templates repeat across the stream while
        # texts do not, so the sha1 is paid once per distinct template.
        self._tid_cache: dict[str, str] = {}

    def observe(self, query: Query) -> str:
        """Record *query*, returning its template id."""
        # Generator-instantiated queries carry their precomputed template
        # and extracted literals (see ``family_template_info``); anything
        # else goes through the fused single-pass extraction, which runs
        # the same substitutions ``make_template`` and ``_extract_params``
        # would each run, collected via the replacement callback. Strings
        # are collected first, then numbers, in both representations.
        template = query.template
        if template:
            params = query.params
        else:
            template, params = _extract_literals(query.text)
        tid = self._tid_cache.get(template)
        if tid is None:
            tid = template_id(template)
            self._tid_cache[template] = tid
        stats = self._stats.get(tid)
        if stats is None:
            stats = TemplateStats(template=template)
            self._stats[tid] = stats
        stats.count += 1
        stats.param_counts[params] += 1
        if len(stats.param_counts) > _PARAM_COUNTS_CAP:
            # ``most_common`` ties keep insertion order, so the retained
            # prefix is deterministic.
            stats.param_counts = Counter(
                dict(stats.param_counts.most_common(_PARAM_COUNTS_KEEP))
            )
        stats.example = query
        self._total += 1
        return tid

    @staticmethod
    def _extract_params(sql: str) -> tuple[str, ...]:
        """Literals of *sql*, in order (strings first pass, then numbers)."""
        strings = _STRING_LITERAL.findall(sql)
        without_strings = _STRING_LITERAL.sub("?", sql)
        numbers = _NUMBER_LITERAL.findall(without_strings)
        return tuple(strings + numbers)

    def __len__(self) -> int:
        return len(self._stats)

    @property
    def total_observed(self) -> int:
        """Total queries observed (not distinct templates)."""
        return self._total

    def stats(self, tid: str) -> TemplateStats:
        """Stats for template id *tid* (KeyError if unknown)."""
        return self._stats[tid]

    def templates(self) -> dict[str, TemplateStats]:
        """Mapping of template id to stats, insertion-ordered."""
        return dict(self._stats)

    def top_templates(self, n: int) -> list[TemplateStats]:
        """The *n* most frequent templates."""
        return sorted(self._stats.values(), key=lambda s: -s.count)[:n]
