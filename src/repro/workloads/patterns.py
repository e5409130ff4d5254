"""Composable access patterns: *which block inside a pool* gets touched.

The synthetic :class:`~repro.workloads.generator.VmWorkload` bakes the
paper's hot/stream split into every pool. This module factors the
locality decision out into small, composable :class:`AccessPattern`
objects so arbitrary service behaviours (Zipfian caches, scan-heavy
backups, phase-changing mixes) can ride the same pool layout — and
therefore the same VM-private / VM-shared / content-shared / hypervisor
classification, COW machinery and holder accounting — unchanged.

A pattern is an immutable *configuration*; :meth:`AccessPattern.sampler`
binds it to a pool size and an externally-owned ``random.Random`` and
returns a stateful :class:`Sampler` whose ``next()`` yields block
offsets in ``[0, blocks)``.

Determinism contract (see DESIGN.md §10): a sampler draws from *only*
the RNG it was handed, in a fixed per-call draw order —

=============  =================================================
pattern        draws per ``next()``
=============  =================================================
uniform        1 ``randrange``
zipfian        1 ``random`` (bisect into a cumulative table)
hotspot        1 ``random`` then 1 ``randrange``
sequential     none
bursty         1 ``random``, plus 1 ``randrange`` on a jump
dynamicmix     exactly its current child's draws
=============  =================================================

— so a pattern-driven workload that gives each vCPU its own RNG draws
the same per-vCPU stream under any engine interleaving, and both
engines consume it through the same stepper closure. Samplers expose ``snapshot_state``/``restore_state`` as
plain data for the warm-state snapshot layer.

Spec grammar (the CLI/config surface)::

    name                     zipfian
    name:k=v,...             zipfian:alpha=1.2
    name(k=v,...)            hotspot(hot_fraction=0.1,hot_probability=0.9)
    dynamicmix(phases=child@N+child@N[+...])
                             dynamicmix(phases=zipfian(alpha=1.2)@2000+sequential@2000)

:func:`parse_pattern` accepts all forms; :meth:`AccessPattern.spec`
renders the canonical one (parenthesised, keys sorted), and
``parse_pattern(p.spec()).spec() == p.spec()`` round-trips for every
pattern.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Type, Union

__all__ = [
    "AccessPattern",
    "BurstyPattern",
    "DynamicMixPattern",
    "HotspotPattern",
    "PATTERNS",
    "PatternError",
    "Sampler",
    "SequentialPattern",
    "UniformPattern",
    "ZipfianPattern",
    "parse_pattern",
    "pattern_names",
]


class PatternError(ValueError):
    """A pattern spec could not be parsed or validated."""


def _format_value(value: Union[int, float, str]) -> str:
    if isinstance(value, float):
        # repr keeps round-trip exactness ("0.1" -> 0.1 -> "0.1").
        return repr(value)
    return str(value)


class Sampler:
    """Stateful block-offset source bound to one pool and one RNG."""

    __slots__ = ()

    def next(self) -> int:
        raise NotImplementedError

    def snapshot_state(self) -> tuple:
        """Mutable sampler state as plain data (RNG state excluded: the
        owning workload snapshots its RNGs itself)."""
        return ()

    def restore_state(self, state: tuple) -> None:
        if state != ():
            raise ValueError(f"stateless sampler got state {state!r}")


@dataclass(frozen=True)
class AccessPattern:
    """Immutable pattern configuration; subclasses add parameters."""

    kind = "abstract"

    def sampler(self, blocks: int, rng: random.Random) -> Sampler:
        """A fresh sampler over ``blocks`` offsets drawing from ``rng``."""
        raise NotImplementedError

    def params(self) -> Dict[str, Union[int, float, str]]:
        """Parameters as rendered by :meth:`spec` (empty: bare name)."""
        return {}

    def spec(self) -> str:
        """Canonical spec string (parse_pattern round-trips it)."""
        params = self.params()
        if not params:
            return self.kind
        inner = ",".join(
            f"{key}={_format_value(value)}" for key, value in sorted(params.items())
        )
        return f"{self.kind}({inner})"


# ----------------------------------------------------------------------
# Uniform.
# ----------------------------------------------------------------------


class _UniformSampler(Sampler):
    __slots__ = ("_randrange", "_blocks")

    def __init__(self, blocks: int, rng: random.Random) -> None:
        self._randrange = rng.randrange
        self._blocks = blocks

    def next(self) -> int:
        return self._randrange(self._blocks)


@dataclass(frozen=True)
class UniformPattern(AccessPattern):
    """Every block equally likely — the no-locality baseline."""

    kind = "uniform"

    def sampler(self, blocks: int, rng: random.Random) -> Sampler:
        return _UniformSampler(blocks, rng)


# ----------------------------------------------------------------------
# Zipfian.
# ----------------------------------------------------------------------

# Cumulative Zipf tables are pure functions of (alpha, blocks); they are
# shared across samplers so a 64-VM suite builds each table once.
_zipf_tables: Dict[Tuple[float, int], List[float]] = {}


def _zipf_table(alpha: float, blocks: int) -> List[float]:
    table = _zipf_tables.get((alpha, blocks))
    if table is None:
        total = 0.0
        table = []
        for rank in range(1, blocks + 1):
            total += rank**-alpha
            table.append(total)
        _zipf_tables[(alpha, blocks)] = table
    return table


class _ZipfianSampler(Sampler):
    __slots__ = ("_random", "_cumulative", "_total", "_top")

    def __init__(self, alpha: float, blocks: int, rng: random.Random) -> None:
        self._random = rng.random
        self._cumulative = _zipf_table(alpha, blocks)
        self._total = self._cumulative[-1]
        self._top = blocks - 1

    def next(self) -> int:
        draw = bisect_right(self._cumulative, self._random() * self._total)
        return draw if draw <= self._top else self._top


@dataclass(frozen=True)
class ZipfianPattern(AccessPattern):
    """Rank-frequency popularity: offset ``r`` drawn with weight
    ``(r+1) ** -alpha`` — offset equals popularity rank, so shape tests
    (and cache behaviour) read directly off the offset distribution."""

    kind = "zipfian"
    alpha: float = 1.1

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 8.0:
            raise PatternError(f"zipfian alpha must be in (0, 8], got {self.alpha}")

    def params(self) -> Dict[str, Union[int, float, str]]:
        return {"alpha": self.alpha}

    def sampler(self, blocks: int, rng: random.Random) -> Sampler:
        return _ZipfianSampler(self.alpha, blocks, rng)


# ----------------------------------------------------------------------
# Hotspot.
# ----------------------------------------------------------------------


class _HotspotSampler(Sampler):
    __slots__ = ("_random", "_randrange", "_hot_blocks", "_cold_blocks", "_hot_p")

    def __init__(
        self, hot_fraction: float, hot_probability: float, blocks: int, rng: random.Random
    ) -> None:
        self._random = rng.random
        self._randrange = rng.randrange
        hot = max(1, int(blocks * hot_fraction))
        hot = min(hot, blocks)
        self._hot_blocks = hot
        self._cold_blocks = blocks - hot
        self._hot_p = hot_probability

    def next(self) -> int:
        if self._cold_blocks == 0 or self._random() < self._hot_p:
            return self._randrange(self._hot_blocks)
        return self._hot_blocks + self._randrange(self._cold_blocks)


@dataclass(frozen=True)
class HotspotPattern(AccessPattern):
    """A hot prefix of the pool absorbs ``hot_probability`` of accesses;
    the cold remainder is uniform. (The hot/cold draw happens even when
    the pool is all hot, keeping the draw count shape-independent.)"""

    kind = "hotspot"
    hot_fraction: float = 0.1
    hot_probability: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 < self.hot_fraction <= 1.0:
            raise PatternError(
                f"hotspot hot_fraction must be in (0, 1], got {self.hot_fraction}"
            )
        if not 0.0 <= self.hot_probability <= 1.0:
            raise PatternError(
                f"hotspot hot_probability must be in [0, 1], got "
                f"{self.hot_probability}"
            )

    def params(self) -> Dict[str, Union[int, float, str]]:
        return {"hot_fraction": self.hot_fraction, "hot_probability": self.hot_probability}

    def sampler(self, blocks: int, rng: random.Random) -> Sampler:
        return _HotspotSampler(self.hot_fraction, self.hot_probability, blocks, rng)


# ----------------------------------------------------------------------
# Sequential scan.
# ----------------------------------------------------------------------


class _SequentialSampler(Sampler):
    __slots__ = ("_blocks", "_stride", "_position")

    def __init__(self, stride: int, blocks: int) -> None:
        self._blocks = blocks
        self._stride = stride
        self._position = 0

    def next(self) -> int:
        position = self._position
        self._position = (position + self._stride) % self._blocks
        return position

    def snapshot_state(self) -> tuple:
        return (self._position,)

    def restore_state(self, state: tuple) -> None:
        (self._position,) = state


@dataclass(frozen=True)
class SequentialPattern(AccessPattern):
    """A wrapping scan in ``stride``-block steps; draws no randomness."""

    kind = "sequential"
    stride: int = 1

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise PatternError(f"sequential stride must be >= 1, got {self.stride}")

    def params(self) -> Dict[str, Union[int, float, str]]:
        return {} if self.stride == 1 else {"stride": self.stride}

    def sampler(self, blocks: int, rng: random.Random) -> Sampler:
        return _SequentialSampler(self.stride, blocks)


# ----------------------------------------------------------------------
# Bursty / periodic.
# ----------------------------------------------------------------------


class _BurstySampler(Sampler):
    __slots__ = ("_random", "_randrange", "_blocks", "_jump_p", "_position")

    def __init__(self, mean_burst: float, blocks: int, rng: random.Random) -> None:
        self._random = rng.random
        self._randrange = rng.randrange
        self._blocks = blocks
        self._jump_p = 1.0 / mean_burst
        self._position = 0

    def next(self) -> int:
        if self._random() < self._jump_p:
            self._position = self._randrange(self._blocks)
        else:
            self._position = (self._position + 1) % self._blocks
        return self._position

    def snapshot_state(self) -> tuple:
        return (self._position,)

    def restore_state(self, state: tuple) -> None:
        (self._position,) = state


@dataclass(frozen=True)
class BurstyPattern(AccessPattern):
    """Sequential bursts punctuated by random jumps: each access jumps
    with probability ``1/mean_burst``, else continues the current run —
    geometric run lengths with mean ``mean_burst`` (CV -> 1)."""

    kind = "bursty"
    mean_burst: float = 16.0

    def __post_init__(self) -> None:
        if self.mean_burst < 1.0:
            raise PatternError(f"bursty mean_burst must be >= 1, got {self.mean_burst}")

    def params(self) -> Dict[str, Union[int, float, str]]:
        return {"mean_burst": self.mean_burst}

    def sampler(self, blocks: int, rng: random.Random) -> Sampler:
        return _BurstySampler(self.mean_burst, blocks, rng)


# ----------------------------------------------------------------------
# Dynamic phase-changing mix.
# ----------------------------------------------------------------------


class _DynamicMixSampler(Sampler):
    __slots__ = ("_children", "_counts", "_phase", "_used")

    def __init__(
        self,
        segments: Tuple[Tuple[AccessPattern, int], ...],
        blocks: int,
        rng: random.Random,
    ) -> None:
        self._children = [pattern.sampler(blocks, rng) for pattern, _ in segments]
        self._counts = [count for _, count in segments]
        self._phase = 0
        self._used = 0

    def next(self) -> int:
        phase = self._phase
        if self._used >= self._counts[phase]:
            phase = (phase + 1) % len(self._counts)
            self._phase = phase
            self._used = 0
        self._used += 1
        return self._children[phase].next()

    def snapshot_state(self) -> tuple:
        return (
            self._phase,
            self._used,
            tuple(child.snapshot_state() for child in self._children),
        )

    def restore_state(self, state: tuple) -> None:
        self._phase, self._used, children = state
        for child, child_state in zip(self._children, children):
            child.restore_state(child_state)


@dataclass(frozen=True)
class DynamicMixPattern(AccessPattern):
    """Phase-changing mix: run each child pattern for exactly its access
    count, then switch (cycling back to the first after the last).

    Child sampler state persists across revisits — a sequential phase
    resumes where its previous visit stopped, mirroring a service whose
    scan survives an interactive interlude.
    """

    kind = "dynamicmix"
    segments: Tuple[Tuple[AccessPattern, int], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.segments:
            raise PatternError("dynamicmix needs at least one phases= segment")
        for pattern, count in self.segments:
            if isinstance(pattern, DynamicMixPattern):
                raise PatternError("dynamicmix phases cannot nest another dynamicmix")
            if count < 1:
                raise PatternError(f"dynamicmix phase count must be >= 1, got {count}")

    def spec(self) -> str:
        phases = "+".join(
            f"{pattern.spec()}@{count}" for pattern, count in self.segments
        )
        return f"{self.kind}(phases={phases})"

    def sampler(self, blocks: int, rng: random.Random) -> Sampler:
        return _DynamicMixSampler(self.segments, blocks, rng)


# ----------------------------------------------------------------------
# Registry and spec parsing.
# ----------------------------------------------------------------------

PATTERNS: Dict[str, Type[AccessPattern]] = {
    "uniform": UniformPattern,
    "zipfian": ZipfianPattern,
    "hotspot": HotspotPattern,
    "sequential": SequentialPattern,
    "bursty": BurstyPattern,
    "dynamicmix": DynamicMixPattern,
}


def pattern_names() -> List[str]:
    """Registered pattern kinds, sorted."""
    return sorted(PATTERNS)


def _split_top_level(text: str, separator: str) -> List[str]:
    """Split on ``separator`` outside parentheses (params may nest)."""
    parts: List[str] = []
    depth = 0
    start = 0
    for position, char in enumerate(text):
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise PatternError(f"unbalanced parentheses in {text!r}")
        elif char == separator and depth == 0:
            parts.append(text[start:position])
            start = position + 1
    if depth != 0:
        raise PatternError(f"unbalanced parentheses in {text!r}")
    parts.append(text[start:])
    return parts


def _parse_scalar(raw: str) -> Union[int, float, str]:
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _parse_segments(raw: str) -> Tuple[Tuple[AccessPattern, int], ...]:
    segments: List[Tuple[AccessPattern, int]] = []
    for chunk in _split_top_level(raw, "+"):
        chunk = chunk.strip()
        if "@" not in chunk:
            raise PatternError(
                f"dynamicmix phase {chunk!r} needs the form pattern@count"
            )
        child_spec, _, count_text = chunk.rpartition("@")
        try:
            count = int(count_text)
        except ValueError:
            raise PatternError(
                f"dynamicmix phase count {count_text!r} is not an integer"
            ) from None
        segments.append((parse_pattern(child_spec), count))
    return tuple(segments)


def parse_pattern(spec: str) -> AccessPattern:
    """Parse a pattern spec string (see the module docstring grammar)."""
    if not isinstance(spec, str) or not spec.strip():
        raise PatternError(f"empty pattern spec {spec!r}")
    text = spec.strip()
    if "(" in text:
        name, _, rest = text.partition("(")
        if not rest.endswith(")"):
            raise PatternError(f"unbalanced parentheses in {spec!r}")
        params_text = rest[:-1]
    else:
        name, _, params_text = text.partition(":")
    name = name.strip()
    cls = PATTERNS.get(name)
    if cls is None:
        raise PatternError(
            f"unknown pattern {name!r} (known: {', '.join(pattern_names())})"
        )
    kwargs: Dict[str, object] = {}
    if params_text.strip():
        for item in _split_top_level(params_text, ","):
            item = item.strip()
            if not item:
                continue
            key, equals, raw_value = item.partition("=")
            if not equals:
                raise PatternError(f"pattern parameter {item!r} needs key=value")
            key = key.strip()
            raw_value = raw_value.strip()
            if cls is DynamicMixPattern and key == "phases":
                kwargs["segments"] = _parse_segments(raw_value)
            else:
                kwargs[key] = _parse_scalar(raw_value)
    try:
        return cls(**kwargs)  # type: ignore[arg-type]
    except TypeError as error:
        raise PatternError(f"bad parameters for {name!r}: {error}") from None
