"""Deterministic metrics registry: counters, gauges, and histograms.

This replaces the ad-hoc per-backend telemetry dicts with named,
labelled instruments that serialize canonically.  Everything is driven
by *simulated* time and explicit ``observe``/``inc`` calls — there is
no wall-clock anywhere, so two same-seed runs produce byte-identical
snapshots (the determinism contract the availability ledger and the
SLO-guard action trace already honour).

Histograms use HDR-style fixed bucket boundaries (a 1-2-5 ladder per
decade by default) rather than data-dependent bins: the bucket layout
is part of the schema, never a function of the samples, which keeps
snapshots comparable across runs and seeds.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

# Values serialize with fixed rounding so float noise from event
# ordering can never leak into the canonical snapshot.
_VALUE_DECIMALS = 9


def _round(v: float) -> float:
    return round(float(v), _VALUE_DECIMALS)


def _bucket_ladder(lo: float, hi: float) -> Tuple[float, ...]:
    """1-2-5 ladder of bucket upper bounds covering [lo, hi]."""
    bounds: List[float] = []
    decade = lo
    while decade <= hi * (1 + 1e-12):
        for mult in (1.0, 2.0, 5.0):
            bound = decade * mult
            if bound > hi * (1 + 1e-12):
                break
            bounds.append(bound)
        decade *= 10.0
    return tuple(bounds)


#: Default histogram boundaries: 1 µs .. 10 s in a 1-2-5 ladder —
#: spans every latency this simulator produces, fixed forever.
DEFAULT_LATENCY_BUCKETS = _bucket_ladder(1e-6, 10.0)


class Counter:
    """Monotonic (by convention) accumulator.

    ``value`` is a plain attribute: owners on a hot path (e.g.
    :class:`~repro.runtime.backend.SoftwareQueue`) bump it directly.
    """

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-set value plus its high-water mark."""

    __slots__ = ("value", "max_seen")

    def __init__(self):
        self.value = 0
        self.max_seen = 0

    def set(self, v) -> None:
        self.value = v
        if v > self.max_seen:
            self.max_seen = v


class Histogram:
    """Fixed-bucket histogram (HDR-style: boundaries are schema).

    ``counts[i]`` counts samples ``<= bounds[i]``; the final slot is the
    overflow bucket (``> bounds[-1]``).  Mean is recoverable from
    ``total``/``count``; quantile estimates come from the cumulative
    bucket counts — coarse, but deterministic and mergeable.
    """

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: Optional[Iterable[float]] = None):
        self.bounds: Tuple[float, ...] = tuple(bounds) if bounds is not None \
            else DEFAULT_LATENCY_BUCKETS
        if any(b2 <= b1 for b1, b2 in zip(self.bounds, self.bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # bisect: first bound >= value
            mid = (lo + hi) // 2
            if self.bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self.counts[lo] += 1
        self.count += 1
        self.total += value

    def quantile(self, q: float) -> Optional[float]:
        """Upper bound of the bucket holding the q-quantile sample
        (None while empty; +inf when it lands in the overflow bucket)."""
        if not 0 <= q <= 1:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return None
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank and c:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")

    def to_dict(self) -> dict:
        return {
            "bounds": [_round(b) for b in self.bounds],
            "counts": list(self.counts),
            "count": self.count,
            "total": _round(self.total),
        }


def _key(name: str, labels: Dict[str, str]) -> Tuple:
    return (name,) + tuple(sorted(labels.items()))


def _render_key(key: Tuple) -> str:
    name = key[0]
    if len(key) == 1:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key[1:])
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Named, labelled instruments with a canonical snapshot.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call with a given (name, labels) pair creates the instrument and
    every later call returns the same object, so hot paths can cache
    the instrument reference and skip the lookup entirely.
    """

    def __init__(self):
        self._counters: Dict[Tuple, Counter] = {}
        self._gauges: Dict[Tuple, Gauge] = {}
        self._histograms: Dict[Tuple, Histogram] = {}

    def counter(self, name: str, **labels: str) -> Counter:
        key = _key(name, labels)
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = _key(name, labels)
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge()
        return inst

    def histogram(self, name: str, bounds: Optional[Iterable[float]] = None,
                  **labels: str) -> Histogram:
        key = _key(name, labels)
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(bounds)
        return inst

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Canonical nested dict: sorted keys, rounded values."""
        return {
            "counters": {_render_key(k): v.value
                         for k, v in sorted(self._counters.items())},
            "gauges": {_render_key(k): {"value": _round(v.value)
                                        if isinstance(v.value, float)
                                        else v.value,
                                        "max": _round(v.max_seen)
                                        if isinstance(v.max_seen, float)
                                        else v.max_seen}
                       for k, v in sorted(self._gauges.items())},
            "histograms": {_render_key(k): v.to_dict()
                           for k, v in sorted(self._histograms.items())},
        }

    def to_json(self) -> str:
        """Byte-identical across same-seed runs (canonical JSON)."""
        return json.dumps(self.snapshot(), sort_keys=True,
                          separators=(",", ":"))
