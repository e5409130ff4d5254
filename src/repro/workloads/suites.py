"""Named scenario suites: which service each VM of a host runs.

A :class:`ScenarioSuite` maps VM slots onto
:class:`~repro.workloads.service.ServiceProfile` entries (wiscsee's
``patternsuite`` registry shape): each entry is a service name,
optionally with a pattern override after a colon —

    ``"web"``                        the catalogue profile as-is
    ``"web:zipfian(alpha=1.4)"``     every guest pool on that pattern

Suites cycle over the host's VMs, so one suite serves any ``num_vms``.
They are selected by ``SimConfig.suite`` / ``repro-sim run --suite`` and
swept by ``repro-sim experiment patterns``.

``SUITES``' keys are part of the store/snapshot identity surface (a
suite name in a config determines the workload byte-for-byte), so they
are pinned by the state-version fingerprint test — adding or renaming a
suite requires regenerating fingerprints (or a STATE_VERSION bump if
existing suites change meaning).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.workloads.service import ServiceProfile, generic_service, get_service

__all__ = [
    "SUITES",
    "SUITE_NAMES",
    "ScenarioSuite",
    "get_suite",
    "resolve_entry",
    "resolve_services",
    "suite_services",
]


@dataclass(frozen=True)
class ScenarioSuite:
    """One named multi-tenant scenario: per-VM-slot service entries."""

    name: str
    description: str
    vm_services: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.vm_services:
            raise ValueError(f"suite {self.name!r} needs at least one VM entry")
        for entry in self.vm_services:
            resolve_entry(entry)  # fail at registration, not mid-build


def resolve_entry(entry: str) -> ServiceProfile:
    """One suite entry -> its (possibly pattern-overridden) profile."""
    name, _, override = entry.partition(":")
    profile = get_service(name.strip())
    if override.strip():
        profile = profile.with_patterns(override.strip())
    return profile


SUITES: Dict[str, ScenarioSuite] = {
    # Homogeneous read-heavy farm: the content-sharing best case.
    "web-farm": ScenarioSuite(
        name="web-farm",
        description="identical read-heavy web frontends on every VM",
        vm_services=("web",),
    ),
    # The mixed-tenant host Virtual Snooping targets: every service
    # class colocated.
    "cloud-mix": ScenarioSuite(
        name="cloud-mix",
        description="mixed tenants: web + data-lake + backup + KV cache",
        vm_services=("web", "datalake", "backup", "kvcache"),
    ),
    # Nightly backups saturating the host next to latency-sensitive web.
    "backup-window": ScenarioSuite(
        name="backup-window",
        description="backup sweeps interleaved with web frontends",
        vm_services=("backup", "web"),
    ),
    # Phase-changing tenants: interactive Zipfian serving alternating
    # with batch scans inside each VM (DynamicMix).
    "phase-shift": ScenarioSuite(
        name="phase-shift",
        description="VMs alternating Zipfian serving and batch-scan phases",
        vm_services=(
            "web:dynamicmix(phases=zipfian(alpha=1.1)@2000+sequential@2000)",
            "datalake:dynamicmix(phases=bursty(mean_burst=24.0)@1500+sequential@1500)",
        ),
    ),
    # Skew stress: extreme hotspot tenants beside plain web VMs.
    "hot-neighbors": ScenarioSuite(
        name="hot-neighbors",
        description="hotspot-skewed KV caches colocated with web VMs",
        vm_services=("kvcache:hotspot(hot_fraction=0.05,hot_probability=0.95)", "web"),
    ),
}

SUITE_NAMES: Tuple[str, ...] = tuple(sorted(SUITES))


def get_suite(name: str) -> ScenarioSuite:
    try:
        return SUITES[name]
    except KeyError:
        raise KeyError(
            f"unknown suite {name!r} (known: {', '.join(SUITE_NAMES)})"
        ) from None


def suite_services(name: str, num_vms: int) -> List[ServiceProfile]:
    """The suite's per-VM profiles for a ``num_vms`` host (cycled)."""
    suite = get_suite(name)
    entries = suite.vm_services
    return [resolve_entry(entries[i % len(entries)]) for i in range(num_vms)]


def resolve_services(pattern, suite, num_vms: int) -> List[ServiceProfile]:
    """Per-VM profiles for a config's ``pattern``/``suite`` selection.

    Exactly one of ``pattern`` (a spec string: every VM runs the generic
    mixed service on that pattern) and ``suite`` (a registry name) must
    be set; ``SimConfig.__post_init__`` enforces the mutual exclusion.
    """
    if pattern is not None:
        return [generic_service(pattern)] * num_vms
    if suite is None:
        raise ValueError("resolve_services needs a pattern or a suite")
    return suite_services(suite, num_vms)
