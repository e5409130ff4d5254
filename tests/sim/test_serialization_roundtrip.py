"""Every ``to_dict``/``from_dict`` pair round-trips losslessly.

These pairs are the persistence contract for checkpoints, the result
store and golden artifacts. One helper, :func:`assert_round_trips`,
proves it for each pair:

* a hypothesis-built instance with **every field away from its default**
  survives ``from_dict(json.loads(json.dumps(x.to_dict())))`` — a field
  ``to_dict`` drops comes back as its default and fails the comparison;
* an emitted key with no field fails too, because ``from_dict`` rejects
  unknown keys;
* the all-defaults instance survives as well, which exercises the
  omit-when-empty branches (``metrics``, ``snoop_map_sizes``,
  ``sanitizer_violations``, ``removal_periods_dropped``).

Strategies are derived from the dataclass type hints, so a new field is
covered without editing this file (an unsupported field type fails
loudly instead of being skipped).
"""

import dataclasses
import importlib
import inspect
import json
import pkgutil
from enum import Enum
from typing import Dict, Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.coherence.stats import CoherenceStats
from repro.hypervisor.scheduler import SchedulerResult
from repro.obs.series import MetricsSeries, MetricsWindow
from repro.sim.stats import SimStats

ROUND_TRIP_TYPES = (SimStats, CoherenceStats, MetricsWindow, MetricsSeries, SchedulerResult)


def _non_default(tp):
    """Values of type ``tp`` that never equal a zero/empty/None default."""
    origin, args = get_origin(tp), get_args(tp)
    if tp is int:
        return st.integers(min_value=1, max_value=2**53)
    if tp is float:
        return st.floats(allow_nan=False, allow_infinity=False).filter(bool)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return st.sampled_from(tp)
    if origin is dict:
        return st.dictionaries(
            _non_default(args[0]), _non_default(args[1]), min_size=1, max_size=4
        )
    if origin is list:
        return st.lists(_non_default(args[0]), min_size=1, max_size=4)
    if origin is Union:  # Optional[X]
        (inner,) = [arg for arg in args if arg is not type(None)]
        return _non_default(inner)
    if dataclasses.is_dataclass(tp):
        return populated(tp)
    raise TypeError(f"no strategy for field type {tp!r}; extend _non_default")


def populated(cls):
    """Instances of dataclass ``cls`` with every field set away from its default."""
    hints = get_type_hints(cls)
    return st.builds(
        cls, **{f.name: _non_default(hints[f.name]) for f in dataclasses.fields(cls)}
    )


def _default_of(f: dataclasses.Field):
    if f.default is not dataclasses.MISSING:
        return f.default
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return dataclasses.MISSING


def assert_round_trips(value, *, all_fields_set: bool = False) -> None:
    """``from_dict(json(to_dict(value))) == value``, as an AssertionError if not.

    With ``all_fields_set`` the instance must first have every defaulted
    field away from its default, so a field the serializer drops cannot
    hide behind a matching default.
    """
    cls = type(value)
    if all_fields_set:
        at_default = [
            f.name
            for f in dataclasses.fields(value)
            if getattr(value, f.name) == _default_of(f)
        ]
        assert not at_default, f"{cls.__name__} fields left at default: {at_default}"
    wire = json.loads(json.dumps(value.to_dict()))
    try:
        restored = cls.from_dict(wire)
    except (TypeError, ValueError, KeyError) as exc:
        raise AssertionError(
            f"{cls.__name__}.from_dict rejected its own to_dict output: {exc}"
        ) from exc
    assert restored == value, f"{cls.__name__} lost state in the round trip"


# ----------------------------------------------------------------------
# The real pairs.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("cls", ROUND_TRIP_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_populated_instance_round_trips(cls, data):
    assert_round_trips(data.draw(populated(cls)), all_fields_set=True)


@pytest.mark.parametrize(
    "value",
    [
        SimStats(),
        CoherenceStats(),
        MetricsWindow(start=0, width=1),
        MetricsSeries(1),
        SchedulerResult(0.0, {}, 0, 0, 0),
    ],
    ids=lambda value: type(value).__name__,
)
def test_default_instance_round_trips(value):
    assert_round_trips(value)


def test_every_serializable_dataclass_is_covered():
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        for _name, obj in inspect.getmembers(module, inspect.isclass):
            if (
                obj.__module__ == info.name
                and dataclasses.is_dataclass(obj)
                and hasattr(obj, "to_dict")
                and hasattr(obj, "from_dict")
            ):
                found.add(obj)
    assert found == set(ROUND_TRIP_TYPES)


# ----------------------------------------------------------------------
# The helper bites on each kind of drift.
# ----------------------------------------------------------------------


@dataclasses.dataclass
class _DropsField:
    x: int = 0
    y: int = 0

    def to_dict(self) -> dict:
        return {"x": self.x}

    @classmethod
    def from_dict(cls, data: dict) -> "_DropsField":
        return cls(**data)


@dataclasses.dataclass
class _ExtraKey:
    x: int = 0

    def to_dict(self) -> dict:
        return {"x": self.x, "legacy": 0}

    @classmethod
    def from_dict(cls, data: dict) -> "_ExtraKey":
        unknown = set(data) - {"x"}
        if unknown:
            raise ValueError(f"unknown _ExtraKey keys: {sorted(unknown)}")
        return cls(**data)


@dataclasses.dataclass
class _OmitsRequired:
    count: int
    extras: Dict[str, int]

    def to_dict(self) -> dict:
        out: dict = {"count": self.count}
        if self.extras:
            out["extras"] = self.extras
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "_OmitsRequired":
        return cls(**data)


def test_helper_rejects_dropped_field():
    with pytest.raises(AssertionError, match="lost state"):
        assert_round_trips(_DropsField(x=1, y=2), all_fields_set=True)


def test_helper_rejects_extra_key():
    with pytest.raises(AssertionError, match="rejected its own to_dict output"):
        assert_round_trips(_ExtraKey(x=1), all_fields_set=True)


def test_helper_rejects_omitted_required_field():
    # Populated, the pair looks fine; only the empty case exposes it.
    assert_round_trips(_OmitsRequired(count=1, extras={"a": 3}), all_fields_set=True)
    with pytest.raises(AssertionError, match="rejected its own to_dict output"):
        assert_round_trips(_OmitsRequired(count=1, extras={}))


def test_helper_rejects_instance_left_at_default():
    with pytest.raises(AssertionError, match=r"left at default: \['y'\]"):
        assert_round_trips(_DropsField(x=1), all_fields_set=True)
