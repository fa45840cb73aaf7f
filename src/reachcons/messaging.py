"""Message and message-set algebra.

VALUE messages carry (value, path) where the path records every forwarder;
COMPLETE messages carry a claimed fault set and a copy of the sender's
excluded message history, flooded with a per-sender FIFO counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InconsistentMessageSetError, InvalidArgumentError
from .graph import DiGraph, enumerate_redundant_paths, mask_of

VALUE = "value"
COMPLETE = "complete"


@dataclass(frozen=True)
class Message:
    kind: str
    round: int
    path: tuple
    value: Optional[float] = None
    claimed: Optional[frozenset] = None
    payload: Optional["MessageSet"] = None
    fifo_counter: Optional[int] = None

    def __post_init__(self):
        if self.kind not in (VALUE, COMPLETE):
            raise InvalidArgumentError(f"unknown message kind {self.kind!r}")
        if not self.path:
            raise InvalidArgumentError("message path must be nonempty")
        if self.kind == VALUE and self.value is None:
            raise InvalidArgumentError("VALUE messages need a value")
        if self.kind == COMPLETE:
            if self.claimed is None or self.fifo_counter is None:
                raise InvalidArgumentError(
                    "COMPLETE messages need a claimed set and a counter")
            if len(set(self.path)) != len(self.path):
                raise InvalidArgumentError("COMPLETE paths must be simple")

    @property
    def init(self) -> int:
        return self.path[0]

    @property
    def ter(self) -> int:
        return self.path[-1]


@dataclass(frozen=True)
class MessageSet:
    messages: frozenset

    def __post_init__(self):
        object.__setattr__(self, "messages", frozenset(self.messages))

    def __iter__(self):
        return iter(self.messages)

    def __len__(self):
        return len(self.messages)

    def __bool__(self):
        return bool(self.messages)

    def add(self, m: Message) -> "MessageSet":
        return MessageSet(self.messages | {m})

    def union(self, other: "MessageSet") -> "MessageSet":
        return MessageSet(self.messages | other.messages)

    def paths(self) -> frozenset:
        return frozenset(m.path for m in self.messages)

    def exclude(self, A: frozenset) -> "MessageSet":
        """Messages whose paths avoid every node of A."""
        amask = mask_of(A)
        return MessageSet(frozenset(
            m for m in self.messages if not mask_of(m.path) & amask))

    def _value_messages(self):
        return (m for m in self.messages if m.kind == VALUE)

    def is_consistent(self) -> bool:
        """True iff all value messages sharing an initiator agree in value."""
        seen: dict = {}
        for m in self._value_messages():
            prior = seen.setdefault(m.init, m.value)
            if prior != m.value:
                return False
        return True

    def value_of(self, w: int) -> Optional[float]:
        """The unique value initiated by w, or None if w initiated nothing."""
        found = None
        for m in self._value_messages():
            if m.init != w:
                continue
            if found is not None and found != m.value:
                raise InconsistentMessageSetError(
                    f"initiator {w} carries values {found} and {m.value}")
            found = m.value
        return found

    def initiators(self) -> frozenset:
        return frozenset(m.init for m in self._value_messages())

    def is_full_for(self, A: frozenset, v: int, g: DiGraph,
                    round: Optional[int] = None) -> bool:
        """True iff every redundant path avoiding A ending at v is present.

        When a round is given, only messages tagged with it count.
        """
        msgs = self.messages
        if round is not None:
            msgs = {m for m in msgs if m.round == round}
        have = {m.path for m in msgs}
        universe = enumerate_redundant_paths(g, frozenset(A), v)
        return all(p.nodes in have for p in universe)


EMPTY = MessageSet(frozenset())


def message_set(items) -> MessageSet:
    """Build a MessageSet of VALUE messages from (value, path) pairs."""
    return MessageSet(frozenset(
        Message(VALUE, 0, tuple(p), value=x) for x, p in items))
