"""Shared-resource primitives built on the event core.

:class:`Store` is a FIFO buffer of Python objects with blocking put/get.
Both operations return events that a process yields, and requests are
serviced in FIFO order to keep runs deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, List

from ..errors import SimulationError
from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Environment


class StorePut(Event):
    """Put request on a :class:`Store`; triggers when the item is accepted."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._put_waiters.append(self)
        store._trigger()


class StoreGet(Event):
    """Get request on a :class:`Store`; triggers with the retrieved item."""

    __slots__ = ("_store",)

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        self._store = store
        store._get_waiters.append(self)
        store._trigger()

    def cancel(self) -> bool:
        """Withdraw a still-pending get.  Returns True if it was cancelled,
        False if the item had already been handed over."""
        if self.triggered:
            return False
        try:
            self._store._get_waiters.remove(self)
        except ValueError:  # pragma: no cover - already removed
            pass
        return True


class Store:
    """FIFO object buffer with optional capacity.

    ``put`` blocks when the buffer holds ``capacity`` items; ``get`` blocks
    while the buffer is empty.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._put_waiters: Deque[StorePut] = deque()
        self._get_waiters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Request insertion of ``item`` (yieldable event)."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Request retrieval of the oldest item (yieldable event)."""
        return StoreGet(self)

    # -- internals -------------------------------------------------------------
    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self.capacity:
            self.items.append(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self.items:
            event.succeed(self.items.pop(0))
            return True
        return False

    def _trigger(self) -> None:
        """Match queued puts and gets until no more progress is possible."""
        progress = True
        while progress:
            progress = False
            while self._put_waiters:
                head = self._put_waiters[0]
                if head.triggered:  # cancelled/failed externally
                    self._put_waiters.popleft()
                    continue
                if self._do_put(head):
                    self._put_waiters.popleft()
                    progress = True
                    continue
                break
            while self._get_waiters:
                head = self._get_waiters[0]
                if head.triggered:
                    self._get_waiters.popleft()
                    continue
                if self._do_get(head):
                    self._get_waiters.popleft()
                    progress = True
                    continue
                break
