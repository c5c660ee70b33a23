"""Shared-resource primitives for the simulation kernel.

``Resource``
    A counted resource (e.g. CPU slots on a worker, scheduler slots).
    Processes *request* a unit, possibly queueing, and *release* it.
``Store``
    A FIFO buffer of Python objects with blocking ``put``/``get``.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.sim.kernel import Environment, Event


class Request(Event):
    """Event returned by :meth:`Resource.request`.

    Usable as a context manager so the unit is always released::

        with resource.request() as req:
            yield req
            ... # hold the resource
    """

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.usage_since: Optional[float] = None

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a queued request (no-op if already granted)."""
        self.resource._cancel(self)


class Resource:
    """A resource with integer ``capacity`` and a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.env = env
        self._capacity = capacity
        self.users: List[Request] = []
        self.queue: List[Request] = []

    @property
    def capacity(self) -> int:
        """Total number of units."""
        return self._capacity

    @property
    def count(self) -> int:
        """Number of units currently in use."""
        return len(self.users)

    def request(self) -> Request:
        """Request one unit; the returned event fires when granted."""
        req = Request(self)
        self.queue.append(req)
        self._trigger()
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted unit (idempotent)."""
        if request in self.users:
            self.users.remove(request)
        else:
            self._cancel(request)
        self._trigger()

    def _cancel(self, request: Request) -> None:
        if not request.triggered and request in self.queue:
            self.queue.remove(request)

    def _trigger(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            req = self.queue.pop(0)
            req.usage_since = self.env.now
            self.users.append(req)
            req.succeed()


class StorePut(Event):
    """Event returned by :meth:`Store.put`; fires once the item is stored."""

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; its value is the item."""

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)


class Store:
    """FIFO buffer of arbitrary items with optional capacity."""

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._putters: List[StorePut] = []
        self._getters: List[StoreGet] = []

    def put(self, item: Any) -> StorePut:
        """Insert *item*; blocks (the event) while the store is full."""
        event = StorePut(self, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self) -> StoreGet:
        """Remove and return the oldest item; blocks while empty."""
        event = StoreGet(self)
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters and len(self.items) < self.capacity:
                put = self._putters.pop(0)
                self.items.append(put.item)
                put.succeed()
                progressed = True
            if self._getters and self.items:
                get = self._getters.pop(0)
                get.succeed(self.items.pop(0))
                progressed = True

    def __len__(self) -> int:
        return len(self.items)
