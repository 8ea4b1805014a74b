"""A deterministic discrete-event simulator (SimJava substitute).

The simulator maintains a priority queue of timestamped events.  Each event
carries a callback; running the simulation pops events in chronological order
(ties broken by insertion order, which keeps runs fully deterministic) and
invokes their callbacks, which may schedule further events.

The protocol engine layers message passing on top: ``send`` schedules a
delivery event after the link latency, and the receiving peer's handler runs
at delivery time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.exceptions import NetworkError

EventCallback = Callable[[], None]


@dataclass(order=True)
class Event:
    """A scheduled callback.  Ordering: time, then insertion sequence.

    ``spec`` is an optional declarative description of the event (plain
    JSON-compatible payload).  Callbacks are closures and cannot be
    persisted; an event carrying a spec can instead be re-created from it
    after a checkpoint/restore cycle (see :mod:`repro.store.checkpoint`).
    """

    time: float
    sequence: int
    callback: EventCallback = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)
    spec: Optional[Dict[str, object]] = field(default=None, compare=False)

    def cancel(self) -> None:
        """Prevent the callback from running when the event is popped."""
        self.cancelled = True


class Simulator:
    """Event queue + virtual clock."""

    def __init__(self) -> None:
        self._queue: List[Event] = []
        self._next_sequence = 0
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self._now

    @property
    def processed_events(self) -> int:
        return self._processed

    @property
    def pending_events(self) -> int:
        return sum(1 for event in self._queue if not event.cancelled)

    def schedule(
        self,
        delay: float,
        callback: EventCallback,
        label: str = "",
        spec: Optional[Dict[str, object]] = None,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise NetworkError(f"cannot schedule an event in the past (delay={delay})")
        event = Event(
            time=self._now + delay,
            sequence=self._next_sequence,
            callback=callback,
            label=label,
            spec=spec,
        )
        self._next_sequence += 1
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(
        self,
        time: float,
        callback: EventCallback,
        label: str = "",
        spec: Optional[Dict[str, object]] = None,
    ) -> Event:
        """Schedule ``callback`` at an absolute virtual time."""
        if time < self._now:
            raise NetworkError(
                f"cannot schedule at {time} which is before now ({self._now})"
            )
        return self.schedule(time - self._now, callback, label=label, spec=spec)

    # -- checkpoint/restore hooks (used by repro.store.checkpoint) ---------------

    @property
    def next_sequence(self) -> int:
        """The sequence number the next scheduled event will receive."""
        return self._next_sequence

    def pending(self) -> List[Event]:
        """Non-cancelled pending events in firing order (time, then sequence)."""
        return sorted(event for event in self._queue if not event.cancelled)

    def load_state(self, now: float, processed: int, next_sequence: int) -> None:
        """Reset the simulator to a checkpointed clock (queue emptied).

        Pending events are re-created afterwards with :meth:`restore_event`;
        new events then continue from ``next_sequence``, so tie-breaking on
        equal timestamps matches the uninterrupted run exactly.
        """
        if now < 0 or processed < 0 or next_sequence < 0:
            raise NetworkError("checkpointed simulator state must be non-negative")
        self._queue.clear()
        self._now = now
        self._processed = processed
        self._next_sequence = next_sequence

    def restore_event(
        self,
        time: float,
        sequence: int,
        callback: EventCallback,
        label: str = "",
        spec: Optional[Dict[str, object]] = None,
    ) -> Event:
        """Re-insert a checkpointed event with its original sequence number."""
        if time < self._now:
            raise NetworkError(
                f"cannot restore an event at {time} before now ({self._now})"
            )
        event = Event(
            time=time, sequence=sequence, callback=callback, label=label, spec=spec
        )
        heapq.heappush(self._queue, event)
        return event

    def step(self) -> bool:
        """Run the next pending event.  Returns False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            event.callback()
            self._processed += 1
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue drains, ``until`` is reached, or the budget ends.

        Returns the number of events processed by this call.
        """
        processed = 0
        while self._queue:
            if max_events is not None and processed >= max_events:
                break
            next_event = self._peek()
            if next_event is None:
                break
            if until is not None and next_event.time > until:
                self._now = until
                break
            if not self.step():
                break
            processed += 1
        if until is not None and not self._queue and self._now < until:
            self._now = until
        return processed

    def _peek(self) -> Optional[Event]:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0] if self._queue else None

    def reset(self) -> None:
        """Drop every pending event and rewind the clock to zero."""
        self._queue.clear()
        self._now = 0.0
        self._processed = 0
