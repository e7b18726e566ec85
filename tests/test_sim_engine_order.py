"""Property test: the engine fires events in exact (time, seq) order.

The engine keeps events scheduled at the current time in a FIFO ready
lane beside its heap.  This test drives random schedules through both
the engine and a heap-only reference calendar and requires the same
fire order, clock and event count after every action.
"""

import heapq
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator


class _RefEvent:
    def __init__(self, callback):
        self.callback = callback
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class RefCalendar:
    """Heap-only calendar in plain (time, seq) order."""

    def __init__(self):
        self.now, self.events_processed = 0.0, 0
        self._heap, self._seq, self._stopped = [], itertools.count(), False

    def call_at(self, time, callback):
        event = _RefEvent(callback)
        heapq.heappush(self._heap, (time, next(self._seq), event))
        return event

    def stop(self):
        self._stopped = True

    def peek(self):
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def step(self):
        if self.peek() is None:
            return False
        time, _, event = heapq.heappop(self._heap)
        if time < self.now - 1e-15:
            raise SimulationError("time went backwards")
        self.now = max(self.now, time)
        self.events_processed += 1
        event.callback()
        return True

    def run(self, until=None, max_events=None):
        self._stopped, processed = False, 0
        while not self._stopped and (max_events is None
                                     or processed < max_events):
            nxt = self.peek()
            if nxt is None or (until is not None and nxt > until):
                break
            self.step()
            processed += 1
        if until is not None and self.now < until:
            self.now = until
        return self.now


DELAYS = st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 2.0])
# Per created event: delays of the children it schedules when it fires,
# the handle index it cancels (if any), and whether it stops the run.
BEHAVIOUR = st.tuples(st.lists(DELAYS, max_size=3),
                      st.none() | st.integers(0, 60),
                      st.integers(0, 9).map(lambda n: n == 0))
ACTION = st.one_of(
    st.tuples(st.just("schedule"), DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 60)),
    st.tuples(st.just("run"),
              st.none() | st.sampled_from([0.0, 0.5, 1.0, 3.0]),
              st.none() | st.integers(0, 6)),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek")),
)


def play(cal, actions, behaviours):
    """Apply ``actions`` to ``cal``; the log of everything observable."""
    log, handles = [], []

    def schedule(delay):
        index = len(handles)
        if index >= len(behaviours):
            return

        def fire():
            log.append(("fire", index, cal.now))
            children, cancel, stop = behaviours[index]
            for child in children:
                schedule(child)
            if cancel is not None and cancel < len(handles):
                handles[cancel].cancel()
            if stop:
                cal.stop()

        handles.append(cal.call_at(cal.now + delay, fire))

    for action in actions:
        try:
            if action[0] == "schedule":
                schedule(action[1])
            elif action[0] == "cancel" and handles:
                handles[action[1] % len(handles)].cancel()
            elif action[0] == "run":
                until = None if action[1] is None else cal.now + action[1]
                log.append(("run", cal.run(until=until,
                                           max_events=action[2])))
            elif action[0] == "step":
                log.append(("step", cal.step()))
            elif action[0] == "peek":
                log.append(("peek", cal.peek()))
        except SimulationError:
            # An earlier run stopped before `until` and jumped the clock
            # past pending events; both calendars must refuse alike.
            log.append(("error",))
        log.append(("state", cal.now, cal.events_processed))
    log.append(("drain", cal.run(max_events=500), cal.events_processed))
    return log


@settings(max_examples=300, deadline=None)
@given(actions=st.lists(ACTION, max_size=25),
       behaviours=st.lists(BEHAVIOUR, max_size=60))
def test_engine_matches_heap_only_reference(actions, behaviours):
    try:
        expected = play(RefCalendar(), actions, behaviours)
    except SimulationError:
        expected = "error"
    try:
        actual = play(Simulator(), actions, behaviours)
    except SimulationError:
        actual = "error"
    assert actual == expected


def test_same_instant_events_follow_earlier_heap_events():
    # The heap event at t=1 was scheduled first (from t=0); the zero-
    # delay event scheduled at t=1 must run after it even though it was
    # scheduled by an event that ran before it.
    sim, seen = Simulator(), []
    sim.call_at(1.0, lambda: (seen.append("a"),
                              sim.call_in(0.0, lambda: seen.append("c"))))
    sim.call_at(1.0, lambda: seen.append("b"))
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.events_processed == 3


def test_clamped_past_time_joins_the_ready_lane():
    sim, seen = Simulator(), []

    def first():
        seen.append("first")
        sim.call_at(sim.now - 1e-16, lambda: seen.append("clamped"))
        sim.call_in(0.0, lambda: seen.append("zero"))

    sim.call_at(0.25, first)
    sim.run()
    assert seen == ["first", "clamped", "zero"]
    assert sim.now == 0.25
