"""SCHED001 fixture: heapq mutators reached through import aliases."""

import heapq as hq
from heapq import heapify
from heapq import heappop as pop_entry
from heapq import heappush


def bad(sim, entry):
    heappush(sim._heap, entry)  # finding: bare name from heapq
    pop_entry(sim._heap)  # finding: as-aliased name from heapq
    heapify(sim._heap)  # finding: bare name from heapq
    hq.heappushpop(sim._heap, entry)  # finding: module alias


def fine(sim, entry, frozen):
    heappush(frozen.queue, entry)  # not a _heap: out of scope
    hq.nsmallest(3, sim._heap)  # reads only
    pop_entry(sim._heap)  # lint: allow(SCHED001)
