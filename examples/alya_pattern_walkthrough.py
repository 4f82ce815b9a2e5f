#!/usr/bin/env python
"""The paper's Figures 2-3 walkthrough, reproduced step by step.

Feeds the PPA the exact ALYA event stream of the paper —
``41-41-41 ... 10 ... 10`` repeating (41 = MPI_Sendrecv,
10 = MPI_Allreduce) — and prints the gram array, the pattern-list
insertions and the moment prediction activates.  The paper's Fig. 3
declares the pattern ``41-41-41_10_10`` on MPI event #21, predicting
from gram position 12; this script asserts both.

Run:  python examples/alya_pattern_walkthrough.py
"""

from repro.constants import MPI_ALLREDUCE_ID, MPI_SENDRECV_ID
from repro.core import GramBuilder, PPA, format_pattern
from repro.trace.events import EventLog, MPICall, MPIEvent


def alya_stream(iterations: int = 5) -> list[MPIEvent]:
    """41-41-41 (2 us apart) _ 10 _ 10, separated by 500 us gaps."""

    events: list[MPIEvent] = []
    t = 0.0

    def add(call: MPICall, gap: float) -> None:
        nonlocal t
        t += gap
        events.append(MPIEvent(call, t, t + 3.0))
        t += 3.0

    for _ in range(iterations):
        add(MPICall.SENDRECV, 500.0)
        add(MPICall.SENDRECV, 2.0)
        add(MPICall.SENDRECV, 2.0)
        add(MPICall.ALLREDUCE, 500.0)
        add(MPICall.ALLREDUCE, 500.0)
    return events


def main() -> None:
    assert int(MPICall.SENDRECV) == MPI_SENDRECV_ID == 41
    assert int(MPICall.ALLREDUCE) == MPI_ALLREDUCE_ID == 10

    builder = GramBuilder(grouping_threshold_us=20.0)
    ppa = PPA()
    declared_at_event: int | None = None
    declaration = None

    print(f"{'#':>3s} {'MPI ID':>6s}  {'gram array':40s} action")
    log = EventLog.of(alya_stream())
    for i, (call, enter, exit_) in enumerate(log.rows(), start=1):
        closed = builder.feed(call, enter, exit_)
        action = "joins open gram"
        if closed is not None:
            decl = ppa.add_gram(closed)
            action = f"gram [{closed}] closed -> PPA"
            if decl is not None and declared_at_event is None:
                declared_at_event = i
                declaration = decl
                action += "  ** PREDICTION DECLARED **"
        grams_str = " ".join(str(len(g.signature)) for g in ppa.grams)
        print(f"{i:>3d} {call:>6d}  grams(sizes)=[{grams_str:36s}] {action}")

    assert declaration is not None, "pattern was never declared"
    print()
    print(f"pattern declared on MPI event #{declared_at_event} "
          f"(paper's Fig. 3: event #21)")
    print(f"pattern: {format_pattern(declaration.record.key)} "
          f"(paper: 41-41-41_10_10)")
    print(f"prediction anchored at gram index "
          f"{declaration.anchor_gram_index} (paper: position 12)")

    assert declared_at_event == 21
    assert format_pattern(declaration.record.key) == "41-41-41_10_10"
    assert declaration.anchor_gram_index == 12
    print("all Fig. 3 checkpoints match ✔")


if __name__ == "__main__":
    main()
