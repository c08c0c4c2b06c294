"""Stage marks, with a reference kernel timed between the stages.

Other tenants of a shared machine change its speed from one second to the
next: on the machine README.md describes, by 20-40% within a minute. A
fixed pure-Python kernel timed right next to a stage slows down with it.
Scaling the stage's seconds by ``REF_KERNEL_S`` over the kernel's time
gives seconds at the reference speed, the speed at which one kernel takes
``REF_KERNEL_S``; that is close to the same machine when it is idle.
"""

from __future__ import annotations

import time

REF_KERNEL_S = 0.0028     # one kernel() on the idle machine README.md describes
REF_RUNS = 3              # kernels per reference burst
REF_EVERY_S = 0.2         # at most one burst per this much workload time


def kernel() -> float:
    """Fixed pure-Python work: dict updates and float arithmetic."""
    counts: dict[int, int] = {}
    acc = 0.0
    for i in range(20000):
        k = i % 97
        counts[k] = counts.get(k, 0) + 1
        acc += (i * 0.5) / (k + 1)
    return acc


def reference_s() -> float:
    """Best time of one kernel over a burst of REF_RUNS; the best leaves
    out the first call's warm-up in a fresh process."""
    best = float("inf")
    for _ in range(REF_RUNS):
        t = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t)
    return best


class StageClock:
    """Marks the start of each stage; between stages, at most every
    REF_EVERY_S, it times a reference burst as a stage of its own
    named "ref", which is never counted as workload time."""

    def __init__(self) -> None:
        self.marks: list[tuple[str, float]] = []
        self.refs: dict[int, float] = {}    # mark index -> kernel seconds
        self._next_ref = 0.0

    def reference(self) -> None:
        self.marks.append(("ref", time.perf_counter()))
        self.refs[len(self.marks) - 1] = reference_s()
        self._next_ref = time.perf_counter() + REF_EVERY_S

    def mark(self, stage: str) -> None:
        if time.perf_counter() >= self._next_ref:
            self.reference()
        self.marks.append((stage, time.perf_counter()))

    def segments(self) -> list[list]:
        """Close with a reference burst; then [stage, seconds] per mark up
        to the next one, where a "ref" stage's seconds are its kernel's."""
        self.reference()
        ends = [t for _, t in self.marks[1:]] + [None]
        return [[stage, self.refs[j] if stage == "ref" else e - t]
                for j, ((stage, t), e) in enumerate(zip(self.marks, ends))]


def at_reference_speed(segments: list[list]) -> list[tuple[str, float]]:
    """Workload stages with their seconds at the reference speed, each
    scaled by the mean of the reference bursts just before and after it."""
    refs = [(j, s) for j, (stage, s) in enumerate(segments) if stage == "ref"]
    out = []
    k = 0                                   # refs[k] is the next burst at or after j
    for j, (stage, seconds) in enumerate(segments):
        while k < len(refs) and refs[k][0] < j:
            k += 1
        if stage == "ref":
            continue
        near = [refs[i][1] for i in (k - 1, k) if 0 <= i < len(refs)]
        out.append((stage, seconds * REF_KERNEL_S * len(near) / sum(near)))
    return out
