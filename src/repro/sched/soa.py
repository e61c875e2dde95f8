"""Struct-of-arrays storage for the scheduler hot core.

The block pass of :mod:`repro.sched.global_sched` runs each region on
dense indexed storage, so dependence-counter updates, readiness queries
and priority comparisons touch machine ints rather than per-instruction
Python objects:

* the region's :class:`~repro.pdg.data_deps.DataDependenceGraph` indexes
  its instructions in the order they were added and lists each one's
  edges by index, every edge carrying its endpoint indices and its
  machine weight;
* :class:`DenseDependenceState` keeps the unfulfilled-predecessor
  counters, earliest starts, and issue cycles of the whole region as flat
  ``array('i')`` / ``bytearray`` tables over those indices -- the block
  pass reads ``blocked`` and ``earliest`` directly while it walks its
  candidates;
* :func:`pack_rows` packs the static per-candidate priority tuples into
  single ints whose ``<`` order equals the tuples' lexicographic order,
  so selection compares machine ints instead of nested tuples.

Equivalence contract: the seed per-query state
(:class:`repro.pdg.reference.DependenceStateReference`) answers every
query the same way; ``tests/sched/test_ready.py`` runs both through the
same scenarios and ``tests/sched/test_event_scan_equivalence.py`` holds
whole schedules byte-identical to the seed scan pass.

Graph mutations (Section 4.2 renames, Definition 6 duplication) bump
``DataDependenceGraph.version``.  Indices are stable (the instruction
list is append-only), so fulfilment flags and issue cycles survive a
mutation; :meth:`DenseDependenceState.sync` extends the per-index tables
to new instructions and recomputes only the derived counters.
"""

from __future__ import annotations

from array import array

from ..machine.model import MachineModel
from ..pdg.data_deps import DataDependenceGraph

#: "never issued / no carry" sentinel for start-cycle arrays; any real
#: start (local or carried) is far above this
_NEVER = -(1 << 30)


#: what every priority key must be for :func:`pack_rows` to order it
_KEY_CONTRACT = ("priority keys must be equal-length tuples of ints, "
                 "static for the duration of a block pass")


def pack_rows(rows: list[tuple]) -> list[int]:
    """Pack equal-length all-int tuples into ints, preserving order.

    Classic mixed-radix packing: each field is offset by its column
    minimum and given exactly the bits its column range needs, so for any
    two rows ``a < b  <=>  pack(a) < pack(b)`` and ``a == b  <=>
    pack(a) == pack(b)``.  Constant columns contribute zero bits.  The
    block pass compares these ints instead of the tuples; decision
    tracing reads the tuples.

    Rows of different lengths, or fields that are not ints, raise
    ``TypeError``: either would silently break the order guarantee.
    """
    if not rows:
        return []
    widths = set(map(len, rows))
    if len(widths) != 1:
        raise TypeError(f"{_KEY_CONTRACT}; got rows of lengths "
                        f"{sorted(widths)}")
    try:
        # column extrema via C-speed min/max; shift-accumulate per row
        # with constant (zero-bit) columns dropped from the inner loop
        plan = []
        for f, col in enumerate(zip(*rows)):
            low = min(col)
            bits = (max(col) - low).bit_length()
            if bits:
                plan.append((f, bits, low))
        if not plan:
            return [0] * len(rows)
        packed = []
        for row in rows:
            acc = 0
            for f, bits, low in plan:
                acc = (acc << bits) | (row[f] - low)
            packed.append(acc)
    except (TypeError, AttributeError) as exc:
        # a float has no bit_length; mixed columns fail the shift or the
        # subtraction
        raise TypeError(f"{_KEY_CONTRACT}; {exc}") from None
    return packed


class DenseDependenceState:
    """Fulfilment and earliest-start tracking on flat arrays.

    Behavioural twin of the seed's per-query state
    (:class:`repro.pdg.reference.DependenceStateReference`, which the scan
    oracle runs on), but every per-instruction fact is an array slot
    indexed by the graph's instruction index:

    * ``blocked``: ``array('i')`` of unfulfilled-predecessor counts,
      recomputed eagerly from the graph's predecessor lists on (re)binding
      and decremented on each fulfilment;
    * ``earliest``: ``array('i')`` earliest start within the current
      pass, folded incrementally on issue;
    * ``_fulfilled``: bytearray flag per instruction;
    * ``_local`` / ``_carry``: issue cycles (current pass / shifted
      previous pass) with the :data:`_NEVER` sentinel.

    ``blocked`` and ``earliest`` are public so the block pass can read
    them without a method call per candidate.  A rebind replaces both
    arrays, so a reader that holds them across a possible graph mutation
    must call :meth:`sync` and fetch them again.

    A DDG version bump triggers a rebind: indices are stable and new
    instructions append, so surviving per-index facts are extended and
    the derived counters are recomputed from the current fulfilment.
    """

    def __init__(self, ddg: DataDependenceGraph, machine: MachineModel):
        self.ddg = ddg.to_dense(machine)
        self.invalidations = 0
        #: instructions bound at the last (re)bind; later ones are unknown
        #: until the next version bump
        self._n = 0
        self._fulfilled = bytearray()
        self._local = array("i")
        self._carry = array("i")
        self.blocked = array("i")
        self.earliest = array("i")
        #: indices issued in the current block pass / carried from the
        #: previous one -- begin_block only visits these, not all of n
        self._pass_issued: list[int] = []
        self._carried: list[int] = []
        self._n_fulfilled = 0
        self._zeros = array("i")
        self._version = -1
        self._bind()

    # -- graph binding -------------------------------------------------------

    def _bind(self) -> None:
        """Extend the per-index facts to the graph's instructions and
        recompute derived counters."""
        self._version = self.ddg.version
        n = self._n = len(self.ddg.instructions)
        grow = n - len(self._fulfilled)
        if grow > 0:
            self._fulfilled.extend(bytes(grow))
            pad = array("i", [_NEVER]) * grow
            self._local.extend(pad)
            self._carry.extend(pad)
        self._recompute()

    def _recompute(self) -> None:
        """Blocked counts and earliest starts, from scratch (O(V+E))."""
        n = self._n
        pred = self.ddg.pred
        if (self._n_fulfilled == 0 and not self._pass_issued
                and not self._carried):
            # fresh state (the common per-region bind): every predecessor
            # is unfulfilled and nothing has started -- blocked counts are
            # just the pred degrees, earliest starts are all zero
            self.blocked = array("i", [len(pred[i]) for i in range(n)])
            self.earliest = array("i", bytes(4 * n))
            return
        fulfilled = self._fulfilled
        local = self._local
        carry = self._carry
        blocked = array("i", bytes(4 * n))
        earliest = array("i", bytes(4 * n))
        for i in range(n):
            count = 0
            e = 0
            for edge in pred[i]:
                j = edge.src_idx
                if not fulfilled[j]:
                    count += 1
                start = local[j]
                if start == _NEVER:
                    start = carry[j]
                if start != _NEVER:
                    bound = start + edge.weight
                    if bound > e:
                        e = bound
            blocked[i] = count
            earliest[i] = e
        self.blocked = blocked
        self.earliest = earliest

    def sync(self) -> None:
        """Rebind if the graph mutated since the last (re)bind."""
        if self._version != self.ddg.version:
            self._bind()
            self.invalidations += 1

    def index_of(self, ins) -> int:
        """Graph index of ``ins`` (-1 if it is not bound)."""
        self.sync()
        i = self.ddg.index.get(id(ins), -1)
        return i if i < self._n else -1

    # -- pass lifecycle ------------------------------------------------------

    def begin_block(self, *, carry_cycles: int | None = None) -> None:
        """Start a new block pass: the previous pass's issue cycles either
        stop constraining timing or carry over shifted by
        ``carry_cycles``, and earliest starts are recomputed under the new
        pass's clock.

        With ``carry_cycles`` (the schedule length of the pass that just
        ended, when that block is a control-flow predecessor of the new
        one), an instruction issued at local cycle ``c`` appears to the
        new pass as issued at ``c - carry_cycles``.  This makes delays
        that straddle the block boundary visible -- e.g. a compare at the
        end of the predecessor holds this block's branch back for the
        remaining delay cycles, which is exactly the window the
        rotated-loop second pass fills with next-iteration instructions
        (the paper's partial software pipelining).  Older passes stop
        constraining timing entirely.

        Only the instructions issued last pass (and the carries of the
        pass before) are touched -- O(issued + their successors) plus one
        C-level zero fill, not O(V + E)."""
        self.sync()
        local = self._local
        carry = self._carry
        for i in self._carried:
            carry[i] = _NEVER
        carried: list[int] = []
        if carry_cycles is None:
            for i in self._pass_issued:
                local[i] = _NEVER
        else:
            for i in self._pass_issued:
                s = local[i]
                if s != _NEVER:
                    carry[i] = s - carry_cycles
                    carried.append(i)
                    local[i] = _NEVER
        self._carried = carried
        self._pass_issued = []
        # every earliest start was relative to the old pass's clock; under
        # the new one only carried predecessors constrain anything
        earliest = self.earliest
        zeros = self._zeros
        if len(zeros) != self._n:
            zeros = self._zeros = array("i", bytes(4 * self._n))
        earliest[:] = zeros              # C-level fill, no reallocation
        succ = self.ddg.succ
        for i in carried:
            base = carry[i]
            for edge in succ[i]:
                j = edge.dst_idx
                bound = base + edge.weight
                if bound > earliest[j]:
                    earliest[j] = bound

    # -- state transitions ---------------------------------------------------

    def mark_prefulfilled_idx(self, i: int) -> None:
        """Instruction ``i`` completed in an earlier block (or is a passed
        abstract-loop barrier): fulfilled, timing-neutral."""
        if self._fulfilled[i]:
            return
        self._fulfilled[i] = 1
        self._n_fulfilled += 1
        blocked = self.blocked
        for edge in self.ddg.succ[i]:
            blocked[edge.dst_idx] -= 1

    def mark_prefulfilled(self, ins) -> None:
        i = self.index_of(ins)
        if i >= 0:
            self.mark_prefulfilled_idx(i)

    def mark_issued_idx(self, i: int, cycle: int) -> None:
        fulfilled = self._fulfilled
        first = not fulfilled[i]
        fulfilled[i] = 1
        if first:
            self._n_fulfilled += 1
        if self._local[i] == _NEVER:
            self._pass_issued.append(i)
        self._local[i] = cycle
        blocked = self.blocked
        earliest = self.earliest
        for edge in self.ddg.succ[i]:
            j = edge.dst_idx
            bound = cycle + edge.weight
            if bound > earliest[j]:
                earliest[j] = bound
            if first:
                blocked[j] -= 1

    def mark_issued(self, ins, cycle: int) -> None:
        i = self.index_of(ins)
        if i >= 0:
            self.mark_issued_idx(i, cycle)

    # -- queries -------------------------------------------------------------

    def deps_satisfied(self, ins) -> bool:
        i = self.index_of(ins)
        return i < 0 or self.blocked[i] == 0

    def earliest_start(self, ins) -> int:
        i = self.index_of(ins)
        return 0 if i < 0 else self.earliest[i]

    def is_fulfilled(self, ins) -> bool:
        i = self.index_of(ins)
        return i >= 0 and bool(self._fulfilled[i])

    def start_of(self, ins) -> int | None:
        """Issue cycle within the current pass (None if not issued here)."""
        i = self.index_of(ins)
        if i < 0:
            return None
        s = self._local[i]
        return None if s == _NEVER else s
