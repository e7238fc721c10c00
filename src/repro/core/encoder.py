"""The MaxSAT encoding of the QMR problem (Fig. 5 of the paper).

Given a circuit's two-qubit interaction sequence and a connectivity graph, the
encoder produces a weighted partial MaxSAT instance whose optimal models are
optimal QMR solutions:

* **Hard A** -- maps are injective partial functions (at-most-one physical
  qubit per logical qubit and vice versa), plus at-least-one placement for
  every logical qubit at the first step so the extracted map is total.
* **Hard B** -- the two logical qubits of every two-qubit gate are mapped to
  adjacent physical qubits at that gate's step.
* **Hard C** -- each SWAP slot selects exactly one element of
  ``Edges ∪ {no-op}``.
* **Hard D** -- the effect of the selected SWAP: the map at step ``k`` is the
  map at step ``k-1`` with the swapped qubits exchanged.
* **Soft** -- one clause per slot asserting the no-op, so the MaxSAT optimum
  minimises the number of real SWAPs.  In noise-aware mode the soft clauses
  instead penalise each edge by its log-infidelity (Section "Q6").

The clause count is O(|Phys| x |Logic| x |C|): at-most-one constraints use a
commander encoding beyond a small threshold, and the SWAP-effect constraints
are expressed as forward propagation clauses rather than enumerating SWAP
sequences, matching the size the paper reports for its "only-one" encoding.

Clauses are emitted in bulk.  Each constraint family (injectivity AMO per
step, totality, gate adjacency, each SWAP slot, the initial pin, cyclic
closure, noise-aware gate costs) is written into a zero-terminated int32
buffer and handed to :meth:`WcnfBuilder.add_flat
<repro.maxsat.wcnf.WcnfBuilder.add_flat>`, which validates it once and, with
a live session attached, streams it through
:meth:`ClauseSink.add_flat <repro.sat.session.ClauseSink.add_flat>` into the
solve core in a single call.

Only the gate adjacency (Hard B) and the initial pin depend on the gates.
Everything else depends on the *shape* alone: the device's qubits and edges,
the logical-qubit count, the step count and the slot options.  Slicing cuts
a circuit into many instances of a few shapes, so the encoder keeps one
:class:`EncodingTemplate` per shape in a process-wide, lock-guarded LRU
(:func:`template_cache`) holding the gate-independent buffers, the soft
literals and a compact :class:`~repro.core.variables.VariableLayout`.  An
encode replays the template around a freshly built adjacency family and
pin, so a slice costs what its gates cost.  The clauses, their order and
the variable numbering are exactly those of clause-at-a-time emission.  The
cache never holds more than :data:`TEMPLATE_CACHE_BYTES`.  Noise-aware
encoders share the templates of their shape and build their weighted soft
clauses per call.
"""

from __future__ import annotations

import os
import sys
import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass

from repro.circuits.circuit import QuantumCircuit
from repro.core.variables import NOOP, VariableLayout, VariableRegistry
from repro.hardware.architecture import Architecture
from repro.hardware.noise import NoiseModel
from repro.maxsat.cardinality import commander_amo_clauses, pairwise_amo_clauses
from repro.maxsat.wcnf import WcnfBuilder

#: Memory budget of the process-wide template cache, in bytes (the sum of
#: :attr:`EncodingTemplate.nbytes` over the cached shapes).
TEMPLATE_CACHE_BYTES = 16 * 1024 * 1024


@dataclass
class EncodingOptions:
    """Knobs of the encoding.

    ``swaps_per_gate`` is the paper's ``n``; 1 is what the evaluation uses.
    ``collapse_repeated_pairs`` merges consecutive two-qubit gates acting on
    the same logical pair into one step, which preserves optimality and
    shrinks the encoding (no SWAP is ever useful between them).
    """

    swaps_per_gate: int = 1
    collapse_repeated_pairs: bool = True
    commander_threshold: int = 7
    leading_swap_slot: bool = False
    #: Number of SWAP slots in the leading transition (before the first gate)
    #: when ``leading_swap_slot`` is enabled; defaults to ``swaps_per_gate``.
    #: The local relaxation escalates this when a slice with a pinned initial
    #: map turns out unsatisfiable.
    leading_slots: int | None = None
    trailing_swap_slot: bool = False
    cyclic: bool = False
    fixed_initial_mapping: dict[int, int] | None = None
    #: When true, ``fixed_initial_mapping`` is *not* baked in as hard unit
    #: clauses; callers pin it per solve call via
    #: :meth:`QmrEncoding.initial_mapping_assumptions`.  This is what lets a
    #: live session re-solve one encoding under a different inherited map.
    pin_initial_via_assumptions: bool = False
    noise_model: NoiseModel | None = None

    def __post_init__(self) -> None:
        if self.swaps_per_gate < 1:
            raise ValueError("swaps_per_gate must be at least 1")
        if self.leading_slots is not None and self.leading_slots < 1:
            raise ValueError("leading_slots must be at least 1")
        if self.commander_threshold < 3:
            raise ValueError("commander_threshold must be at least 3")


@dataclass
class QmrEncoding:
    """A built encoding: the WCNF plus everything needed to read models back."""

    builder: WcnfBuilder
    #: Variable numbering, shared with every encoding of the same shape.
    registry: VariableLayout
    architecture: Architecture
    num_logical: int
    steps: list[tuple[int, int]]
    step_of_gate: list[int]
    options: EncodingOptions
    #: SWAP slots, in circuit order: (step, slot) pairs that carry swap variables.
    swap_slots: tuple[tuple[int, int], ...] = ()

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def num_hard_clauses(self) -> int:
        return self.builder.num_hard

    @property
    def num_soft_clauses(self) -> int:
        return self.builder.num_soft

    @property
    def num_variables(self) -> int:
        return self.builder.num_vars

    @property
    def root_step(self) -> int:
        """Step index holding the initial map (-1 with a leading SWAP slot)."""
        if not self.steps:
            return 0
        return -1 if self.options.leading_swap_slot else 0

    @property
    def final_step(self) -> int:
        """Step index holding the final map."""
        if not self.steps:
            return 0
        if self.options.trailing_swap_slot or self.options.cyclic:
            return len(self.steps)
        return len(self.steps) - 1

    def initial_mapping_assumptions(self, mapping: dict[int, int]) -> list[int]:
        """Assumption literals pinning the initial map for one solve call.

        Used with :attr:`EncodingOptions.pin_initial_via_assumptions`: the
        same encoding (and the same live solver) can then be re-solved under
        a different inherited map by swapping the assumption set, which is
        how slicing backtracks without re-encoding.
        """
        root = self.root_step
        return [self.registry.map_var(logical, physical, root)
                for logical, physical in sorted(mapping.items())
                if logical < self.num_logical]

    def final_mapping_exclusion(self, mapping: dict[int, int]) -> list[int]:
        """Hard clause (as literals) forbidding ``mapping`` as the final map.

        Only variables the encoding already knows are used; an empty list
        means the mapping cannot be excluded (nothing to negate).
        """
        final = self.final_step
        num_physical = self.architecture.num_qubits
        return [-self.registry.map_var(logical, physical, final)
                for logical, physical in mapping.items()
                if logical < self.num_logical and 0 <= physical < num_physical]


class EncodingTemplate:
    """The gate-independent clauses and numbering of one encoding shape.

    A shape is the device (qubit count and edges), the logical-qubit count,
    the step count and the slot options.  ``head`` holds the injectivity of
    every map up to the last gate step and the root map's totality;
    ``slots`` every SWAP slot (Hard C and Hard D, with the injectivity of
    its pseudo-steps and of the trailing step); ``closure`` the cyclic
    closure.  :meth:`QmrEncoder.encode_interactions` replays them around a
    freshly built gate-adjacency family and initial pin, which gives the
    clauses, clause order and variable numbering of building everything
    from scratch.  Templates are shared between threads and never mutated.
    """

    __slots__ = ("layout", "num_vars", "head", "slots", "closure",
                 "swap_slots", "soft", "nbytes")

    def __init__(self, layout: VariableLayout, num_vars: int, head: array,
                 slots: array, closure: array,
                 swap_slots: tuple[tuple[int, int], ...]) -> None:
        self.layout = layout
        self.num_vars = num_vars
        self.head = head
        self.slots = slots
        self.closure = closure
        self.swap_slots = swap_slots
        #: The unweighted soft literals: each slot's no-op, in slot order.
        self.soft = array("i", (layout.slot_base(step, slot)
                                for step, slot in swap_slots))
        #: Approximate memory the template holds (what the cache budgets).
        self.nbytes = (layout.nbytes + sys.getsizeof(swap_slots)
                       + sum(sys.getsizeof(buffer) for buffer
                             in (head, slots, closure, self.soft)))


class TemplateCache:
    """A lock-guarded LRU of :class:`EncodingTemplate` s under a byte budget.

    A template larger than the whole budget is never stored; adding one
    evicts the least recently used entries until the total fits again.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.nbytes = 0
        self._entries: OrderedDict[tuple, EncodingTemplate] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> EncodingTemplate | None:
        with self._lock:
            template = self._entries.get(key)
            if template is not None:
                self._entries.move_to_end(key)
            return template

    def put(self, key: tuple, template: EncodingTemplate) -> None:
        with self._lock:
            if template.nbytes > self.budget or key in self._entries:
                return
            self._entries[key] = template
            self.nbytes += template.nbytes
            while self.nbytes > self.budget:
                _, evicted = self._entries.popitem(last=False)
                self.nbytes -= evicted.nbytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0

    def _after_fork(self) -> None:
        # A forked child may inherit the lock held by a parent thread.
        self._lock = threading.Lock()


_TEMPLATES = TemplateCache(TEMPLATE_CACHE_BYTES)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_TEMPLATES._after_fork)


def template_cache() -> TemplateCache:
    """The process-wide template cache every :class:`QmrEncoder` shares."""
    return _TEMPLATES


class QmrEncoder:
    """Builds the MaxSAT instance of Fig. 5 for a circuit and an architecture."""

    def __init__(self, architecture: Architecture,
                 options: EncodingOptions | None = None) -> None:
        self.architecture = architecture
        self.options = options or EncodingOptions()

    # ------------------------------------------------------------------ API

    def encode(self, circuit: QuantumCircuit, sink=None) -> QmrEncoding:
        """Encode ``circuit`` (its two-qubit interaction sequence) as MaxSAT.

        With a ``sink`` (a :class:`~repro.sat.session.ClauseSink`, typically a
        live :class:`~repro.sat.session.SatSession`), each constraint family
        is streamed into it as one flat buffer the moment it is complete, so
        by the time this method returns the attached solver already holds
        the formula.

        Interaction extraction reads the circuit IR's two-qubit columns
        directly (O(#interactions), no gate-list rescans), so slice views
        encode without ever materialising their gates.
        """
        interactions = circuit.interaction_sequence()
        return self.encode_interactions(interactions, circuit.num_qubits, sink=sink)

    def encode_interactions(self, interactions: list[tuple[int, int]],
                            num_logical: int, sink=None) -> QmrEncoding:
        """Encode an explicit interaction sequence over ``num_logical`` qubits.

        The shape's :class:`EncodingTemplate` (from the process-wide cache,
        or built now) supplies every gate-independent clause; only the gate
        adjacency, the initial pin and any noise-aware objective are built
        per call.
        """
        architecture = self.architecture
        options = self.options
        if num_logical > architecture.num_qubits:
            raise ValueError(
                f"circuit uses {num_logical} logical qubits but the architecture "
                f"only has {architecture.num_qubits} physical qubits"
            )

        steps, step_of_gate = self._build_steps(interactions)
        template = self.template(num_logical, len(steps))
        layout = template.layout
        builder = WcnfBuilder(num_vars=template.num_vars)
        if sink is not None:
            builder.attach_sink(sink)
        encoding = QmrEncoding(
            builder=builder,
            registry=layout,
            architecture=architecture,
            num_logical=num_logical,
            steps=steps,
            step_of_gate=step_of_gate,
            options=options,
            swap_slots=template.swap_slots,
        )
        builder.add_flat(template.head)
        builder.add_flat(self._encode_gate_adjacency(layout, steps))
        builder.add_flat(template.slots)
        builder.add_flat(self._encode_initial_mapping(encoding))
        builder.add_flat(template.closure)
        if options.noise_model is None:
            for literal in template.soft:
                builder.add_soft([literal])
        else:
            self._encode_noise_aware_soft(encoding)
        return encoding

    def template(self, num_logical: int, num_steps: int) -> EncodingTemplate:
        """The gate-independent template of this encoder's shape.

        Cached process-wide under the shape key.  The noise model is not
        part of the key: it only shapes the soft clauses, which noise-aware
        encodes build per call.
        """
        options = self.options
        architecture = self.architecture
        key = (architecture.num_qubits, tuple(architecture.edges), num_logical,
               num_steps, options.swaps_per_gate, options.commander_threshold,
               options.leading_swap_slot, options.leading_slots,
               options.trailing_swap_slot, options.cyclic)
        template = _TEMPLATES.get(key)
        if template is None:
            template = self._build_template(num_logical, num_steps)
            _TEMPLATES.put(key, template)
        return template

    # ------------------------------------------------------------ step setup

    def _build_steps(self, interactions: list[tuple[int, int]]
                     ) -> tuple[list[tuple[int, int]], list[int]]:
        """Collapse consecutive same-pair gates into steps (if enabled)."""
        steps: list[tuple[int, int]] = []
        step_of_gate: list[int] = []
        for first, second in interactions:
            pair = (min(first, second), max(first, second))
            if (self.options.collapse_repeated_pairs and steps
                    and steps[-1] == pair):
                step_of_gate.append(len(steps) - 1)
                continue
            steps.append(pair)
            step_of_gate.append(len(steps) - 1)
        return steps, step_of_gate

    # ------------------------------------------------------------- template
    #
    # Each template component writes its clauses into a flat list (literals,
    # then a 0 per clause), in the order the clauses were always produced,
    # and appends it to a list of int32 chunks; each template buffer is the
    # chunks joined once, at its exact size.  Variables are allocated by a
    # scratch builder in that same order, so a replay numbers every
    # variable exactly as a from-scratch build would.

    def _build_template(self, num_logical: int, num_steps: int) -> EncodingTemplate:
        """Allocate and write every gate-independent family of one shape."""
        options = self.options
        scratch = WcnfBuilder()
        registry = VariableRegistry(scratch)
        head: list[array] = []
        slots: list[array] = []
        closure: list[array] = []
        swap_slots: list[tuple[int, int]] = []
        if not num_steps:
            # No two-qubit gates: only one injective, total map at step 0.
            self._encode_injectivity(registry, num_logical, head, 0, total=True)
        else:
            # With a leading SWAP slot the map *before* any gate lives at
            # virtual step -1, and the slot transforms it into the step-0
            # map; otherwise step 0 itself is the initial map.
            root_step = -1 if options.leading_swap_slot else 0
            if root_step == -1:
                self._encode_injectivity(registry, num_logical, head, -1)
            for step in range(num_steps):
                self._encode_injectivity(registry, num_logical, head, step)
            self._encode_totality(registry, num_logical, head, root_step)
            self._encode_swap_slots(registry, num_logical, slots, swap_slots, num_steps)
            if options.cyclic:
                self._encode_cyclic_closure(registry, num_logical, closure, num_steps)
        edges = tuple(self.architecture.edges)
        layout = registry.freeze(num_logical, self.architecture.num_qubits,
                                 edges, swap_slots)
        return EncodingTemplate(layout, scratch.num_vars, _joined(head),
                                _joined(slots), _joined(closure),
                                tuple(swap_slots))

    def _encode_injectivity(self, registry: VariableRegistry, num_logical: int,
                            out: list[array], step: int,
                            total: bool = False) -> None:
        """Hard A: at ``step`` the map is an injective partial function.

        Also used for the virtual pre-circuit step -1 and the pseudo-steps
        between chained SWAP slots.  ``total`` puts each logical qubit's
        at-least-one placement clause ahead of its at-most-one.
        """
        num_physical = self.architecture.num_qubits
        new_var = registry.builder.new_var
        clauses: list[int] = []
        rows = []
        for logical in range(num_logical):
            row = registry.map_row(logical, step, num_physical)
            rows.append(row)
            if total:
                clauses += row
                clauses.append(0)
            self._at_most_one(clauses, row, new_var)
        for physical in range(num_physical):
            self._at_most_one(clauses, [row[physical] for row in rows], new_var)
        out.append(array("i", clauses))

    def _encode_totality(self, registry: VariableRegistry, num_logical: int,
                         out: list[array], step: int) -> None:
        """Every logical qubit is placed somewhere at ``step``.

        Together with the SWAP-effect constraints this makes every map in the
        sequence total, so extraction never has to invent placements for
        qubits that participate in gates.
        """
        num_physical = self.architecture.num_qubits
        clauses: list[int] = []
        for logical in range(num_logical):
            clauses += registry.map_row(logical, step, num_physical)
            clauses.append(0)
        out.append(array("i", clauses))

    def _encode_swap_slots(self, registry: VariableRegistry, num_logical: int,
                           out: list[array],
                           swap_slots: list[tuple[int, int]],
                           num_steps: int) -> None:
        """Hard C and Hard D for every SWAP slot between consecutive steps."""
        options = self.options
        for step in range(num_steps):
            if step == 0 and not options.leading_swap_slot:
                continue
            previous = step - 1  # -1 is the virtual pre-circuit step
            slots = options.swaps_per_gate
            if step == 0 and options.leading_slots is not None:
                slots = options.leading_slots
            self._encode_one_transition(registry, num_logical, out, swap_slots,
                                        previous, step, slots)
        if options.trailing_swap_slot or options.cyclic:
            # A final slot after the last gate, producing the "final map" step
            # used by the cyclic relaxation (step index == num_steps).
            self._encode_injectivity(registry, num_logical, out, num_steps)
            self._encode_one_transition(registry, num_logical, out, swap_slots,
                                        num_steps - 1, num_steps,
                                        options.swaps_per_gate)

    def _encode_one_transition(self, registry: VariableRegistry,
                               num_logical: int, out: list[array],
                               swap_slots: list[tuple[int, int]],
                               previous_step: int, current_step: int,
                               num_slots: int) -> None:
        """Slots between ``previous_step`` and ``current_step`` (chained if > 1)."""
        # Intermediate maps are represented as fractional pseudo-steps encoded
        # with dedicated step indices only when n > 1; for n == 1 the slot
        # connects the two real steps directly.
        for slot in range(num_slots):
            is_last_slot = slot == num_slots - 1
            source = previous_step if slot == 0 else _pseudo_step(current_step, slot - 1)
            target = current_step if is_last_slot else _pseudo_step(current_step, slot)
            if not is_last_slot:
                self._encode_injectivity(registry, num_logical, out, target)
            self._encode_slot(registry, num_logical, out, source, target,
                              current_step, slot)
            swap_slots.append((current_step, slot))

    def _encode_slot(self, registry: VariableRegistry, num_logical: int,
                     out: list[array], source_step: int, target_step: int,
                     real_step: int, slot: int) -> None:
        """One SWAP slot: Hard C (exactly one choice) + Hard D (its effect)."""
        architecture = self.architecture
        num_physical = architecture.num_qubits
        edges = architecture.edges

        noop_var = registry.swap_var(NOOP, real_step, slot)
        choice_vars = [noop_var] + [registry.swap_var(edge, real_step, slot)
                                    for edge in edges]
        # Hard C: exactly one of {no-op} ∪ Edges is selected.
        clauses: list[int] = list(choice_vars)
        clauses.append(0)
        self._at_most_one(clauses, choice_vars, registry.builder.new_var)

        # Hard D: forward propagation of every logical qubit's position.  A
        # qubit on ``physical`` stays unless an incident edge swaps, and
        # moves to the edge's other end when that edge swaps.
        stays: list[list[int]] = [[] for _ in range(num_physical)]
        moves: list[list[tuple[int, int]]] = [[] for _ in range(num_physical)]
        for swap, (first, second) in zip(choice_vars[1:], edges):
            stays[first].append(swap)
            stays[second].append(swap)
            moves[first].append((-swap, second))
            moves[second].append((-swap, first))
        for logical in range(num_logical):
            source = registry.map_row(logical, source_step, num_physical)
            target = registry.map_row(logical, target_step, num_physical)
            for physical in range(num_physical):
                negated = -source[physical]
                clauses.append(negated)
                clauses += stays[physical]
                clauses += (target[physical], 0)
                for not_swapped, other in moves[physical]:
                    clauses += (negated, not_swapped, target[other], 0)
        out.append(array("i", clauses))

    def _encode_cyclic_closure(self, registry: VariableRegistry,
                               num_logical: int, out: list[array],
                               final_step: int) -> None:
        """Section VI: the final map equals the initial map, qubit by qubit."""
        num_physical = self.architecture.num_qubits
        clauses: list[int] = []
        for logical in range(num_logical):
            initial_row = registry.map_row(logical, 0, num_physical)
            final_row = registry.map_row(logical, final_step, num_physical)
            for initial, final in zip(initial_row, final_row):
                clauses += (-initial, final, 0, initial, -final, 0)
        out.append(array("i", clauses))

    def _at_most_one(self, out: list[int], literals: list[int], new_var) -> None:
        if len(literals) <= 1:
            return
        if len(literals) < self.options.commander_threshold:
            pairwise_amo_clauses(out, literals)
        else:
            commander_amo_clauses(out, literals, new_var)

    # ------------------------------------------------------- per-call parts

    def _encode_gate_adjacency(self, layout: VariableLayout,
                               steps: list[tuple[int, int]]) -> array:
        """Hard B: each gate's qubits sit on adjacent physical qubits at its step."""
        architecture = self.architecture
        num_physical = architecture.num_qubits
        neighbors = [architecture.neighbors_sorted(physical)
                     for physical in range(num_physical)]
        out: list[int] = []
        for step, (first, second) in enumerate(steps):
            starts = layout.row_starts(step)
            for logical, other in ((first, second), (second, first)):
                own = starts[logical]
                partner = starts[other]
                for physical in range(num_physical):
                    out.append(-(own + physical))
                    out += [partner + neighbor for neighbor in neighbors[physical]]
                    out.append(0)
        return array("i", out)

    def _encode_initial_mapping(self, encoding: QmrEncoding) -> array:
        """Pin the initial map to a given mapping (used by the local relaxation).

        The pin applies at the root step: -1 when a leading SWAP slot exists
        (the inherited map applies *before* that slot), 0 otherwise.

        When ``pin_initial_via_assumptions`` is set the mapping is *not*
        encoded as hard clauses; the caller assumes the corresponding map
        variables per solve call instead (see
        :meth:`QmrEncoding.initial_mapping_assumptions`).
        """
        fixed = encoding.options.fixed_initial_mapping
        out = array("i")
        if not fixed or encoding.options.pin_initial_via_assumptions:
            return out
        root_step = encoding.root_step
        for logical, physical in fixed.items():
            if logical < encoding.num_logical:
                out.append(encoding.registry.map_var(logical, physical, root_step))
                out.append(0)
        return out

    def _encode_noise_aware_soft(self, encoding: QmrEncoding) -> None:
        """Noise-aware objective (Q6): weighted SWAP and gate-placement costs.

        Each slot's edges are penalised by their SWAP log-infidelity.  For
        every step and every edge an auxiliary "executed on this edge"
        variable, implied by the two map placements, carries a soft clause
        weighted by the edge's CNOT log-infidelity.
        """
        builder = encoding.builder
        layout = encoding.registry
        noise = encoding.options.noise_model
        edges = encoding.architecture.edges
        for step, slot in encoding.swap_slots:
            for edge in edges:
                builder.add_soft([-layout.swap_var(edge, step, slot)],
                                 weight=noise.swap_weight(*edge))
        out: list[int] = []
        for step, (first, second) in enumerate(encoding.steps):
            first_start = layout.map_var(first, 0, step)
            second_start = layout.map_var(second, 0, step)
            for physical_a, physical_b in edges:
                executed = builder.new_var()
                out += (-(first_start + physical_a), -(second_start + physical_b),
                        executed, 0,
                        -(second_start + physical_a), -(first_start + physical_b),
                        executed, 0)
                error = noise.edge_error(physical_a, physical_b)
                weight = max(1, round(-noise.weight_scale *
                                      _log_one_minus(error)))
                builder.add_soft([-executed], weight=weight)
        builder.add_flat(array("i", out))


def _pseudo_step(step: int, slot: int) -> int:
    """Step index used for intermediate maps when ``swaps_per_gate > 1``."""
    return (step + 1) * 10_000 + slot


def _joined(chunks: list[array]) -> array:
    """One exactly sized int32 buffer holding ``chunks`` back to back.

    The buffer is allocated once, at its final size, and filled in place:
    a cached template lives for the whole process, and building it through
    a large temporary that is then freed measurably raised peak RSS.
    """
    joined = array("i", [0]) * sum(len(chunk) for chunk in chunks)
    position = 0
    for chunk in chunks:
        joined[position:position + len(chunk)] = chunk
        position += len(chunk)
    return joined


def _log_one_minus(error: float) -> float:
    """Natural log of (1 - error), guarded against error == 1."""
    import math

    return math.log(max(1e-12, 1.0 - error))
