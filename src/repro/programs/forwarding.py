"""TACO forwarding programs for the IPv6 router (paper §3–4).

This module generates, per architecture instance, the application code the
paper simulates: receive a datagram pointer from the ippu, validate the
IPv6 header, find the longest-prefix match with the configured routing
table implementation, decrement the hop limit, and hand the datagram to
the oppu. "The application code needs to be tuned for each instance
separately" (§2): the generator specialises the search code to the number
of parallel search-FU sets (matcher/counter/comparator triples) and lets
the bus scheduler pack the moves onto the configured bus count.

Search strategies
-----------------
* **sequential** — scan the entries (kept sorted by descending prefix
  length, so the first hit is the longest match). Per entry the first
  address word is matched under its mask; only on a first-word hit are the
  remaining three words checked. With *S* FU sets the scan is strided: set
  *s* checks entries ``s, s+S, s+2S, ...`` and set priority (lowest strand
  first) preserves the longest-match-first order within each window.
* **balanced-tree** — the floor-plus-enclosing-chain search over the AVL
  node image the RTU materialises (see :mod:`repro.tta.fus.rtu`). Children
  are prefetched while the 128-bit compare is still deciding, and the
  direction is applied by predicated (guarded) moves.
* **cam** — load the four destination words into the RTU and trigger the
  hardware search; wait out its wall-clock latency.

Register map (GPR file, 16 registers):

====  ==============================================================
r0    datagram slot pointer
r1    datagram base word (slot + 2)
r2-5  destination address words 0..3
r6    resolved output interface
r7    entry/node address (search strand 0)
r8    strand-0 scratch / left-child prefetch
r9    strand-1 scratch / tree node index
r10   sequential end address / tree floor address
r11   header word 1 (payload length | next header | hop limit)
r12   strand-1 entry address
r13   strand-2 entry address
r14   strand-2 scratch
r15   scratch (header word 0, source word, right-child prefetch)
====  ==============================================================
"""

from __future__ import annotations

from repro.asm.assembler import assemble
from repro.asm.ir import IrProgram, ProgramBuilder
from repro.dse.config import HARDWARE_SEARCH_KINDS
from repro.programs.machine import RouterMachine
from repro.tta.fus.rtu import (
    NIL_INDEX,
    OFF_ENCLOSING,
    OFF_INTERFACE,
    OFF_LEFT,
    OFF_RIGHT,
)
from repro.tta.memory import ProgramMemory
from repro.tta.ports import Guard, PortRef

P = PortRef

_STRAND_ADDR = ["r7", "r12", "r13"]
_STRAND_SCRATCH = ["r8", "r9", "r14"]


class ForwardingProgramFactory:
    """Generates the per-configuration forwarding program."""

    def __init__(self, machine: RouterMachine):
        self.machine = machine
        self.config = machine.config
        self.strands = (self.config.search_fu_sets
                        if self.config.table_kind not in HARDWARE_SEARCH_KINDS
                        else 1)
        if self.strands > 3:
            self.strands = 3  # register map supports up to three strands

    # -- public -------------------------------------------------------------------

    def build_ir(self) -> IrProgram:
        builder = ProgramBuilder()
        self._emit_wait(builder)
        self._emit_receive(builder)
        self._emit_validation(builder)
        if self.config.table_kind in HARDWARE_SEARCH_KINDS:
            # CAM, multibit-trie and Bloom all trigger the RTU's search
            # engine with the same four-word handshake; only the result
            # latency differs, and that is the RTU's to honour.
            self._emit_cam_search(builder)
        elif self.config.table_kind == "sequential":
            self._emit_sequential_search(builder)
        else:
            self._emit_tree_search(builder)
        self._emit_found(builder)
        self._emit_drop(builder)
        return builder.build()

    def assemble(self) -> ProgramMemory:
        # The generator emits explicitly ordered moves; the optimiser's
        # block-local passes are safe on top of them.
        return assemble(self.build_ir(), self.machine.processor,
                        optimize_code=False)

    # -- common sections --------------------------------------------------------------

    def _emit_wait(self, b: ProgramBuilder) -> None:
        # Boot: spin until the ippu DMA admits the first datagram. Without
        # this, the program would halt in the cycle or two before the
        # autonomous input engine raises its pending signal.
        b.block("boot")
        b.jump("boot", guard=Guard("ippu0", negate=True))
        b.block("wait")
        b.jump("got", guard=Guard("ippu0"))
        # Input drained. The ippu admits one datagram per cycle while
        # forwarding takes tens of cycles, so an empty queue here means
        # the whole offered batch has been processed.
        b.halt()

    def _emit_receive(self, b: ProgramBuilder) -> None:
        b.block("got")
        b.move(0, P("ippu0", "t_pop"))
        b.move(P("ippu0", "r_ptr"), P("gpr", "r0"))
        # base = ptr + 2 (skip the slot header words)
        b.move(2, P("cnt0", "o"))
        b.move(P("gpr", "r0"), P("cnt0", "t_add"))
        b.move(P("cnt0", "r"), P("gpr", "r1"))

    def _emit_validation(self, b: ProgramBuilder) -> None:
        """Load the header words and run the §3 validity checks."""
        b.block("header")
        # header word 0 (version | traffic class | flow label)
        b.move(P("gpr", "r1"), P("mmu0", "t_read"))
        b.move(1, P("cnt0", "o"))
        b.move(P("gpr", "r1"), P("cnt0", "t_add"))       # base+1
        b.move(P("mmu0", "r"), P("gpr", "r15"))
        # header word 1 (payload length | next header | hop limit)
        b.move(P("cnt0", "r"), P("mmu0", "t_read"))
        b.move(P("cnt0", "r"), P("cnt0", "t_inc"))       # base+2
        b.move(P("mmu0", "r"), P("gpr", "r11"))
        # source address word 0 (for the multicast-source check)
        b.move(P("cnt0", "r"), P("mmu0", "t_read"))
        b.move(4, P("cnt0", "o"))
        b.move(P("cnt0", "r"), P("cnt0", "t_add"))       # base+6
        b.move(P("mmu0", "r"), P("gpr", "r9"))
        # destination address words 0..3 -> r2..r5
        b.move(P("cnt0", "r"), P("mmu0", "t_read"))
        b.move(P("cnt0", "r"), P("cnt0", "t_inc"))       # base+7
        b.move(P("mmu0", "r"), P("gpr", "r2"))
        b.move(P("cnt0", "r"), P("mmu0", "t_read"))
        b.move(P("cnt0", "r"), P("cnt0", "t_inc"))       # base+8
        b.move(P("mmu0", "r"), P("gpr", "r3"))
        b.move(P("cnt0", "r"), P("mmu0", "t_read"))
        b.move(P("cnt0", "r"), P("cnt0", "t_inc"))       # base+9
        b.move(P("mmu0", "r"), P("gpr", "r4"))
        b.move(P("cnt0", "r"), P("mmu0", "t_read"))
        b.move(P("mmu0", "r"), P("gpr", "r5"))
        # version == 6
        b.move(0xF0000000, P("mat0", "o_mask"))
        b.move(0x60000000, P("mat0", "o_ref"))
        b.move(P("gpr", "r15"), P("mat0", "t"))
        b.jump("drop", guard=Guard("mat0", negate=True))
        # hop limit > 1
        b.move(0xFF, P("msk0", "o_val"))
        b.move(P("gpr", "r11"), P("msk0", "t_and"))
        b.move(1, P("cmp0", "o"))
        b.move(P("msk0", "r"), P("cmp0", "t_gt"))
        b.jump("drop", guard=Guard("cmp0", negate=True))
        # a hop-by-hop options header (next header 0) must be examined by
        # every router: punt it to the slow path ("the IP header can be
        # accompanied by a variable number of extension headers that also
        # have to be taken into consideration", §3)
        b.move(0x0000FF00, P("mat0", "o_mask"))
        b.move(0, P("mat0", "o_ref"))
        b.move(P("gpr", "r11"), P("mat0", "t"))
        b.jump("punt", guard=Guard("mat0"))
        # source must not be multicast (ff00::/8)
        b.move(0xFF000000, P("mat0", "o_mask"))
        b.move(0xFF000000, P("mat0", "o_ref"))
        b.move(P("gpr", "r9"), P("mat0", "t"))
        b.jump("drop", guard=Guard("mat0"))
        # multicast destination is control-plane traffic (RIPng arrives on
        # ff02::9): punt the whole datagram to the slow path
        b.move(P("gpr", "r2"), P("mat0", "t"))
        b.jump("punt", guard=Guard("mat0"))

    def _emit_found(self, b: ProgramBuilder) -> None:
        b.block("found")
        # store the decremented hop limit: header word 1 is at base+1 and
        # hop limit >= 2 here, so word1 - 1 never borrows out of the byte
        b.move(1, P("cnt0", "o"))
        b.move(P("gpr", "r1"), P("cnt0", "t_add"))
        b.move(P("cnt0", "r"), P("mmu0", "o_addr"))
        b.move(P("gpr", "r11"), P("cnt0", "t_dec"))
        b.move(P("cnt0", "r"), P("mmu0", "t_write"))
        # hand over to the oppu
        b.move(P("gpr", "r0"), P("oppu0", "o_ptr"))
        b.move(P("gpr", "r6"), P("oppu0", "t_send"))
        b.jump("wait")

    def _emit_drop(self, b: ProgramBuilder) -> None:
        b.block("drop")
        b.move(P("gpr", "r0"), P("oppu0", "o_ptr"))
        b.move(0, P("oppu0", "t_drop"))
        b.jump("wait")
        b.block("punt")
        b.move(P("gpr", "r0"), P("oppu0", "o_ptr"))
        b.move(0, P("oppu0", "t_punt"))
        b.jump("wait")

    # -- CAM search ---------------------------------------------------------------------

    def _emit_cam_search(self, b: ProgramBuilder) -> None:
        b.block("search")
        b.move(P("gpr", "r2"), P("rtu0", "o_a0"))
        b.move(P("gpr", "r3"), P("rtu0", "o_a1"))
        b.move(P("gpr", "r4"), P("rtu0", "o_a2"))
        b.move(P("gpr", "r5"), P("rtu0", "t_a3"))
        b.jump("drop", guard=Guard("rtu0", negate=True))
        b.move(P("rtu0", "r_iface"), P("gpr", "r6"))

    # -- sequential search ------------------------------------------------------------------

    def _emit_sequential_search(self, b: ProgramBuilder) -> None:
        if self.strands == 1 and self.config.bus_count >= 2:
            self._emit_sequential_search_unrolled(b)
            return
        strands = self.strands
        b.block("search")
        b.move(P("rtu0", "r_base"), P("gpr", "r7"))
        # end = base + size * 16
        b.move(4, P("shf0", "o"))
        b.move(P("rtu0", "r_size"), P("shf0", "t_sll"))
        b.move(P("rtu0", "r_base"), P("cnt0", "o"))
        b.move(P("shf0", "r"), P("cnt0", "t_add"))
        b.move(P("cnt0", "r"), P("gpr", "r10"))
        b.move(P("gpr", "r10"), P("cmp0", "o"))
        for s in range(strands):
            b.move(P("gpr", "r2"), P(f"mat{s}", "o_ref"))
        for s in range(1, strands):
            b.move(16 * s, P(f"cnt{s}", "o"))
            b.move(P("gpr", "r7"), P(f"cnt{s}", "t_add"))
            b.move(P(f"cnt{s}", "r"), P("gpr", _STRAND_ADDR[s]))

        b.block("seq_loop")
        for s in range(strands):
            addr = _STRAND_ADDR[s]
            scratch = _STRAND_SCRATCH[s]
            b.move(P("gpr", addr), P("mmu0", "t_read"))          # net word 0
            b.move(4, P(f"cnt{s}", "o"))
            b.move(P("gpr", addr), P(f"cnt{s}", "t_add"))        # a+4
            b.move(P("mmu0", "r"), P("gpr", scratch))
            b.move(P(f"cnt{s}", "r"), P("mmu0", "t_read"))       # mask word 0
            b.move(P("mmu0", "r"), P(f"mat{s}", "o_mask"))
            b.move(P("gpr", scratch), P(f"mat{s}", "t"))
        # strand 0's priority check rides at the tail of the loop block;
        # the later strands need their own blocks as full-check resume
        # points (lowest strand first preserves longest-match priority)
        b.jump("full0", guard=Guard("mat0"))
        for s in range(1, strands):
            b.block(f"check{s}")
            b.jump(f"full{s}", guard=Guard(f"mat{s}"))

        b.block("seq_advance")
        stride = 16 * strands
        for s in range(strands):
            b.move(stride, P(f"cnt{s}", "o"))
            b.move(P("gpr", _STRAND_ADDR[s]), P(f"cnt{s}", "t_add"))
            b.move(P(f"cnt{s}", "r"), P("gpr", _STRAND_ADDR[s]))
        b.move(P("cnt0", "r"), P("cmp0", "t_lt"))  # strand-0 address < end?
        b.jump("seq_loop", guard=Guard("cmp0"))
        b.jump("drop")  # scanned everything, no match (no default route)

        for s in range(strands):
            self._emit_sequential_full_check(b, s)

    def _emit_sequential_full_check(self, b: ProgramBuilder, s: int) -> None:
        """Verify address words 1..3 of strand *s*'s candidate entry."""
        resume = f"check{s + 1}" if s + 1 < self.strands else "seq_advance"
        self._emit_full_check(b, label=f"full{s}", cnt=f"cnt{s}",
                              mat=f"mat{s}", scratch=_STRAND_SCRATCH[s],
                              addr_reg=_STRAND_ADDR[s], addr_offset=0,
                              resume=resume)

    def _emit_full_check(self, b: ProgramBuilder, label: str, cnt: str,
                         mat: str, scratch: str, addr_reg: str,
                         addr_offset: int, resume: str) -> None:
        """Full 128-bit match of the entry at ``addr_reg + addr_offset``.

        The word-0 check already passed; verify words 1..3 against their
        masks, loading the output interface into r6 on success (-> found)
        and restoring the matcher's word-0 reference on mismatch
        (-> *resume*).
        """
        b.block(label)
        b.move(addr_offset + 4, P(cnt, "o"))
        b.move(P("gpr", addr_reg), P(cnt, "t_add"))          # a+4
        b.move(3, P(cnt, "o"))
        b.move(P(cnt, "r"), P(cnt, "t_sub"))                 # a+1
        for k in range(1, 4):
            b.move(P(cnt, "r"), P("mmu0", "t_read"))         # net word k
            b.move(4, P(cnt, "o"))
            b.move(P(cnt, "r"), P(cnt, "t_add"))             # a+k+4
            b.move(P("mmu0", "r"), P("gpr", scratch))
            b.move(P(cnt, "r"), P("mmu0", "t_read"))         # mask word k
            b.move(P("gpr", f"r{2 + k}"), P(mat, "o_ref"))
            b.move(P("mmu0", "r"), P(mat, "o_mask"))
            b.move(P("gpr", scratch), P(mat, "t"))
            b.jump(f"{label}_mm{k}", guard=Guard(mat, negate=True))
            if k < 3:
                b.move(3, P(cnt, "o"))
                b.move(P(cnt, "r"), P(cnt, "t_sub"))         # a+k+1
        # all four words matched: interface = mem[a + 8]
        b.move(1, P(cnt, "o"))
        b.move(P(cnt, "r"), P(cnt, "t_add"))                 # a+8 (from a+7)
        b.move(P(cnt, "r"), P("mmu0", "t_read"))
        b.move(P("mmu0", "r"), P("gpr", "r6"))
        b.jump("found")
        for k in range(1, 4):
            b.block(f"{label}_mm{k}")
            b.move(P("gpr", "r2"), P(mat, "o_ref"))          # restore word-0 ref
            b.jump(resume)

    def _emit_sequential_search_unrolled(self, b: ProgramBuilder) -> None:
        """Single FU set on >= 2 buses: scan two entries per iteration.

        With one matcher/counter pair the scan is latency-bound, not
        resource-bound; unrolling lets entry B's loads overlap entry A's
        match ("the application code needs to be tuned for each instance
        separately", §2). Entry A sits at r7, entry B at r7 + 16; B's
        word-0 operands are staged through r15/r9 so the single matcher
        can check A first and B immediately after.
        """
        b.block("search")
        b.move(P("rtu0", "r_base"), P("gpr", "r7"))
        b.move(4, P("shf0", "o"))
        b.move(P("rtu0", "r_size"), P("shf0", "t_sll"))
        b.move(P("rtu0", "r_base"), P("cnt0", "o"))
        b.move(P("shf0", "r"), P("cnt0", "t_add"))
        b.move(P("cnt0", "r"), P("gpr", "r10"))
        b.move(P("gpr", "r10"), P("cmp0", "o"))
        b.move(P("gpr", "r2"), P("mat0", "o_ref"))

        b.block("seq_loop")
        b.move(P("gpr", "r7"), P("mmu0", "t_read"))       # net0 A
        b.move(4, P("cnt0", "o"))
        b.move(P("gpr", "r7"), P("cnt0", "t_add"))        # a+4
        b.move(P("mmu0", "r"), P("gpr", "r8"))            # net0 A
        b.move(P("cnt0", "r"), P("mmu0", "t_read"))       # mask0 A
        b.move(12, P("cnt0", "o"))
        b.move(P("cnt0", "r"), P("cnt0", "t_add"))        # a+16 (entry B)
        b.move(P("mmu0", "r"), P("mat0", "o_mask"))
        b.move(P("gpr", "r8"), P("mat0", "t"))            # match A word 0
        b.move(P("cnt0", "r"), P("mmu0", "t_read"))       # net0 B
        b.move(4, P("cnt0", "o"))
        b.move(P("cnt0", "r"), P("cnt0", "t_add"))        # a+20
        b.move(P("mmu0", "r"), P("gpr", "r15"))           # net0 B
        b.move(P("cnt0", "r"), P("mmu0", "t_read"))       # mask0 B
        b.move(12, P("cnt0", "o"))
        b.move(P("cnt0", "r"), P("cnt0", "t_add"))        # a+32: next window
        b.move(P("mmu0", "r"), P("gpr", "r9"))            # mask0 B
        b.move(P("cnt0", "r"), P("gpr", "r14"))           # next window addr
        b.jump("full_a", guard=Guard("mat0"))

        b.block("body_b")
        b.move(P("gpr", "r9"), P("mat0", "o_mask"))
        b.move(P("gpr", "r15"), P("mat0", "t"))           # match B word 0
        b.move(P("gpr", "r14"), P("cmp0", "t_lt"))        # next < end?
        b.jump("full_b", guard=Guard("mat0"))

        b.block("seq_wrap")
        b.move(P("gpr", "r14"), P("gpr", "r7"))
        b.jump("seq_loop", guard=Guard("cmp0"))
        b.jump("drop")

        # A full-match mismatch resumes at B's pending word-0 check; B's
        # resumes at the window wrap (the loop condition already fired).
        self._emit_full_check(b, label="full_a", cnt="cnt0", mat="mat0",
                              scratch="r8", addr_reg="r7", addr_offset=0,
                              resume="body_b")
        self._emit_full_check(b, label="full_b", cnt="cnt0", mat="mat0",
                              scratch="r8", addr_reg="r7", addr_offset=16,
                              resume="seq_wrap")

    # -- balanced-tree search ------------------------------------------------------------------

    def _emit_tree_search(self, b: ProgramBuilder) -> None:
        # Role allocation: with extra FU sets, dedicate units to roles so
        # operand latches stay constant across iterations (no reload churn)
        # and address arithmetic overlaps the compares.
        multi = self.strands >= 2
        cmp_nil = "cmp1" if multi else "cmp0"   # holds the NIL constant
        cnt_child = "cnt1" if multi else "cnt0"  # child-pointer addresses

        b.block("search")
        b.move(P("rtu0", "r_root"), P("gpr", "r9"))
        b.move(0, P("gpr", "r10"))              # floor address (0 = none)
        b.move(4, P("shf0", "o"))               # node index -> word offset
        b.move(NIL_INDEX, P(cmp_nil, "o"))

        b.block("tree_loop")
        b.move(P("gpr", "r9"), P(cmp_nil, "t_eq"))
        b.jump("tree_chain", guard=Guard(cmp_nil))
        b.block("tree_node")
        # a = base + index * 16
        b.move(P("gpr", "r9"), P("shf0", "t_sll"))
        b.move(P("rtu0", "r_base"), P("cnt0", "o"))
        b.move(P("shf0", "r"), P("cnt0", "t_add"))
        b.move(P("cnt0", "r"), P("gpr", "r7"))
        # word 0 of the node network feeds the compare immediately
        b.move(P("gpr", "r7"), P("mmu0", "t_read"))
        # ... while the child pointers are prefetched in parallel
        b.move(OFF_LEFT, P(cnt_child, "o"))
        b.move(P("gpr", "r7"), P(cnt_child, "t_add"))
        b.move(P("mmu0", "r"), P("cmp0", "o"))               # net word 0
        b.move(P(cnt_child, "r"), P("mmu0", "t_read"))       # left index
        b.move(P(cnt_child, "r"), P(cnt_child, "t_inc"))     # a + OFF_RIGHT
        b.move(P("gpr", "r2"), P("cmp0", "t_eq"))
        b.move(P("mmu0", "r"), P("gpr", "r8"))
        b.move(P(cnt_child, "r"), P("mmu0", "t_read"))       # right index
        b.jump("tree_lt0", guard=Guard("cmp0", negate=True))
        b.move(P("mmu0", "r"), P("gpr", "r15"))
        # word 0 equal (rare with random tables): compare words 1..3
        for k in range(1, 4):
            b.move(k, P("cnt0", "o"))
            b.move(P("gpr", "r7"), P("cnt0", "t_add"))
            b.move(P("cnt0", "r"), P("mmu0", "t_read"))
            b.move(P("mmu0", "r"), P("cmp0", "o"))
            b.move(P("gpr", f"r{2 + k}"), P("cmp0", "t_eq"))
            b.jump(f"tree_lt{k}", guard=Guard("cmp0", negate=True))
        b.jump("tree_equal")
        for k in range(4):
            b.block(f"tree_lt{k}")
            if k == 0:
                # the right-child load was still in flight at the branch
                b.move(P("mmu0", "r"), P("gpr", "r15"))
            b.move(P("gpr", f"r{2 + k}"), P("cmp0", "t_lt"))
            b.jump("tree_select")

        b.block("tree_select")
        # cmp0 bit == (dest word < net word) at the deciding position
        b.move(P("gpr", "r8"), P("gpr", "r9"), guard=Guard("cmp0"))
        b.move(P("gpr", "r15"), P("gpr", "r9"), guard=Guard("cmp0", negate=True))
        b.move(P("gpr", "r7"), P("gpr", "r10"), guard=Guard("cmp0", negate=True))
        if not multi:
            b.move(NIL_INDEX, P(cmp_nil, "o"))  # restore the NIL constant
        b.jump("tree_loop")

        b.block("tree_equal")  # networks identical: floor = node, go right
        b.move(P("gpr", "r15"), P("gpr", "r9"))
        b.move(P("gpr", "r7"), P("gpr", "r10"))
        if not multi:
            b.move(NIL_INDEX, P(cmp_nil, "o"))
        b.jump("tree_loop")

        self._emit_tree_chain(b)

    def _emit_tree_chain(self, b: ProgramBuilder) -> None:
        """Walk the enclosing chain from the floor node (r10)."""
        b.block("tree_chain")
        b.move(0, P("cmp0", "o"))
        b.move(P("gpr", "r10"), P("cmp0", "t_eq"))
        b.jump("drop", guard=Guard("cmp0"))              # no floor: no route
        b.block("tree_contain")
        # containment check: ((dest ^ net_k) & mask_k) == 0 for k = 0..3
        b.move(0, P("cnt0", "o"))
        b.move(P("gpr", "r10"), P("cnt0", "t_add"))      # f + 0
        for k in range(4):
            b.move(P("cnt0", "r"), P("mmu0", "t_read"))  # net word k
            b.move(4, P("cnt0", "o"))
            b.move(P("cnt0", "r"), P("cnt0", "t_add"))   # f+k+4
            b.move(P("mmu0", "r"), P("gpr", "r8"))
            b.move(P("cnt0", "r"), P("mmu0", "t_read"))  # mask word k
            b.move(P("gpr", f"r{2 + k}"), P("mat0", "o_ref"))
            b.move(P("mmu0", "r"), P("mat0", "o_mask"))
            b.move(P("gpr", "r8"), P("mat0", "t"))
            b.jump("tree_chain_next", guard=Guard("mat0", negate=True))
            if k < 3:
                b.move(3, P("cnt0", "o"))
                b.move(P("cnt0", "r"), P("cnt0", "t_sub"))  # f+k+1
        # contained: interface = mem[f + 8]
        b.move(1, P("cnt0", "o"))
        b.move(P("cnt0", "r"), P("cnt0", "t_add"))       # f+8 (from f+7)
        b.move(P("cnt0", "r"), P("mmu0", "t_read"))
        b.move(P("mmu0", "r"), P("gpr", "r6"))
        b.jump("found")

        b.block("tree_chain_next")
        b.move(OFF_ENCLOSING, P("cnt0", "o"))
        b.move(P("gpr", "r10"), P("cnt0", "t_add"))
        b.move(P("cnt0", "r"), P("mmu0", "t_read"))
        b.move(P("mmu0", "r"), P("gpr", "r9"))
        b.move(NIL_INDEX, P("cmp0", "o"))
        b.move(P("gpr", "r9"), P("cmp0", "t_eq"))
        b.jump("drop", guard=Guard("cmp0"))              # end of chain
        b.move(P("gpr", "r9"), P("shf0", "t_sll"))       # shf0.o is still 4
        b.move(P("rtu0", "r_base"), P("cnt0", "o"))
        b.move(P("shf0", "r"), P("cnt0", "t_add"))
        b.move(P("cnt0", "r"), P("gpr", "r10"))
        b.jump("tree_chain")


def build_forwarding_program(machine: RouterMachine) -> ProgramMemory:
    """Generate and assemble the forwarding program for *machine*."""
    return ForwardingProgramFactory(machine).assemble()
