package emu

import (
	"reflect"

	"repro/internal/x64"
)

// FallbackSlots returns the indices of executable slots that lowered to the
// generic interpreting handler — the slots RunCompiled would serve through
// the opcode switch. The dispatch-counter tests pin this to empty on the
// tracked kernels.
func (c *Compiled) FallbackSlots() []int {
	generic := reflect.ValueOf(handlerFn(hGeneric)).Pointer()
	var out []int
	for i := range c.ops {
		u := &c.ops[i]
		if u.run != nil && reflect.ValueOf(u.run).Pointer() == generic {
			out = append(out, i)
		}
	}
	return out
}

// XmmRestores reports how many individual XMM register restores
// LoadSnapshotCached has performed over the machine's lifetime.
func (m *Machine) XmmRestores() int { return m.xmmRestores }

// SlotSelection is one slot's liveness-driven selection: its dispatch
// code and its flag (nf) and register (nr) suppression bits.
type SlotSelection struct {
	Kind   uint8
	NF, NR bool
}

// SlotSelections exposes every slot's selection, so the differential
// tests can pin a patched form's liveness results to a fresh compile's —
// the suppression bits included, not just the dispatch codes and the
// observable behaviour.
func (c *Compiled) SlotSelections() []SlotSelection {
	out := make([]SlotSelection, len(c.ops))
	for i := range c.ops {
		u := &c.ops[i]
		out[i] = SlotSelection{Kind: uint8(u.kind), NF: u.nf, NR: u.nr}
	}
	return out
}

// RegCountsByScan recomputes the register-liveness coverage counters by
// direct scan — the pin for the incrementally maintained
// RegFreeSlots/RegWritingSlots under patch and restore storms.
func (c *Compiled) RegCountsByScan() (free, writing int) {
	for i := range c.ops {
		if c.ops[i].nr {
			free++
		}
		if c.regs[i].writes() {
			writing++
		}
	}
	return free, writing
}

// LiveOuts exposes the per-slot live-out flag sets computed by the
// liveness pass, for the directed liveness tests.
func (c *Compiled) LiveOuts() []x64.FlagSet {
	out := make([]x64.FlagSet, len(c.flags))
	for i := range c.flags {
		out[i] = c.flags[i].liveOut
	}
	return out
}
