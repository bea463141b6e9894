package emu_test

// Fuzz-grade differential tests: the native Go fuzzer drives byte strings
// through testgen.DecodeFuzzCase (a total decoder weighted toward the
// DIV/IDIV and SSE micro-ops) and demands that the compiled pipeline, the
// interpreter, and fresh-versus-patched compiled forms agree on the full
// observable machine state. The checked-in seed corpora under testdata/fuzz
// cover divide faults, fixed-point SSE lane edges, UNUSED padding and
// control-relink patch scripts; `go test` runs every seed as a unit test,
// and CI adds a short -fuzztime exploration on top.

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/emu"
	"repro/internal/testgen"
	"repro/internal/x64"
)

func FuzzCompiledVsInterpreted(f *testing.F) {
	for _, s := range testgen.SeedCorpus() {
		f.Add(s.Data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fc := testgen.DecodeFuzzCase(data)
		mi, mc := emu.New(), emu.New()
		runBoth(t, mi, mc, fc.Prog, emu.Compile(fc.Prog), fc.Snap, "fuzz case")
		if t.Failed() {
			t.Fatalf("diverging program:\n%s", fc.Prog)
		}
		// The engine compiles candidates with CompileLive, where writes
		// only the exit would observe are suppressed too: the outcome,
		// flags, memory and every live register must still match.
		liveG, liveX := fuzzLiveMasks(data)
		runBothLive(t, mi, mc, fc.Prog, emu.CompileLive(fc.Prog, liveG, liveX), fc.Snap,
			liveG, liveX, fmt.Sprintf("CompileLive(%#04x, %#04x)", liveG, liveX))
		if t.Failed() {
			t.Fatalf("diverging program:\n%s", fc.Prog)
		}
	})
}

// fuzzLiveMasks derives CompileLive exit masks from a fuzz input by
// hashing it, so the masks vary with every input while DecodeFuzzCase
// consumes exactly the bytes it always has (the checked-in corpora keep
// decoding to the same cases).
func fuzzLiveMasks(data []byte) (liveG, liveX uint16) {
	h := fnv.New32a()
	h.Write(data)
	sum := h.Sum32()
	return uint16(sum), uint16(sum >> 16)
}

func FuzzPatchVsFreshCompile(f *testing.F) {
	for _, s := range testgen.SeedCorpus() {
		f.Add(s.Data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fc := testgen.DecodeFuzzCase(data)
		prog := fc.Prog
		c := emu.Compile(prog)
		patched, fresh, mi := emu.New(), emu.New(), emu.New()
		for step, e := range fc.Edits {
			if e.Swap {
				prog.Insts[e.Slot], prog.Insts[e.Other] = prog.Insts[e.Other], prog.Insts[e.Slot]
				c.Patch(e.Slot)
				if e.Other != e.Slot {
					c.Patch(e.Other)
				}
			} else {
				prog.Insts[e.Slot] = e.With
				c.Patch(e.Slot)
			}
			recompiled := emu.Compile(prog)
			// Latencies are integral, so the incrementally patched Equation
			// 13 sum must match a fresh compile exactly, not approximately.
			if c.StaticLatency() != recompiled.StaticLatency() {
				t.Fatalf("edit %d: patched static latency %v, fresh %v\n%s",
					step, c.StaticLatency(), recompiled.StaticLatency(), prog)
			}
			// The incremental liveness recomputation must converge to the
			// same per-slot selection (dispatch code, nf, nr) as a fresh
			// compile.
			sameSelection(t, c, recompiled, fmt.Sprintf("edit %d", step))
			fresh.LoadSnapshot(fc.Snap)
			of := fresh.RunCompiled(recompiled)
			patched.LoadSnapshotCached(fc.Snap)
			op := patched.RunCompiled(c)
			if of != op {
				t.Errorf("edit %d: outcomes diverged: fresh %+v patched %+v", step, of, op)
			}
			diffStates(t, fresh, patched, fc.Snap, fmt.Sprintf("edit %d patched vs fresh", step))
			runBoth(t, mi, patched, prog, c, fc.Snap, fmt.Sprintf("edit %d vs interpreter", step))
			if t.Failed() {
				t.Fatalf("diverging program after edit %d:\n%s", step, prog)
			}
		}
	})
}

// laneSnapshots derives a spread of per-lane snapshots from one fuzz
// snapshot: lane 0 runs it verbatim, later lanes perturb register values,
// input flags, and definedness, so conditional jumps take different
// successors, divisors fault on some lanes only, and stores land at
// different addresses. The memory image is shared — lanes never mutate
// their input snapshot.
func laneSnapshots(snap *emu.Snapshot) []*emu.Snapshot {
	lanes := make([]*emu.Snapshot, 7)
	for i := range lanes {
		s := *snap
		if i > 0 {
			s.Regs[(i*5)%16] ^= uint64(i) * 0x9e3779b97f4a7c15
			s.Flags ^= x64.FlagSet(i) & x64.AllFlags
			switch i % 3 {
			case 1:
				s.RegDef &^= 1 << ((i * 3) % 16)
			case 2:
				s.FlagsDef &^= x64.FlagSet(i>>1) & x64.AllFlags
			}
		}
		lanes[i] = &s
	}
	return lanes
}

// FuzzBatchedVsScalar pins the way a testcase set is evaluated — one
// shared compiled form, patched in place between reruns, and one long-lived
// machine per testcase reloaded with LoadSnapshotCached, as
// cost.EvalCompiled scores a testcase set — to a fresh machine, a full
// LoadSnapshot and a fresh compile per testcase. Every lane must finish
// with the same Outcome and machine state after every patch edit, so no
// lane's result depends on what that machine ran for an earlier program.
// (The target keeps the name it had when it pinned a batched evaluator,
// so the ids of its seed subtests stay stable.)
func FuzzBatchedVsScalar(f *testing.F) {
	for _, s := range testgen.SeedCorpus() {
		f.Add(s.Data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fc := testgen.DecodeFuzzCase(data)
		prog := fc.Prog
		c := emu.Compile(prog)
		snaps := laneSnapshots(fc.Snap)
		lanes := make([]*emu.Machine, len(snaps))
		for i := range lanes {
			lanes[i] = emu.New()
		}
		check := func(what string) {
			t.Helper()
			fresh := emu.Compile(prog)
			for i, s := range snaps {
				lanes[i].LoadSnapshotCached(s)
				got := lanes[i].RunCompiled(c)
				ref := emu.New()
				ref.LoadSnapshot(s)
				want := ref.RunCompiled(fresh)
				if got != want {
					t.Errorf("%s: lane %d outcomes diverged: fresh %+v reused %+v",
						what, i, want, got)
				}
				diffStates(t, ref, lanes[i], s, fmt.Sprintf("%s: lane %d", what, i))
			}
			if t.Failed() {
				t.Fatalf("diverging program (%s):\n%s", what, prog)
			}
		}
		check("initial")
		for step, e := range fc.Edits {
			if e.Swap {
				prog.Insts[e.Slot], prog.Insts[e.Other] = prog.Insts[e.Other], prog.Insts[e.Slot]
				c.Patch(e.Slot)
				if e.Other != e.Slot {
					c.Patch(e.Other)
				}
			} else {
				prog.Insts[e.Slot] = e.With
				c.Patch(e.Slot)
			}
			check(fmt.Sprintf("after edit %d", step))
		}
	})
}

var updateFuzzCorpus = flag.Bool("update-fuzz-corpus", false,
	"rewrite the checked-in fuzz seed corpora under testdata/fuzz")

// TestFuzzSeedCorpusFiles pins the checked-in seed corpora to
// testgen.SeedCorpus, so the named edge cases (divide faults, SSE lane
// boundaries, padding and relink patch scripts) are versioned files the
// fuzzer always starts from. Regenerate with -update-fuzz-corpus after
// extending the corpus for a new opcode.
func TestFuzzSeedCorpusFiles(t *testing.T) {
	for _, target := range []string{"FuzzCompiledVsInterpreted", "FuzzPatchVsFreshCompile", "FuzzBatchedVsScalar"} {
		dir := filepath.Join("testdata", "fuzz", target)
		if *updateFuzzCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range testgen.SeedCorpus() {
			path := filepath.Join(dir, "seed-"+s.Name)
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.Data)
			if *updateFuzzCorpus {
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update-fuzz-corpus)", err)
			}
			if string(got) != want {
				t.Errorf("%s is stale (regenerate with -update-fuzz-corpus)", path)
			}
		}
	}
}
