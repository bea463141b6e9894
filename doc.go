// Package repro is a from-scratch Go reproduction of "Stochastic
// Superoptimization" (Schkufza, Sharma, Aiken; ASPLOS 2013): MCMC search
// over loop-free x86-64 programs, with every substrate the paper relies on
// implemented in this module — ISA, sandboxed emulator, testcase
// generation, cost functions, SAT-based bit-vector validator, the
// mini-compiler producing the -O0 targets and -O3 comparators, and a
// benchmark harness regenerating every figure of the paper's evaluation.
//
// Start with the public stoke package (import "repro/stoke"): it exposes a
// reusable Engine that schedules the MCMC chains of one or many kernels
// onto a shared worker pool, takes a context.Context for cancellation with
// best-so-far partial results, and streams typed progress events to an
// observer. examples/quickstart is the smallest end-to-end program;
// cmd/stoke is the CLI and cmd/stoke-bench the figure harness.
//
// # Evaluation pipeline
//
// Candidate scoring — the hot path that bounds the paper's §6 search rate —
// is a two-phase, decode-once pipeline. internal/emu.Compile lowers a
// program once into per-slot micro-ops (pre-resolved handlers with widths,
// masks, immediates, fused flag updates and pre-linked jump/fall-through
// targets baked in); Machine.RunCompiled dispatches over that form, hopping
// directly between live slots so UNUSED padding costs nothing. Because an
// MCMC move touches at most two instruction slots, the sampler patches
// exactly those slots of the compiled form (restoring and re-patching on
// rejection) instead of recompiling ℓ slots per proposal.
// internal/cost.Fn.EvalCompiled scores the compiled form on one machine
// pinned per testcase — unchanged snapshots reload almost for free — and
// visits testcases in an adaptive order: each testcase counts how often it
// pushed the running cost over the §4.5 early-termination bound, and the
// most-discriminating tests migrate to the front so bad proposals die after
// one run. Reordering cannot change accept/reject decisions (per-testcase
// costs are non-negative, so the prefix sums cross any bound iff the total
// does). The lowering is total over the search workloads: the divide family
// (with its #DE early-exit) and the fixed-point SSE subset compile to
// specialised micro-ops too, as does every memory-operand shape the
// proposal pools emit, so no candidate the search proposes reaches the
// generic interpreting fallback (dispatch-counter tests pin this over every
// tracked kernel's pools), and the sandbox's
// definedness/validity planes are word-wide bitsets so the memory-bound
// kernels pay one mask check per access instead of a byte loop. A backward
// flag-liveness pass over the compiled form (internal/emu/liveness.go)
// suppresses the flag computation and stores of every slot whose written
// flags no later condition consumer, carry chain or exit can observe — the
// majority of flag writes on ALU-dense candidates — through one per-slot
// nf bit that every flag-writing body checks. The
// same walk runs a register-liveness pass over packed 16-bit GPR+XMM
// sets: emu.CompileLive narrows the exit observation to the kernel's
// live-out masks (exactly what the §4.2 cost function reads), and every
// slot none of whose written registers — partial-width merge semantics,
// zero idioms and the divide family's implicit RAX/RDX included — is
// live-out gets the nr bit and, on the inline shapes, a write-suppressed
// dispatch code that keeps the base shape's reads, faults and undef
// accounting but skips the value and definedness stores. Patch keeps the MCMC contract by recomputing
// liveness only over the affected backward slice (worst case O(ℓ),
// ~8ns/slot for both passes; the sampler's reject path restores patched
// slots from snapshots without re-lowering at all).
// Compiled.FlagFreeSlots and RegFreeSlots report the suppression
// coverage, recorded per kernel row in BENCH_eval.json (flag_free
// statically over the padded start program, reg_free dynamically over
// the candidates the compiled chain visits).
//
// Each evaluation walks the testcases one at a time, in the adaptive
// order, and stops at the first one that pushes the running cost past the
// §4.5 acceptance bound (Equation 14); that walk is the only compiled
// evaluation path. The original interpreter (Machine.Run, Fn.Eval, and
// the chain loop behind mcmc.Sampler.Interpreted) remains the semantic
// reference, pinned to the compiled path by randomized differential tests
// and by fuzz-grade differential targets (FuzzCompiledVsInterpreted and
// FuzzPatchVsFreshCompile in internal/emu, seeded from internal/testgen's
// corpus generator) that hold compiled == interpreted and patched ==
// fresh-compile over random programs, machine states and patch sequences;
// BenchmarkEvalThroughput(SSE) and the BENCH_eval.json baseline emitted
// by cmd/stoke-bench -eval-baseline track the speedup (≥3x proposals/sec
// at the paper's ℓ=50 profile on this module's hardware baseline, ~2x on
// the vector and Montgomery rows).
//
// # Search coordination
//
// The paper runs its per-kernel MCMC chains independently (§5.3); this
// module coordinates them. internal/search drives each phase's chains in
// cadenced segments with a barrier between rounds, and at every barrier
// performs (a) replica exchange over a mostly-cold β ladder (the hot tail
// explores, cold rungs exploit, adjacent replicas swap programs under the
// Metropolis swap criterion on a seeded schedule), (b) global
// best-so-far sharing — every chain's best correct program feeds a
// bounded pool that the final 20%-window re-ranking draws from, and
// stagnant chains whose own best is outside that window reseed from the
// pool head — and (c) validator-in-the-loop refinement: the ensemble's
// best candidate is proven or refuted mid-search, and a genuine
// counterexample broadcasts to every live chain's testcase set, not just
// the finder's. internal/cost.SharedProfile completes the picture: the
// early-termination counts of every chain aggregate into one atomic
// profile that warm-starts each new chain's adaptive testcase order.
// Because every coordination decision happens at a barrier from seeded
// state, fixed-seed runs stay bit-for-bit reproducible regardless of
// worker-pool scheduling. cmd/stoke-bench -search-baseline emits
// BENCH_search.json, A/Bing tempering against independent chains on
// synthesis hit-rate and time-to-zero-cost over paper-suite kernels.
package repro
