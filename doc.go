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
// specialised micro-ops too, so no instruction of the tracked scalar,
// vector (saxpy) or Montgomery kernels reaches the generic interpreting
// fallback (a dispatch-counter test pins this), and the sandbox's
// definedness/validity planes are word-wide bitsets so the memory-bound
// kernels pay one mask check per access instead of a byte loop. A backward
// flag-liveness pass over the compiled form (internal/emu/liveness.go)
// suppresses the flag computation and stores of every slot whose written
// flags no later condition consumer, carry chain or exit can observe — the
// majority of flag writes on ALU-dense candidates — selecting
// flag-suppressed or reduced szp-only dispatch variants per slot. The
// same walk runs a register-liveness pass over packed 16-bit GPR+XMM
// sets: emu.CompileLive narrows the exit observation to the kernel's
// live-out masks (exactly what the §4.2 cost function reads), and every
// slot none of whose written registers — partial-width merge semantics,
// zero idioms and the divide family's implicit RAX/RDX included — is
// live-out lowers to a write-suppressed dispatch variant that keeps the
// full handler's reads, faults and undef accounting but skips the value
// and definedness stores. Patch keeps the MCMC contract by recomputing
// liveness only over the affected backward slice (worst case O(ℓ),
// ~8ns/slot for both passes; the sampler's reject path restores patched
// slots from snapshots without re-lowering at all).
// Compiled.FlagFreeSlots and RegFreeSlots report the suppression
// coverage, recorded per kernel row in BENCH_eval.json (flag_free
// statically over the padded start program, reg_free dynamically over
// the candidates the compiled chain visits).
//
// On top of the per-testcase compiled loop sits batched lockstep
// evaluation (emu.Batch, cost.Fn.EvalCompiledBatched; off by default —
// stoke.WithBatchedEval(true) opts in, since a chunk runs to its end past
// a mid-chunk rejection and the search runs slower end to end with it).
// Instead of re-dispatching the whole
// program once per testcase, each compiled slot executes across every
// live testcase lane before the batch advances, so dispatch, operand
// decode and the flag-variant selection are paid once per slot per chunk
// rather than once per slot per testcase. Control flow stays in lockstep
// until a conditional jump observes lanes on both sides; the minority
// side then peels to the scalar tail from its branch target and the
// majority continues batched (a divide fault never splits a batch — #DE
// continues in line, exactly as in the scalar walk). The §4.5
// early-termination contract survives as a chunk schedule: the head of
// the adaptive testcase order still runs one-testcase chunks (bad
// proposals die after one run, and chunks at or below the scalar
// crossover width run the scalar loop verbatim), while the tail of a
// full-width evaluation runs as single lockstep sweeps; lanes are scored
// in the same adaptive order with the same budget checks, so batched
// evaluation is decision-identical to EvalCompiled — same results, same
// floating-point rounding, same rejection-profile updates. The
// original interpreter (Machine.Run, Fn.Eval) remains the semantic
// reference behind stoke.WithInterpretedEval, pinned to the compiled path
// by randomized differential tests and by fuzz-grade differential targets
// (FuzzCompiledVsInterpreted, FuzzPatchVsFreshCompile and the
// batch-splitting FuzzBatchedVsScalar in internal/emu,
// seeded from internal/testgen's corpus generator) that hold
// compiled == interpreted, patched == fresh-compile and batched == scalar
// over random programs, machine states and patch sequences;
// BenchmarkEvalThroughput(SSE), the BenchmarkEvalThroughputBatched
// batch-width sweep (|τ| ∈ {1,4,16,64}) and the BENCH_eval.json baseline
// emitted by cmd/stoke-bench
// -eval-baseline track the speedup (≥3x proposals/sec at the paper's ℓ=50
// profile on this module's hardware baseline, ~2x on the vector and
// Montgomery rows; the batched rows record the lockstep amortisation on
// top of that, largest in the full-width evaluation regime).
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
