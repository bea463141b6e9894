// Package stoke is the public API of the STOKE reproduction: a stochastic
// superoptimizer for loop-free x86-64 code (Schkufza, Sharma, Aiken:
// "Stochastic Superoptimization", ASPLOS 2013).
//
// The entry point is an Engine, a reusable, concurrency-safe scheduler that
// runs MCMC search chains — possibly from several kernels at once — on one
// shared worker pool:
//
//	engine := stoke.NewEngine(stoke.EngineConfig{})
//	defer engine.Close()
//
//	target := stoke.MustParse(`
//	  movq rdi, -8(rsp)
//	  movq rsi, -16(rsp)
//	  movq -8(rsp), rax
//	  addq -16(rsp), rax
//	`)
//	kernel := stoke.NewKernel("add", target,
//	    stoke.WithInputs(stoke.RDI, stoke.RSI),
//	    stoke.WithOutput64(stoke.RAX))
//
//	report, err := engine.Optimize(ctx, kernel,
//	    stoke.WithSeed(1),
//	    stoke.WithObserver(func(ev stoke.Event) { fmt.Println(ev) }))
//	fmt.Println(report.Rewrite)   // e.g. leaq (rdi,rsi), rax
//
// Every run takes a context.Context: cancellation or a deadline stops the
// search chains and the validator promptly, and Optimize returns the
// best-so-far Report with its Partial flag set rather than an error.
// Engine.OptimizeAll schedules the chains of many kernels onto the same
// pool, interleaving their work so the pool stays saturated.
//
// Search knobs are functional options (WithBudgets, WithChains, WithEll,
// WithTests, ...), so explicit zero values — zero synthesis chains to
// optimize from the target alone, say — are expressible. The phase
// temperatures, restart cadence and refinement bound are the fixed
// Default* constants, as the paper fixes them (Figure 11). WithObserver streams typed progress events (phase
// transitions, per-chain best costs, refinement testcases, validator
// verdicts) to a callback, which is how a server or dashboard watches a
// run live.
//
// A kernel's chains do not run blind to each other: a coordinator
// (internal/search) checks them in at a fixed proposal cadence and, at
// each barrier, exchanges programs between adjacent rungs of a β ladder
// (parallel tempering), shares every chain's best correct program through
// a global pool that re-ranking draws from and that stagnant chains reseed
// from, warm-starts testcase orders from a cross-chain rejection profile,
// and offers the pool head to the run's verifier mid-search so a
// counterexample found against one chain's candidate refines every live
// chain's testcases. The coordinator only schedules: whether the head is
// worth a proof now is the verifier's decision (below). Coordination
// surfaces as EventSwap and EventPrune events and the Report's Swaps and
// Prunes counters, and every decision happens on a seeded schedule:
// fixed-seed runs are bit-for-bit reproducible whatever the pool width.
// WithIndependentChains turns off replica exchange and the shared profile,
// the paper's §5.3 discipline; stagnant chains still reseed from the pool.
//
// Candidate scoring runs on a decode-once compiled pipeline that covers
// the whole proposal ISA — every memory-operand shape, the fixed-point
// SSE subset (kernels built WithVectorOps) and the divide family included — so no
// candidate the search proposes reaches the interpretive fallback.
// Candidates compile against the kernel's live-out set,
// so a backward liveness pass suppresses both the flag computation and
// the register stores of writes nothing downstream — no condition
// consumer, no reader before a kill, no live-out exit — can observe,
// while preserving every read, fault and undefined-value count the cost
// function sees. Each evaluation walks the testcases one at a time in an
// adaptive order and stops at the first testcase that pushes the cost
// over the rejection budget. A proposal that leaves the program unchanged
// (an operand or opcode redrawn to itself, a swap of identical slots) is
// accepted at the current cost without running a testcase; the chain's
// decisions are those of a chain that evaluates it. The seed interpreter
// stays in the module as the semantic reference, held equal to the
// compiled path by randomized and fuzz-grade differential tests
// (internal/emu's FuzzCompiledVsInterpreted and FuzzPatchVsFreshCompile);
// the engine itself always runs the compiled pipeline.
//
// # Verification pipeline
//
// Candidates reaching the validator are not sent straight to the SAT
// solver. Mid-search, a pool head whose modelled cost does not beat the
// best rewrite proven so far (initially the target) is skipped outright:
// it cannot displace that incumbent in the final re-ranking
// (Report.SkippedValidations). Every other candidate runs through
// replay, the gate (mid-search only, and ahead of replay) and SAT:
//
//   - Counterexample replay. Every genuine counterexample any run
//     discovers is canonicalised (internal/canon register bijections) into
//     a global bank — the attached rewrite store when there is one, an
//     engine-private in-memory bank otherwise — and every later candidate,
//     on any kernel, α-renamed or not, is first replayed against the
//     banked states through the compiled evaluator. A divergence is a
//     NotEqual verdict at evaluator cost, with no solver query
//     (Report.Proofs.ReplayKills, EventReplayKill).
//   - Pre-verification gate. Candidates scoring low on observed-output
//     agreement breadth, opcode-set similarity to the target, and
//     cost-margin plausibility against the proven incumbent have their
//     mid-search proof postponed — at most a bounded number of times — to
//     a later validation round (Report.Proofs.GateDeferrals,
//     EventGateDefer).
//   - SAT. Whatever survives is proven by verify.Equivalent, with each
//     query's wall-clock and encoded clause count recorded in
//     Report.Proofs. The bit-vector builder folds the stack round trips
//     and 32-bit zero extensions of an -O0 target, and a live output whose
//     two terms match up to commutative operand order leaves the miter;
//     when none is left, the query is an Equal without a SAT call
//     (Report.Proofs.Structural), and only the remaining queries
//     contribute clause samples.
//
// Both shortcuts are soundness-preserving by construction. A replay kill
// rests on re-running the *target* concretely on the banked state, so the
// refuting testcase is the same evidence a SAT counterexample yields; a
// stale or foreign bank entry either fails to materialise or produces a
// testcase the candidate passes, degrading to the plain SAT call, never a
// wrong kill. The gate only defers — the end-of-round validation loop
// never consults it — so every rewrite served or reported as proven is
// still backed by a verify.Equivalent Equal: UNSAT, or structural (both
// programs compute the same term for every live output). Budget-exhausted
// Unknown verdicts are never memoized (a later round may afford the
// proof); a symbolic NotEqual whose counterexample fails to reproduce on
// the emulator is surfaced as EventModelMismatch and counted, never
// silently downgraded.
//
// # Serving mode and the rewrite store
//
// Proven rewrites can be cached across runs, processes and machines:
// WithRewriteStore attaches a content-addressed store (internal/store) in
// which kernels are keyed by their canonical fingerprint (internal/canon —
// register/label renaming, constant abstraction, live-out normalisation,
// commutative scale-1 addressing-form normalisation), so α-equivalent
// submissions collide. A run whose fingerprint hits the
// store returns the proven rewrite immediately — after replaying the
// stored counterexample set plus freshly generated testcases through the
// reference interpreter as revalidation — without launching a search
// (Report.CacheHit, Engine.SearchesLaunched). A same-class near-miss
// (equal skeleton, different constants) first proves the cached rewrite,
// with its constants replaced by the submission's, against the target.
// Proven Equal, it is the correct starting point that random synthesis
// exists to find, so synthesis is skipped and the optimization chains start
// from the target and the substitution. Otherwise the full search runs,
// the substitution still seeding optimization chains. Either way the
// cached counterexamples and rejection profile seed the search, and the
// substitution is never served without that SAT proof.
// WithCacheOnly turns Optimize into the synchronous probe a serving
// front-end issues before queueing an async job (ErrCacheMiss on a cold
// fingerprint).
//
// cmd/stoke-serve wires this into a long-running service (internal/server):
// an HTTP/JSON job API with SSE event streaming, per-tenant concurrency
// budgets, in-flight dedup, and graceful drain. Running it and submitting
// a job:
//
//	$ stoke-serve -addr :8080 -store rewrites.jsonl &
//	$ curl -s localhost:8080/v1/jobs -d '{
//	    "kernel": {
//	      "name": "add",
//	      "target": "movq rdi, rax\naddq rsi, rax",
//	      "inputs": ["rdi", "rsi"],
//	      "outputs": ["rax"]
//	    }
//	  }'
//	{"id":"job-1","status":"queued", ...}
//	$ curl -s localhost:8080/v1/jobs/job-1          # poll until "done"
//	$ curl -N  localhost:8080/v1/jobs/job-1/events  # live engine events (SSE)
//	$ curl -s  localhost:8080/statsz                # cache + job counters
//
// Resubmitting the same kernel — or any register-renamed variant — then
// answers synchronously from the store with "cache_hit": true. In
// process a p01 hit takes about 0.3 ms on a 2-vCPU Intel Xeon VM
// (BenchmarkCacheHit), against about 200 ms for the search that filled
// the store. Most of a hit is generating fresh testcases for
// revalidation, which costs time in the bytes the target touches, not
// in the size of its stack.
//
// For one-shot use without managing an Engine, the package-level Optimize
// creates a transient pool sized to the machine.
package stoke
