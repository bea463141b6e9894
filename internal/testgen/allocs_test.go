//go:build !race

package testgen_test

import (
	"math/rand"
	"testing"

	"repro/internal/kernels"
	"repro/internal/testgen"
)

// TestGenerateAllocs bounds testcase generation's allocations: every
// served store hit regenerates its testcases, and the inputs' memory
// planes used to dominate its garbage. (The race detector allocates on its
// own, hence the build tag.)
func TestGenerateAllocs(t *testing.T) {
	const n, perTestcase = 32, 8
	b, err := kernels.ByName("p01")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := testgen.Generate(b.Target, b.Spec, n, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > n*perTestcase {
		t.Fatalf("Generate makes %.0f allocations for %d testcases, want at most %d per testcase",
			allocs, n, perTestcase)
	}
	t.Logf("%.1f allocations per testcase", allocs/n)
}
