package experiments

// Tests for the eval-baseline regression guard's comparison rules: the
// CI -check step fails on tracked-row regressions beyond the tolerance,
// tolerates box noise inside it, and ignores rows the committed baseline
// does not track yet.

import (
	"strings"
	"testing"
)

func evalBase(speedups, regFree map[string]float64) EvalBaseline {
	return EvalBaseline{
		Speedups: speedups,
		FlagFree: map[string]float64{},
		RegFree:  regFree,
	}
}

func TestCompareEvalBaselines(t *testing.T) {
	committed := evalBase(
		map[string]float64{"p01/ell=50": 4.0, "mont/ell=50": 3.0},
		map[string]float64{"p01/ell=50": 0.30},
	)

	// Within tolerance: a noisy box may lose up to 35% of a ratio.
	fresh := evalBase(
		map[string]float64{"p01/ell=50": 4.0 * 0.70, "mont/ell=50": 3.3},
		map[string]float64{"p01/ell=50": 0.28},
	)
	if f := compareEvalBaselines(committed, fresh); len(f) != 0 {
		t.Fatalf("within-tolerance comparison failed: %v", f)
	}

	// Beyond tolerance on one row: exactly that row is reported.
	fresh = evalBase(
		map[string]float64{"p01/ell=50": 4.0 * 0.5, "mont/ell=50": 3.0},
		map[string]float64{"p01/ell=50": 0.30},
	)
	f := compareEvalBaselines(committed, fresh)
	if len(f) != 1 || !strings.Contains(f[0], "speedup p01/ell=50") {
		t.Fatalf("want the p01 speedup regression reported, got %v", f)
	}

	// A tracked row missing from the fresh measurement fails; an extra
	// fresh row (a new kernel without a committed baseline) does not.
	fresh = evalBase(
		map[string]float64{"p01/ell=50": 4.0, "new/ell=50": 1.0},
		map[string]float64{"p01/ell=50": 0.30},
	)
	f = compareEvalBaselines(committed, fresh)
	if len(f) != 1 || !strings.Contains(f[0], "mont/ell=50: missing") {
		t.Fatalf("want the missing mont row reported, got %v", f)
	}

	// A collapsed coverage fraction is a regression like any other ratio.
	fresh = evalBase(
		map[string]float64{"p01/ell=50": 4.0, "mont/ell=50": 3.0},
		map[string]float64{"p01/ell=50": 0.0},
	)
	f = compareEvalBaselines(committed, fresh)
	if len(f) != 1 || !strings.Contains(f[0], "reg_free p01/ell=50") {
		t.Fatalf("want the reg_free collapse reported, got %v", f)
	}
}
