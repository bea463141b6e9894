package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/x64"
	"repro/stoke"
)

// tiny is a budget profile for tests: fractions of a second per kernel.
var tiny = Profile{Seed: 3, Profile: stoke.Profile{
	SynthChains: 1, OptChains: 1,
	SynthProposals: 4000, OptProposals: 6000, Ell: 12,
}}

func TestFig01(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig01Montgomery(context.Background(), &buf, tiny); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"gcc -O3", "paper's STOKE", "1.6x"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig01 output missing %q", want)
		}
	}
	// The paper's headline: 16 lines shorter than gcc -O3 (27 vs 11).
	if !strings.Contains(out, "16 lines shorter") {
		t.Errorf("Fig01 must reproduce the 16-line delta:\n%s", out)
	}
}

func TestFig03CorrelationPositive(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig03PredictedVsActual(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Pearson correlation: 0.9") &&
		!strings.Contains(buf.String(), "Pearson correlation: 1.0") &&
		!strings.Contains(buf.String(), "Pearson correlation: 0.8") {
		t.Errorf("expected strong positive correlation:\n%s",
			buf.String()[len(buf.String())-400:])
	}
}

func TestFig06(t *testing.T) {
	var buf bytes.Buffer
	Fig06ImprovedMetric(&buf)
	if !strings.Contains(buf.String(), "min(4, 3+wm, 2+wm, 0+wm)") {
		t.Error("Fig06 must show the worked minimum")
	}
}

func TestFig11MatchesPaper(t *testing.T) {
	var buf bytes.Buffer
	Fig11Params(&buf)
	out := buf.String()
	for _, want := range []string{
		"wsf   1", "wfp   1", "wur   2", "wm    3",
		"pc 0.16", "po 0.50", "ps 0.16", "pi 0.16", "pu 0.16",
		"beta 0.1", "l 50",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 11 table missing %q:\n%s", want, out)
		}
	}
}

func TestFig07RunsAndOrdersModes(t *testing.T) {
	var buf bytes.Buffer
	// p01 converges fast enough for a test-budget comparison.
	if err := Fig07CostFunctions(context.Background(), &buf, tiny, "p01"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "improved") || !strings.Contains(buf.String(), "random") {
		t.Errorf("Fig07 output incomplete:\n%s", buf.String())
	}
}

func TestFig08Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig08PercentOfFinal(context.Background(), &buf, tiny, "p01"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "% of final") {
		t.Errorf("Fig08 output incomplete:\n%s", buf.String())
	}
}

func TestOverlap(t *testing.T) {
	a := mustProg(t, "movq rdi, rax\naddq rsi, rax")
	b := mustProg(t, "movq rdi, rax\nsubq rsi, rax")
	if got := overlap(a, a); got != 1 {
		t.Errorf("overlap(a,a) = %v, want 1", got)
	}
	if got := overlap(b, a); got != 0.5 {
		t.Errorf("overlap(b,a) = %v, want 0.5", got)
	}
}

func mustProg(t *testing.T, src string) *x64.Program {
	t.Helper()
	p, err := x64.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
