package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// renderPaper prints the five results the way `reform -exp all` and
// the end-to-end benchmark's paper-eval workload print them.
func renderPaper(r *PaperResult) string {
	var sb strings.Builder
	fmt.Fprintln(&sb, r.Table1.Table().Render())
	fmt.Fprintln(&sb, r.Fig1.SCost.Render())
	fmt.Fprintln(&sb, r.Fig1.WCost.Render())
	fmt.Fprintln(&sb, r.Fig2.UpdatedPeers.Render())
	fmt.Fprintln(&sb, r.Fig2.UpdatedWorkload.Render())
	fmt.Fprintln(&sb, r.Fig3.UpdatedPeers.Render())
	fmt.Fprintln(&sb, r.Fig3.UpdatedData.Render())
	fmt.Fprintln(&sb, r.Fig4.Render())
	return sb.String()
}

// separateRuns is the evaluation as five independent driver calls, each
// building its own systems.
func separateRuns(p Params) *PaperResult {
	return &PaperResult{
		Table1: RunTable1(p),
		Fig1:   RunFig1(p, 0),
		Fig2:   RunFig2(p),
		Fig3:   RunFig3(p),
		Fig4:   RunFig4(p, nil),
	}
}

// quarterScale is the paper's parameter set at a quarter of its
// population, seed 1: the size at which the end-to-end benchmark
// compares one worker with many.
func quarterScale(workers int) Params {
	p := DefaultParams().Scaled(4)
	p.Seed = 1
	p.Workers = workers
	return p
}

// paperGolden is the SHA-256 of the evaluation's output at
// quarterScale, recorded before the drivers learned to share engines
// (at the commit where every cell still built its own with core.New).
// The full-scale digest in bench/testdata is only checked by the
// benchmark; this one runs with the tests. An engine that a cell
// reaches by Clone, ForkOnto and Rebuild and that differs from the one
// core.New would build over the same perturbed system, in one ulp of
// one aggregate, flips a near-tie somewhere in these 8.4 kB and changes
// it.
const paperGolden = "079b9957335a62a0525358a9416aed50bb068c9d73fb4f3efb20de70fed5058e"

func TestPaperOutputGolden(t *testing.T) {
	sum := sha256.Sum256([]byte(renderPaper(separateRuns(quarterScale(0)))))
	if got := hex.EncodeToString(sum[:]); got != paperGolden {
		t.Fatalf("Table 1 and Figs 1-4 at a quarter of the paper's scale hash to %s, want %s", got, paperGolden)
	}
}

// TestRunPaperMatchesSeparateRuns pins the one entry point to the five
// drivers it shares systems between: byte-equal output, serially and on
// four workers.
func TestRunPaperMatchesSeparateRuns(t *testing.T) {
	want := renderPaper(separateRuns(quarterScale(1)))
	for _, workers := range []int{1, 4} {
		if got := renderPaper(RunPaper(quarterScale(workers))); got != want {
			t.Errorf("RunPaper on %d workers prints differently from the five separate drivers", workers)
		}
	}
}
