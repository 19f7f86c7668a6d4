package experiments

import "repro/internal/metrics"

// PaperResult holds the paper's whole evaluation (§4): Table 1 and
// Figs 1-4, in the order the paper and `reform -exp all` present them.
type PaperResult struct {
	Table1 *Table1Result
	Fig1   *Fig1Result
	Fig2   *Fig2Result
	Fig3   *Fig3Result
	Fig4   *metrics.Series
}

// RunPaper runs Table 1 and Figs 1-4 and returns exactly what
// RunTable1, RunFig1 (default window), RunFig2, RunFig3 and RunFig4
// (default α values) return for the same Params. It builds four
// systems where the five calls build seven: Fig 1 runs over Table 1's
// same-category system (the same Params build the same System, and
// neither driver changes it), and one updateBase serves Figs 2-4.
func RunPaper(p Params) *PaperResult {
	systems := buildSystems(p, table1Scenarios, p.workerCount())
	update := updateBase(p)
	return &PaperResult{
		Table1: runTable1(p, systems),
		Fig1:   runFig1(systems[0], 0),
		Fig2:   runFig2(update),
		Fig3:   runFig3(update),
		Fig4:   runFig4(update, nil),
	}
}
