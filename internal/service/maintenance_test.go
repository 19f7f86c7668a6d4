package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestSteppedMaintenanceReleasesLockBetweenSteps pins the scheduler
// acceptance criterion: a maintenance period executed via Step never
// holds the service mutex across more than one step. The step hook —
// which the scheduler invokes between steps, after releasing the
// mutation lock — performs synchronous joins and leaves through the
// HTTP handlers, which themselves take the lock: if the scheduler
// held the mutex across steps, the first hook join would deadlock
// (and the test would time out) instead of completing mid-period.
func TestSteppedMaintenanceReleasesLockBetweenSteps(t *testing.T) {
	s := New(Config{StepBudget: 1, ReformWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 12; i++ {
		doJSON(t, ts, "POST", "/v1/peers", joinBody(i%3, i), http.StatusCreated)
	}

	hookJoins := 0
	var joinedID int
	var leftOnce bool
	midPeriodActive := 0
	s.stepHook = func() {
		// The mutation lock is supposed to be free here. These calls
		// acquire it; a held lock deadlocks the test.
		switch {
		case hookJoins < 3:
			resp := doJSON(t, ts, "POST", "/v1/peers", joinBody(hookJoins%3, 20+hookJoins), http.StatusCreated)
			joinedID = int(resp["id"].(float64))
			hookJoins++
		case !leftOnce:
			doJSON(t, ts, "DELETE", fmt.Sprintf("/v1/peers/%d", joinedID), nil, http.StatusOK)
			leftOnce = true
		}
		if s.maintProgress.Load() != nil {
			midPeriodActive++
		}
	}

	rpt := s.Reform()
	if rpt.RoundsRun == 0 {
		t.Fatal("no rounds ran")
	}
	st := doJSON(t, ts, "GET", "/v1/stats", nil, http.StatusOK)
	maint := st["maintenance"].(map[string]any)
	if maint["active"].(bool) {
		t.Fatal("maintenance still active after Reform returned")
	}
	if maint["step_budget"].(float64) != 1 {
		t.Fatalf("step_budget %v, want 1", maint["step_budget"])
	}
	if hookJoins == 0 {
		t.Fatal("step hook never ran: the period completed in a single step despite budget 1")
	}
	if midPeriodActive == 0 {
		t.Fatal("no hook call observed an active period")
	}
	if !leftOnce {
		t.Fatal("no leave interleaved with the period")
	}
	// 12 seeded + 3 hook joins - 1 leave.
	if st["peers"].(float64) != 14 {
		t.Fatalf("peers=%v, want 14", st["peers"])
	}
	lock := st["mutation_lock"].(map[string]any)
	if lock["holds"].(float64) == 0 {
		t.Fatal("mutation-lock histogram recorded no holds")
	}
}

// TestNegativeStepBudgetRunsMonolithic pins the escape hatch: a
// negative StepBudget runs each period under one lock hold (the
// pre-scheduler behavior) and still converges.
func TestNegativeStepBudgetRunsMonolithic(t *testing.T) {
	s := New(Config{StepBudget: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 9; i++ {
		doJSON(t, ts, "POST", "/v1/peers", joinBody(i%3, i), http.StatusCreated)
	}
	steps := 0
	s.stepHook = func() { steps++ }
	rpt := s.Reform()
	if !rpt.Converged {
		t.Fatalf("monolithic reform did not converge: %+v", rpt)
	}
	if steps != 0 {
		t.Fatalf("monolithic reform released the lock %d times mid-period", steps)
	}
}

// TestSteppedMatchesMonolithicOutcome pins end-to-end equivalence at
// the service layer: the same joined population maintained with
// budget 1 and with one monolithic hold reaches identical costs and
// cluster counts.
func TestSteppedMatchesMonolithicOutcome(t *testing.T) {
	run := func(budget, workers int) (float64, float64) {
		s := New(Config{StepBudget: budget, ReformWorkers: workers})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		for i := 0; i < 12; i++ {
			doJSON(t, ts, "POST", "/v1/peers", joinBody(i%3, i), http.StatusCreated)
		}
		rpt := s.Reform()
		return rpt.FinalSCost, float64(rpt.FinalClusters)
	}
	wantS, wantC := run(-1, 1)
	for _, cfg := range [][2]int{{1, 1}, {1, 4}, {7, 2}, {1000, 1}} {
		if gotS, gotC := run(cfg[0], cfg[1]); gotS != wantS || gotC != wantC {
			t.Fatalf("budget=%d workers=%d: scost/clusters %g/%g, want %g/%g",
				cfg[0], cfg[1], gotS, gotC, wantS, wantC)
		}
	}
}
