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
	st := readStats(t, ts)
	if st.Maintenance.Active || st.Maintenance.StepBudget != 1 {
		t.Fatalf("maintenance block %+v after Reform returned, want inactive with step_budget 1", st.Maintenance)
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
	// 12 seeded + 3 hook joins - 1 leave, and every lock hold recorded.
	if st.Peers != 14 || st.MutationLock.Holds == 0 {
		t.Fatalf("peers=%d with %d mutation-lock holds, want 14 peers and some holds", st.Peers, st.MutationLock.Holds)
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
