package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func smokeOptions(t *testing.T) options {
	return options{seed: 5, seconds: 1, short: true, outDir: t.TempDir(), log: io.Discard}
}

// TestSmoke runs every workload at -short sizes — at most 200 peers, one
// second — through both passes with every check on, so the harness
// cannot rot between benchmark runs.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			o := smokeOptions(t)
			res, v, err := endToEndRun(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("end-to-end pass: correct %v, %d failed of %d", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("end-to-end pass reports %d metrics, the registry has %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit || !(v[d.Name] > 0) {
					t.Errorf("%s = %v %q (reported %v): an end-to-end metric is never 0", d.Name, v[d.Name], m.Unit, ok)
				}
			}

			res, v, err = traceRun(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("trace pass: correct %v, %d failed of %d", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("trace pass reports %d metrics, the registry has %d", len(res.Metrics), len(perLayer))
			}
			known := map[string]bool{}
			for _, d := range perLayer {
				known[d.Name] = true
			}
			for name := range v {
				if !known[name] {
					t.Errorf("the trace pass measured %s, which the registry does not list", name)
				}
			}
			if v["client.samples"] < 1 {
				t.Errorf("client.samples = %v", v["client.samples"])
			}
			data, err := os.ReadFile(filepath.Join(o.outDir, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var file struct {
				Workload string `json:"workload"`
				Spans    []span `json:"spans"`
			}
			if err := json.Unmarshal(data, &file); err != nil || file.Workload != w.Name || len(file.Spans) == 0 {
				t.Errorf("span file: %v, workload %q, %d spans", err, file.Workload, len(file.Spans))
			}
			for i, s := range file.Spans {
				if s.End < s.Start || s.Parent >= i {
					t.Fatalf("span %d %+v ends before it starts or names a later parent", i, s)
				}
			}
		})
	}
}

// TestServingLayersAccounted holds the trace pass to its purpose: the
// named steps of the replays explain the handlers they replay.
func TestServingLayersAccounted(t *testing.T) {
	w, _ := findWorkload("churn-replicated")
	o := smokeOptions(t)
	o.seconds = 2 // the traced half must hold one of the once-a-second maintenance periods
	_, v, err := traceRun(w, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"service.handler_query_us", "service.handler_join_us", "service.handler_leave_us", "router.handler_query_us",
		"api.decode_us", "api.answer_us", "api.encode_us", "core.route_us", "core.add_peer_us", "core.build_view_join_us",
		"core.build_view_move_us", "viewwire.encode_full_us", "viewwire.decode_full_us", "viewwire.full_bytes",
		"viewwire.delta_bytes", "router.apply_full_us", "router.apply_delta_us", "replog.encode_join_us",
		"replog.join_entry_bytes", "client.join_p50_ms", "client.leave_p50_ms", "client.join_visible_p50_ms",
		"client.period_p50_ms", "client.query_p50_us", "service.views_published", "router.full_syncs",
	} {
		if !(v[name] > 0) {
			t.Errorf("%s = %v on churn-replicated", name, v[name])
		}
	}
	// At 200 peers the steps are microseconds long and a span costs a
	// good part of one, so this is looser than what README.md reports
	// for the full sizes.
	if r := v["service.join_accounted_ratio"]; r < 0.5 || r > 1.5 {
		t.Errorf("the join replay's steps add up to %.2f of the join handler", r)
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json at the
// repository root equal to what `go run ./bench -describe` prints.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Error("BENCHMARK.json differs from the registries; regenerate it with: go run ./bench -describe > BENCHMARK.json")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metric{}, endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v is repeated or outside the contract's limits", d)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n<>&") {
			t.Errorf("%s: why is %d characters or holds a character JSON escapes", w.Name, len(w.Why))
		}
	}
}

// TestDisagreements: -repeat fails a metric whose repeated values
// differ by more than its bound, and one that reads 0.
func TestDisagreements(t *testing.T) {
	a := values{"setup_s": 1, "op_p50_ms": 10, "op_user_cpu_ms": 5}
	b := values{"setup_s": 1.2, "op_p50_ms": 10.9, "op_user_cpu_ms": 6.5}
	if got := disagreements([]values{a, b}); len(got) != 1 || !strings.HasPrefix(got[0], "op_user_cpu_ms") {
		t.Errorf("disagreements = %q, want only op_user_cpu_ms", got)
	}
	if got := disagreements([]values{a}); len(got) != 0 {
		t.Errorf("one set disagrees with itself: %q", got)
	}
	if got := disagreements([]values{{"setup_s": 1, "op_p50_ms": 10}}); len(got) != 1 {
		t.Errorf("a metric that reads 0 passed: %q", got)
	}
}
