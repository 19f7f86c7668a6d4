package main

import (
	"bytes"
	"errors"
	"io"
	"regexp"
	"strings"
	"testing"
)

// TestLoadtestVerifiedRouterTier runs CI's verified loadtest smoke at a
// few hundred requests: an uncached in-process daemon seeded with the
// generated population, churn and stepped maintenance running, two
// cached routers serving Zipf batches, and -verify byte-comparing their
// quiesced answers with the daemon's. Every pool query comes from a
// seeded peer's workload or documents, so every compared answer must
// name at least one cluster.
func TestLoadtestVerifiedRouterTier(t *testing.T) {
	var out bytes.Buffer
	err := runLoadtest(strings.Fields("-peers 16 -workers 4 -requests 300 -batch 4 -maintain 20ms -churn 5ms "+
		"-step-budget 2 -zipf 1.1 -route-cache 0 -router 2 -verify"), &out, io.Discard)
	t.Log(out.String())
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`verify +(\d+) router answers byte-identical to the daemon's; (\d+) of (\d+) queries hit a cluster`).
		FindStringSubmatch(out.String())
	if m == nil {
		t.Fatal("no verify line")
	}
	if m[1] != "512" || m[2] != m[3] || m[3] != "1024" {
		t.Fatalf("verify compared %s answers, %s of %s queries hit; want 512 answers, 1024 of 1024", m[1], m[2], m[3])
	}
}

func TestLoadtestRejectsEmptyPopulation(t *testing.T) {
	err := runLoadtest([]string{"-peers", "0"}, io.Discard, io.Discard)
	if !errors.As(err, new(usageError)) {
		t.Fatalf("-peers 0: got %v, want a usage error", err)
	}
}

// TestLoadtestUnknownFlag pins a bad flag to one report of it, with
// the usage, and exit code 2: the flag package prints the error, so
// the command must not print it again.
func TestLoadtestUnknownFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := loadtestMain([]string{"-nosuchflag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	all := stdout.String() + stderr.String()
	if n := strings.Count(all, "flag provided but not defined: -nosuchflag"); n != 1 {
		t.Fatalf("the error appears %d times, want once:\n%s", n, all)
	}
	if !strings.Contains(stderr.String(), "Usage of loadtest") {
		t.Fatalf("no usage on stderr:\n%s", stderr.String())
	}
}
