package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// goldenTable holds one "<sha256>  <name>" line per block of
// `reform -exp all -scale 4 -seed 1`, in print order: the hash of the
// block's exact stdout after its "=== name ===" header, up to the next.
const goldenTable = "testdata/exp_all.sha256"

// blockTable renders -exp all output in goldenTable's format. Bytes
// before the first header make a block named "(preamble)".
func blockTable(out string) string {
	out = "=== (preamble) ===\n" + out
	heads := regexp.MustCompile(`(?m)^=== (\S+) ===\n`).FindAllStringSubmatchIndex(out, -1)
	heads = append(heads, []int{len(out)})
	var b strings.Builder
	for i, h := range heads[:len(heads)-1] {
		if end := heads[i+1][0]; i > 0 || end > h[1] {
			fmt.Fprintf(&b, "%x  %s\n", sha256.Sum256([]byte(out[h[1]:end])), out[h[2]:h[3]])
		}
	}
	return b.String()
}

// readTable returns a block table's names in order and their hashes.
func readTable(table string) (names []string, sums map[string]string) {
	sums = map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(table), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			names = append(names, f[1])
			sums[f[1]] = f[0]
		}
	}
	return names, sums
}

// TestExpAllGolden pins every block of -exp all, on one worker and on
// four, to goldenTable. On a mismatch it names each block that differs,
// is missing or is extra, and prints the fresh table: a deliberate
// change is one paste over the file.
func TestExpAllGolden(t *testing.T) {
	golden, err := os.ReadFile(goldenTable)
	if err != nil {
		t.Fatal(err)
	}
	wantNames, want := readTable(string(golden))
	for _, workers := range []string{"1", "4"} {
		var stdout, stderr bytes.Buffer
		if code := expMain([]string{"-exp", "all", "-scale", "4", "-seed", "1", "-workers", workers}, &stdout, &stderr); code != 0 || stderr.Len() > 0 {
			t.Fatalf("-workers %s: exit %d, stderr:\n%s", workers, code, stderr.String())
		}
		fresh := blockTable(stdout.String())
		if fresh == string(golden) {
			continue
		}
		gotNames, got := readTable(fresh)
		var diffs []string
		for _, name := range wantNames {
			if got[name] == "" {
				diffs = append(diffs, "missing "+name)
			} else if got[name] != want[name] {
				diffs = append(diffs, "differs "+name)
			}
		}
		for _, name := range gotNames {
			if want[name] == "" {
				diffs = append(diffs, "extra "+name)
			}
		}
		if diffs == nil {
			diffs = []string{"same blocks, different order"}
		}
		t.Errorf("-workers %s: %s\nfresh %s:\n%s", workers, strings.Join(diffs, ", "), goldenTable, fresh)
	}
}

// TestExpUnknownName pins the usage error: a name outside the table,
// the deleted interleaved too, exits 2 and lists exactly the golden
// table's blocks, which TestExpAllGolden holds to the table, plus all.
func TestExpUnknownName(t *testing.T) {
	golden, err := os.ReadFile(goldenTable)
	if err != nil {
		t.Fatal(err)
	}
	names, _ := readTable(string(golden))
	for _, name := range []string{"interleaved", "nosuch"} {
		var stdout, stderr bytes.Buffer
		code := expMain([]string{"-exp", name}, &stdout, &stderr)
		want := fmt.Sprintf("unknown experiment %q; known: %s, all\n", name, strings.Join(names, ", "))
		if code != 2 || stderr.String() != want || stdout.Len() > 0 {
			t.Errorf("-exp %s: exit %d, stdout %q, stderr %q; want exit 2 and stderr %q", name, code, stdout.String(), stderr.String(), want)
		}
	}
}
