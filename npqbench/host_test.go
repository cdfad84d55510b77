package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func writeSet(t *testing.T, path string, fp fingerprint, vals ...float64) {
	t.Helper()
	for _, v := range vals {
		r := record{Host: fp, Workload: "w", Metrics: map[string]metric{"m": {Value: v, Unit: "s"}}}
		if err := appendRecord(path, r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareAndMergeRefuseForeignFingerprints(t *testing.T) {
	dir := t.TempDir()
	host := fingerprint{CPU: "cpu", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", Kernel: "6.1", Commit: "src-a"}
	change := host
	change.Commit = "src-b"
	other := host
	other.CPU = "another cpu"
	base, next, foreign := filepath.Join(dir, "base"), filepath.Join(dir, "next"), filepath.Join(dir, "foreign")
	writeSet(t, base, host, 1, 2, 3)
	writeSet(t, next, change, 2, 2, 2)
	writeSet(t, foreign, other, 9)

	var out, errs bytes.Buffer
	if code := cmdCompare([]string{base, next}, &out, &errs); code != 0 {
		t.Fatalf("same host, two commits: exit %d: %s", code, errs.String())
	}
	if !strings.Contains(out.String(), "2.0000") {
		t.Errorf("compare output lacks the medians:\n%s", out.String())
	}
	if code := cmdCompare([]string{base, foreign}, &out, &errs); code == 0 {
		t.Error("compare accepted results from another host")
	}
	if code := cmdMerge([]string{filepath.Join(dir, "merged"), base, next}, &out, &errs); code == 0 {
		t.Error("merge accepted results of different code")
	}
	if code := cmdMerge([]string{filepath.Join(dir, "merged"), base, base}, &out, &errs); code != 0 {
		t.Errorf("merge of one fingerprint failed: %s", errs.String())
	}
	mixed := filepath.Join(dir, "mixed")
	writeSet(t, mixed, host, 1)
	writeSet(t, mixed, other, 1)
	if _, _, err := readSet(mixed); err == nil {
		t.Error("a file mixing fingerprints was read as one set")
	}
}
