package main

// Host fingerprints and result sets. Every result carries the fingerprint
// of the host and code that produced it; compare refuses result sets from
// different hosts, and merge refuses sets from different hosts or code.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	// Commit identifies the measured code: a digest of the module's Go
	// sources and go.mod, since the benchmark may run outside a git
	// checkout.
	Commit string `json:"commit"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s commit=%s",
		f.CPU, f.NProc, f.GOMAXPROCS, f.Go, f.Kernel, f.Commit)
}

// sameHost reports whether two fingerprints name the same machine and
// toolchain, whatever code they measured.
func (f fingerprint) sameHost(g fingerprint) bool {
	f.Commit, g.Commit = "", ""
	return f == g
}

func hostFingerprint(root string) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     kernelRelease(),
		Commit:     sourceDigest(root),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// sourceDigest hashes every .go, go.mod and go.sum file under root,
// skipping hidden directories such as build output.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run's result as --out appends it.
type record struct {
	Host     fingerprint       `json:"host"`
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    int               `json:"trace"`
	Correct  bool              `json:"correct"`
	Metrics  map[string]metric `json:"metrics"`
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSet loads a result file and returns its records and their common
// fingerprint; a file mixing fingerprints is an error.
func readSet(path string) ([]record, fingerprint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fingerprint{}, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fingerprint{}, fmt.Errorf("%s: %w", path, err)
		}
		if len(recs) > 0 && r.Host != recs[0].Host {
			return nil, fingerprint{}, fmt.Errorf("%s mixes fingerprints: %v and %v", path, recs[0].Host, r.Host)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fingerprint{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fingerprint{}, fmt.Errorf("%s holds no results", path)
	}
	return recs, recs[0].Host, nil
}

// cmdMerge concatenates result files that share one fingerprint.
func cmdMerge(args []string, stdout, stderr io.Writer) int {
	if len(args) < 2 {
		fmt.Fprintln(stderr, "usage: npqbench merge OUT IN...")
		return 2
	}
	var all []record
	for _, in := range args[1:] {
		recs, fp, err := readSet(in)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if len(all) > 0 && fp != all[0].Host {
			fmt.Fprintf(stderr, "refusing to merge: %s has fingerprint %v, others %v\n", in, fp, all[0].Host)
			return 1
		}
		all = append(all, recs...)
	}
	for _, r := range all {
		if err := appendRecord(args[0], r); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "merged %d results into %s\n", len(all), args[0])
	return 0
}

// cmdCompare prints per-workload medians of two result sets, refusing
// sets measured on different hosts.
func cmdCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: npqbench compare BASE CHANGE")
		return 2
	}
	base, fa, err := readSet(args[0])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	change, fb, err := readSet(args[1])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !fa.sameHost(fb) {
		fmt.Fprintf(stderr, "refusing to compare results from different hosts:\n  %v\n  %v\n", fa, fb)
		return 1
	}
	type key struct{ workload, metric string }
	vals := func(recs []record) map[key][]float64 {
		m := map[key][]float64{}
		for _, r := range recs {
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				m[k] = append(m[k], v.Value)
			}
		}
		return m
	}
	a, b := vals(base), vals(change)
	var keys []key
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(stdout, "base %s, change %s\n", fa.Commit, fb.Commit)
	fmt.Fprintf(stdout, "%-22s %-36s %14s %14s %9s\n", "workload", "metric", "base median", "change median", "change")
	for _, k := range keys {
		ma, mb := median(a[k]), median(b[k])
		fmt.Fprintf(stdout, "%-22s %-36s %14.4f %14.4f %8.2f%%\n", k.workload, k.metric, ma, mb, ratio(mb-ma, ma)*100)
	}
	return 0
}
