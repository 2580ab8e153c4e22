package main

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
	"strconv"
	"strings"
	"syscall"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks; 0 when xs
// is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// procSnap is the process's cumulative CPU time, allocation and GC
// pause at one instant.
type procSnap struct {
	cpu     time.Duration
	alloc   uint64
	pauseNs uint64
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSnap{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   m.TotalAlloc,
		pauseNs: m.PauseTotalNs,
	}
}

// peakRSSMiB is the process's resident high-water mark: VmHWM from
// /proc/self/status, or getrusage's ru_maxrss where /proc is missing.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// fingerprint identifies the machine and the code a result came from.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git revision when run from a git checkout; Source
	// digests the Go sources either way.
	Commit string `json:"commit,omitempty"`
	Source string `json:"source"`
}

func (f fingerprint) machine() string {
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s", f.CPU, f.NProc, f.GOMAXPROCS, f.GoVersion)
}

func machineFingerprint() fingerprint {
	fp := fingerprint{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     os.Getenv("PERFBENCH_COMMIT"),
		Source:     sourceDigest("."),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// sourceDigest hashes every Go source and go.mod under root, skipping
// hidden directories such as the build directory.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// resultRecord is one line of the results log.
type resultRecord struct {
	Time        time.Time   `json:"time"`
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Trace       bool        `json:"trace"`
	Fingerprint fingerprint `json:"fingerprint"`
	Result      summary     `json:"result"`
}

// logResult prints the fingerprint and every metric, flags a comparison
// with the previous result of the same workload when it came from a
// different machine, and appends this result to the results log.
func logResult(cfg config, fp fingerprint, sum summary, stdout, stderr io.Writer) {
	fpJSON, _ := json.Marshal(fp) // plain strings and ints always marshal
	fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)
	var names []string
	for n := range sum.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", n, sum.Metrics[n].Value, sum.Metrics[n].Unit)
	}

	path := filepath.Join(cfg.out, "results.jsonl")
	if data, err := os.ReadFile(path); err == nil {
		var prev *resultRecord
		for _, line := range strings.Split(string(data), "\n") {
			var rec resultRecord
			if json.Unmarshal([]byte(line), &rec) == nil && rec.Workload == cfg.workload.name && rec.Trace == cfg.trace {
				prev = &rec
			}
		}
		if prev != nil && prev.Fingerprint.machine() != fp.machine() {
			fmt.Fprintf(stdout, "WARNING: the previous %s result came from another machine (%s); this one from %s: the two do not compare\n",
				cfg.workload.name, prev.Fingerprint.machine(), fp.machine())
		}
	}
	line, err := json.Marshal(resultRecord{
		Time: time.Now().UTC(), Workload: cfg.workload.name, Seed: cfg.seed,
		Seconds: cfg.window.Seconds(), Trace: cfg.trace, Fingerprint: fp, Result: sum,
	})
	if err == nil {
		var f *os.File
		if f, err = os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644); err == nil {
			_, err = f.Write(append(line, '\n'))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: results log: %v\n", err)
	}
}
