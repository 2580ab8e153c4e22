// Command perfbench is the repository's performance benchmark. It drives
// one named workload through the engine's public entry points for a fixed
// wall-clock window, checks every result, and prints its metrics as one
// JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload paper-enhance --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json. With
// --trace 1 it runs the workload untraced and then traced on the same
// system, times direct kernel calls on the workload's own inputs, and
// reports the per-layer metrics. README.md in this directory gives each
// workload's rationale and the layer → metric → workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// defaultSeed is the seed whose job results are pinned in golden.json.
const defaultSeed = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", defaultSeed, "workload seed; every input is derived from it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 runs traced and prints per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the results log, spans and job ledgers")
	writeGolden := fs.String("write-golden", "", "write this seed's job digests to the given golden file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if *writeGolden != "" && *seed != defaultSeed {
		fmt.Fprintf(stderr, "perfbench: golden digests are pinned for seed %d only\n", defaultSeed)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	cfg := config{
		workload: w,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		out:      *out,
		golden:   loadGolden(),
		log:      stderr,
	}
	fp := machineFingerprint()
	rep, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if *writeGolden != "" {
		if err := saveGolden(*writeGolden, w.name, rep.digests); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: wrote %d digests for %s to %s\n", len(rep.digests), w.name, *writeGolden)
		return 0
	}

	sum := rep.summary()
	logResult(cfg, fp, sum, stdout, stderr)
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.correct() {
		return 1
	}
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the benchmark's last output line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
