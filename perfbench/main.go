// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per invocation, checks every output it produces, and prints the
// workload's metrics; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload paper-dense --seed 1 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 runs the
// traced pass and reports the per-layer metrics instead. See README.md for
// the workloads, the metrics and which layer moves which number.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	secs := fs.Int("seconds", 30, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0: untraced end-to-end metrics; 1: traced per-layer metrics")
	root := fs.String("root", ".", "repository root, for the provenance record")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for snapshots and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads()[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	opts := runOpts{root: *root, seed: *seed, seconds: float64(*secs), trace: *trace == 1, workdir: *workdir}
	out, err := w.run(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	if out.checkErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: correctness check failed: %v\n", w.Name, out.checkErr)
	}
	for n, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", w.Name, n)
			return 1
		}
	}
	prov := provenance(w, opts)
	if err := writeRecord(opts, w, prov, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printReport(stdout, w, prov, out)
	res := result{Correct: out.checkErr == nil, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if out.checkErr != nil {
		return 1
	}
	return 0
}

// runOpts are one invocation's settings.
type runOpts struct {
	root    string
	seed    int64
	seconds float64
	trace   bool
	workdir string
}

// outcome is what a workload run produced.
type outcome struct {
	metrics   map[string]metric
	attempted int
	failed    int
	checkErr  error
	phases    map[string]any // request counts per phase and other detail
	spans     []span
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]metric), phases: make(map[string]any)}
}

// fail records the first correctness failure; later ones are logged only.
func (o *outcome) fail(err error) {
	o.failed++
	o.checkErr = errors.Join(o.checkErr, err)
}

// printReport prints every metric by name with its unit, then the
// provenance line.
func printReport(w io.Writer, wl *workload, prov map[string]any, out *outcome) {
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s\n", wl.Name)
	for _, n := range names {
		m := out.metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	p, _ := json.Marshal(map[string]any{"provenance": prov, "phases": out.phases})
	fmt.Fprintln(w, string(p))
}

// writeRecord stores the run's provenance, phase detail and (traced runs)
// spans under the work directory.
func writeRecord(o runOpts, w *workload, prov map[string]any, out *outcome) error {
	base := filepath.Join(o.workdir, fmt.Sprintf("%s-seed%d-trace%d", w.Name, o.seed, boolInt(o.trace)))
	rec, err := json.MarshalIndent(map[string]any{"provenance": prov, "phases": out.phases, "metrics": out.metrics}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", rec, 0o644); err != nil {
		return err
	}
	if !o.trace {
		return nil
	}
	f, err := os.Create(base + ".spans.json")
	if err != nil {
		return err
	}
	if err := writeSpans(f, out.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
