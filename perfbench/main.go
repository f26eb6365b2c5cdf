// Command perfbench is the repository's benchmark: it builds the
// serving stack in process from seeded inputs, serves it on loopback
// listeners, drives one workload against it and prints the workload's
// metrics. See README.md for the workloads, metrics and phases.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload city-zipf --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the
// full result record. The exit code is non-zero when any output check
// fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type metricSpec struct{ name, unit string }

// The end-to-end metrics, reported by the untraced run (--trace 0) of
// every workload.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"locate_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"mean_error_ft", "ft"},
}

// The per-layer metrics, reported by the traced run (--trace 1). A
// layer a workload bypasses reads 0.
var perLayerMetrics = []metricSpec{
	{"report_p50_ms", "ms"},
	{"visible_p50_ms", "ms"},
	{"client.rtt_us_p50", "us"},
	{"client.transport_us_p50", "us"},
	{"client.late_ms_max", "ms"},
	{"server.handle_us_p50", "us"},
	{"server.self_us_p50", "us"},
	{"server.allocs_per_req", "count"},
	{"venue.acquire_ns_p50", "ns"},
	{"venue.hit_ratio", "ratio"},
	{"venue.cold_load_us_p50", "us"},
	{"venue.cold_load_us_p99", "us"},
	{"venue.evictions", "count"},
	{"venue.resident_mb_max", "MB"},
	{"localize.locate_us_p50", "us"},
	{"localize.locate_us_p99", "us"},
	{"localize.cells_per_query", "count"},
	{"localize.ns_per_cell", "ns"},
	{"locmap.nearest_us_p50", "us"},
	{"core.resolve_us_p50", "us"},
	{"trainingdb.generate_ms", "ms"},
	{"trainingdb.compile_ms", "ms"},
	{"trainingdb.quantize_ms", "ms"},
	{"trainingdb.write_ms", "ms"},
	{"trainingdb.open_ms", "ms"},
	{"ingest.report_handle_us_p50", "us"},
	{"ingest.rebuild_ms_p50", "ms"},
	{"ingest.swaps", "count"},
	{"ingest.queued_max", "count"},
	{"ingest.rejected", "count"},
	{"repl.ship_ms_p50", "ms"},
	{"repl.bootstrap_s", "s"},
	{"repl.reconnects", "count"},
	{"repl.lag_seqs_max", "count"},
	{"gc.pause_us_p99", "us"},
	{"gc.cycles", "count"},
	{"gc.cpu_share", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_pct", "%"},
}

var workloads = map[string]func(*bench) error{
	"city-zipf":   runCity,
	"campus-scan": runCampus,
	"fleet-live":  runFleet,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Int64("seed", 1, "seed every input is generated from")
		seconds  = fs.Float64("seconds", 20, "length of the measured phases (warm-up, paced, saturated)")
		trace    = fs.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if workloads[*workload] == nil {
		return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	rec, err := runWorkload(*workload, *seed, *seconds, *trace == 1, fullSizes, ".bench_build")
	if err != nil {
		return err
	}
	names := specNames(endToEndMetrics)
	if *trace == 1 {
		names = specNames(perLayerMetrics)
	}
	if err := rec.print(os.Stdout, names); err != nil {
		return err
	}
	if len(rec.Violations) > 0 {
		return fmt.Errorf("%d output checks failed: %s", len(rec.Violations), strings.Join(rec.Violations, "; "))
	}
	return nil
}

// runWorkload runs one workload and returns its record. Its files
// live under workDir and are removed at the end.
func runWorkload(name string, seed int64, seconds float64, traced bool, sz sizes, workDir string) (*record, error) {
	b, err := newBench(name, seed, seconds, traced, sz, workDir)
	if err != nil {
		return nil, err
	}
	defer b.close()
	if err := workloads[name](b); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := b.finish(); err != nil {
		return nil, err
	}
	return b.rec, nil
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func specNames(specs []metricSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}
