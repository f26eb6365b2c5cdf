package main

// The result record every run prints, in one schema for all
// workloads: machine, date, seed, workload config, per-phase sample
// counts, operations attempted and failed per class, the probe digest
// and the metrics.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type record struct {
	Bench       string             `json:"bench"`
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       bool               `json:"trace"`
	Date        string             `json:"date"`
	Machine     machine            `json:"machine"`
	Config      map[string]any     `json:"config"`
	Samples     map[string]int     `json:"samples"`
	Ops         map[string]opCount `json:"ops"`
	ProbeDigest string             `json:"probe_digest"`
	Violations  []string           `json:"violations,omitempty"`
	Metrics     map[string]metric  `json:"metrics"`
}

func newRecord(workload string, seed int64, traced bool) *record {
	return &record{
		Bench:    "perfbench",
		Workload: workload,
		Seed:     seed,
		Trace:    traced,
		Date:     time.Now().UTC().Format(time.RFC3339),
		Machine: machine{
			CPU:        cpuModel(),
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go:         runtime.Version(),
		},
		Config:  map[string]any{},
		Samples: map[string]int{},
		Ops:     map[string]opCount{},
		Metrics: map[string]metric{},
	}
}

func (r *record) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *record) addOps(class string, c opCount) {
	o := r.Ops[class]
	o.Attempted += c.Attempted
	o.Failed += c.Failed
	r.Ops[class] = o
}

func (r *record) totals() (attempted, failed int) {
	for _, o := range r.Ops {
		attempted += o.Attempted
		failed += o.Failed
	}
	return attempted, failed
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes the full record on one line, then the summary line
// carrying the metrics named in names.
func (r *record) print(w io.Writer, names []string) error {
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	s := summary{Correct: len(r.Violations) == 0, Metrics: map[string]metric{}}
	s.Attempted, s.Failed = r.totals()
	for _, n := range names {
		m, ok := r.Metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		s.Metrics[n] = m
	}
	last, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", full, last)
	return err
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB reads the process high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// gcSnapshot reads the runtime's GC counters.
type gcSnapshot struct {
	cycles         uint64
	gcCPU, allCPU  float64
	pauses         *metrics.Float64Histogram
	pauseBucketSum []uint64
}

var gcSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func readGC() gcSnapshot {
	s := append([]metrics.Sample(nil), gcSamples...)
	metrics.Read(s)
	g := gcSnapshot{
		cycles: s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
		allCPU: s[2].Value.Float64(),
		pauses: s[3].Value.Float64Histogram(),
	}
	g.pauseBucketSum = append([]uint64(nil), g.pauses.Counts...)
	return g
}

// gcDelta summarises GC activity between two snapshots: cycles, the
// GC share of CPU time, and the p99 stop-the-world pause (the upper
// edge of the bucket holding it).
func gcDelta(a, b gcSnapshot) (cycles uint64, cpuShare, pauseP99us float64) {
	cycles = b.cycles - a.cycles
	if d := b.allCPU - a.allCPU; d > 0 {
		cpuShare = (b.gcCPU - a.gcCPU) / d
	}
	var total uint64
	counts := make([]uint64, len(b.pauseBucketSum))
	for i := range counts {
		counts[i] = b.pauseBucketSum[i] - a.pauseBucketSum[i]
		total += counts[i]
	}
	if total == 0 {
		return cycles, cpuShare, 0
	}
	want := uint64(float64(total)*0.99 + 0.5)
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= want {
			hi := b.pauses.Buckets[i+1]
			if hi > 1e9 { // the last bucket is open-ended
				hi = b.pauses.Buckets[i]
			}
			return cycles, cpuShare, hi * 1e6
		}
	}
	return cycles, cpuShare, 0
}
