// Command perfbench is the repository's benchmark. It runs one seeded
// workload through the public aim API and prints, as the last line of
// its standard output, one JSON object with the run's correctness
// verdict and its metrics:
//
//	bash perfbench/run.sh --workload compile-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the six end-to-end ones (set-up time,
// throughput, median and p90 latency, CPU per request, peak RSS). With
// --trace 1 the run is traced instead: it times the calls into each
// layer's exported functions and reports per-layer metrics, plus the
// tracing overhead. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"aim"
	"aim/internal/xrand"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupRuns is how many times a run sets its workload up; setup_s is
// the median.
const setupRuns = 5

// gateSamples is how many served results the correctness gate re-runs
// through aim.Run.
const gateSamples = 3

// attributionSamples is how many of a traced run's requests are
// replayed layer by layer.
const attributionSamples = 3

// doorRequests is how many requests the front-door probe sends.
const doorRequests = 120

// clientCount is the closed loop's client count: one per CPU, since
// every request runs with Parallel 1.
func clientCount() int { return runtime.NumCPU() }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the line a run prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are a run's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// buildDir holds the run's scratch directories and trace files.
	buildDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	fs.Int64Var(&opt.seed, "seed", 1, "seed the workload's requests are generated from")
	fs.IntVar(&opt.seconds, "seconds", 30, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&opt.buildDir, "build-dir", ".bench_build", "directory for scratch plan stores and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = *trace == 1
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %v\n", fs.Args())
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, not %d\n", *trace)
		return 2
	case opt.seconds < 1:
		fmt.Fprintf(stderr, "perfbench: --seconds must be at least 1, not %d\n", opt.seconds)
		return 2
	}
	if _, err := (gen{workload: opt.workload}).requests(0); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	rep, err := execute(opt, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// execute runs one workload in a scratch directory it removes after.
func execute(opt options, log io.Writer) (report, error) {
	if err := os.MkdirAll(opt.buildDir, 0o755); err != nil {
		return report{}, err
	}
	root, err := os.MkdirTemp(opt.buildDir, "perfbench-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(root)
	g := gen{workload: opt.workload, seed: opt.seed}
	s := &reqStream{g: g}
	dirs := &scratch{root: root}
	var stk stack
	switch opt.workload {
	case compileCold:
		stk = &coldStack{g: g, s: s, dirs: dirs}
	default:
		stk = &simStack{g: g, s: s}
	}
	defer stk.close()
	if opt.trace {
		return traced(opt, stk, s, dirs, log)
	}
	return endToEndRun(opt, stk, s, log)
}

// endToEndRun sets the workload up setupRuns times, measures the last
// stack for opt.seconds, then checks the outputs.
func endToEndRun(opt options, stk stack, s *reqStream, log io.Writer) (report, error) {
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		stk.close()
		t0 := now()
		if err := stk.setUp(); err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, now().Sub(t0).Seconds())
	}
	res := &results{}
	win, err := measure(func() ([]sample, error) {
		return stk.traffic(traffic{clients: clientCount(), deadline: now().Add(seconds(opt.seconds)), min: minSamples, res: res})
	})
	if err != nil {
		return report{}, err
	}
	e, err := win.summarize()
	if err != nil {
		return report{}, err
	}
	verdict := errors.Join(stk.verify(), failures(win.samples), gate(opt.seed, s, res, win.samples, gateSamples, aim.Run))
	rep := report{
		Correct:   verdict == nil,
		Attempted: len(win.samples),
		Failed:    win.failed(),
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"ops_per_s":      {e.opsPerS, "1/s"},
			"latency_p50_ms": {e.p50ms, "ms"},
			"latency_p90_ms": {e.p90ms, "ms"},
			"cpu_ms_per_op":  {e.cpuMSPerOp, "ms"},
			"peak_rss_mb":    {win.peakRSS, "MB"},
		},
	}
	fmt.Fprintf(log, "%s seed %d: %d requests in %.2fs over %d clients, %d failed; set-ups %v s\n",
		opt.workload, opt.seed, len(win.samples), win.wall.Seconds(), clientCount(), rep.Failed, setups)
	logMetrics(log, rep)
	if verdict != nil {
		fmt.Fprintf(log, "correctness: %v\n", verdict)
	}
	return rep, nil
}

// seconds converts a whole number of seconds to a Duration.
func seconds(n int) time.Duration { return time.Duration(n) * time.Second }

// failures reports the first failed request, if any: a workload on
// which any request fails or is refused is not a valid run.
func failures(samples []sample) error {
	for _, s := range samples {
		if s.err != nil {
			return fmt.Errorf("request %d failed: %w", s.idx, s.err)
		}
	}
	return nil
}

// gate re-runs a seeded sample of the answered requests through aim.Run
// (ref) outside the measured window and checks each served answer
// equals it.
func gate(seed int64, s *reqStream, res *results, samples []sample, n int, ref func(aim.Config) (aim.Result, error)) error {
	var ok []int
	for _, smp := range samples {
		if smp.err == nil {
			ok = append(ok, smp.idx)
		}
	}
	sort.Ints(ok)
	if len(ok) == 0 {
		return errors.New("correctness gate: no answered requests")
	}
	rng := xrand.NewNamed(seed, "perfbench/gate")
	var errs []error
	for _, k := range rng.Perm(len(ok))[:min(n, len(ok))] {
		idx := ok[k]
		cfg := s.at(idx)
		got, found := res.get(idx)
		if !found {
			errs = append(errs, fmt.Errorf("request %d: answered but not recorded", idx))
			continue
		}
		want, err := ref(cfg)
		if err != nil {
			errs = append(errs, fmt.Errorf("request %d: reference run: %w", idx, err))
			continue
		}
		if got != want {
			errs = append(errs, fmt.Errorf("request %d (%s %s): served %+v, aim.Run gives %+v", idx, cfg.Network, cfg.Fidelity, got, want))
		}
	}
	return errors.Join(errs...)
}

// logMetrics prints the metrics to the log in name order.
func logMetrics(log io.Writer, rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Fprintf(log, "  %-28s %14.4f %s\n", name, m.Value, m.Unit)
	}
}

// tracePath is where a traced run writes its spans.
func tracePath(opt options) string {
	return filepath.Join(opt.buildDir, fmt.Sprintf("trace-%s-seed%d.jsonl", opt.workload, opt.seed))
}
