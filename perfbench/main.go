// Command perfbench is the simulator's campaign benchmark. It runs the
// sweeps users run — the paper preset, the open-loop fabric preset and
// the fault preset through the sweep daemon with a store-served
// resweep — checks every result, and prints end-to-end metrics
// (untraced) or per-layer metrics (traced) as one JSON line.
//
//	bash perfbench/run.sh --workload paper_sweep --seed 1 --seconds 35 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 35
//
// Run it from the repository root; run.sh builds it first. Scratch
// files, run records and span logs go under .bench_build/.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"cdna/internal/daemon"
	"cdna/internal/store"
)

// outDir holds everything a run writes.
const outDir = ".bench_build"

// profileHz is the CPU profile's sampling rate in the traced run.
const profileHz = 500

func main() {
	name := flag.String("workload", "", "workload: paper_sweep | fabric_openloop | fault_resweep | all")
	seed := flag.Int64("seed", 1, "workload seed, planted into every generated configuration")
	seconds := flag.Int("seconds", 35, "measurement time of an untraced run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics (untraced); 1: per-layer metrics (traced)")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be positive, got %d", seconds)
	}
	var defs []workloadDef
	if name == "all" {
		defs = workloadDefs
	} else {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		defs = []workloadDef{w}
	}
	tmp := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(outDir, "results"), 0o755); err != nil {
		return err
	}
	workers := runtime.NumCPU()
	env := recordEnvironment(seed, workers)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	for _, w := range defs {
		traces := []int{trace}
		if name == "all" {
			traces = []int{0, 1}
		}
		for _, t := range traces {
			b := &benchRun{w: w, seed: seed, workers: workers, tmp: tmp, env: env}
			if t == 0 {
				b.measure(time.Duration(seconds) * time.Second)
			} else if err := b.traced(); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if err := b.report(t); err != nil {
				return err
			}
		}
	}
	return nil
}

// benchRun is one invocation's state for one workload.
type benchRun struct {
	w       workloadDef
	seed    int64
	workers int
	tmp     string
	env     environment

	attempted int
	failures  []string
	digest    string
	cells     []cellError
	metrics   map[string]float64
	human     map[string]float64 // extra values printed, not gated
	spans     *spanLog
}

// pass runs the workload once, cold: locally, or through the daemon.
// spans is only used by the daemon client (Submit/Stream/Results).
func (b *benchRun) pass(req daemon.SweepRequest, spans *spanLog) *sweepRun {
	runtime.GC()
	if b.w.remote {
		return runRemote(req, b.workers, b.tmp, spans)
	}
	return runLocal(req, b.workers, nil)
}

func (b *benchRun) absorb(r *sweepRun) {
	b.attempted += r.attempted
	b.failures = append(b.failures, r.failures...)
}

// checkPaper computes the paper error of a paper workload's records.
func (b *benchRun) checkPaper(r *sweepRun) float64 {
	if !b.w.paper || r.recs == nil {
		return 0
	}
	cells, err := loadPaperCells()
	if err == nil {
		var mean float64
		b.cells, mean, err = paperErrors(cells, r.recs)
		if err == nil {
			return mean
		}
	}
	b.failures = append(b.failures, err.Error())
	return 0
}

// measure is the untraced run: cold passes back to back while another
// pass (as long as the last one) still fits in the measurement time,
// reported as medians. Every pass must reproduce the first pass's
// records exactly.
func (b *benchRun) measure(budget time.Duration) {
	req := b.w.request(b.seed, b.workers)
	var reps []*sweepRun
	start := time.Now()
	var last time.Duration
	for len(reps) == 0 || time.Since(start)+last <= budget {
		passStart := time.Now()
		r := b.pass(req, nil)
		last = time.Since(passStart)
		if len(reps) > 0 && r.recs != nil && reps[0].recs != nil {
			compareRecords(r, fmt.Sprintf("pass %d vs pass 1", len(reps)+1), reps[0].recs, r.recs)
		}
		b.absorb(r)
		reps = append(reps, r)
	}
	first := reps[0]
	b.digest = digest(first.json)
	med := func(f func(*sweepRun) float64) float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return median(v)
	}
	b.metrics = map[string]float64{
		"setup_s":      med(func(r *sweepRun) float64 { return r.setupS }),
		"sweep_wall_s": med(func(r *sweepRun) float64 { return r.sweep.wallS }),
		"sweep_cpu_s":  med(func(r *sweepRun) float64 { return r.sweep.cpuS }),
		"alloc_mb":     med(func(r *sweepRun) float64 { return r.sweep.allocMB }),
	}
	b.human = map[string]float64{
		"passes": float64(len(reps)),
		"points": float64(len(first.recs)),
	}
	if b.w.paper {
		b.human["paper_err_pct"] = b.checkPaper(first)
	}
	if b.w.remote {
		b.human["resweep_wall_s"] = med(func(r *sweepRun) float64 { return r.resweepS })
	}
	for i, r := range reps {
		fmt.Printf("pass %d: setup %.4fs wall %.4fs cpu %.4fs alloc %.2fMB\n", i+1, r.setupS, r.sweep.wallS, r.sweep.cpuS, r.sweep.allocMB)
	}
}

// traced is the per-layer run: one untraced pass under the CPU
// profiler (module shares, untraced CPU and wall), then one traced pass
// (per-event counts and per-call spans) whose records must equal the
// untraced ones.
func (b *benchRun) traced() error {
	req := b.w.request(b.seed, b.workers)
	b.spans = newSpanLog()

	var prof bytes.Buffer
	runtime.GC()
	// A finer sampling rate than pprof's fixed 100 Hz resolves small
	// layers; set first, it survives StartCPUProfile (which then warns
	// on stderr that the rate is already set).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	u := b.pass(req, b.spans)
	pprof.StopCPUProfile()
	b.absorb(u)
	shares, err := foldProfile(prof.Bytes())
	if err != nil {
		return err
	}

	runtime.GC()
	var t *sweepRun
	var warm *sweepRun
	if b.w.remote {
		dir, err := os.MkdirTemp(b.tmp, "store-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		t = runCachedTraced(req, b.workers, st, b.spans, false)
		warm = runCachedTraced(req, b.workers, st, b.spans, true)
		b.absorb(warm)
		if t.recs != nil && warm.recs != nil {
			compareRecords(t, "traced store-served resweep", t.recs, warm.recs)
		}
	} else {
		t = runLocal(req, b.workers, b.spans)
	}
	if u.recs != nil && t.recs != nil {
		compareRecords(t, "traced vs untraced", u.recs, t.recs)
	}
	b.absorb(t)
	b.digest = digest(u.json)

	// Metrics of layers the workload bypasses read zero.
	m := make(map[string]float64)
	for _, d := range perLayer() {
		m[d.name] = 0
	}
	for _, mod := range simModules {
		m[mod+".cpu_share"] = shares[mod]
	}
	var shareSum float64
	for mod, s := range shares {
		shareSum += s
		if _, ok := m[mod+".cpu_share"]; !ok {
			b.failures = append(b.failures, fmt.Sprintf("profile charges %.4f to unlisted module %q", s, mod))
		}
	}
	ev := t.events
	var untracedEvents uint64
	for _, r := range u.recs {
		untracedEvents += r.Events
	}
	if ev.total != untracedEvents {
		b.failures = append(b.failures, fmt.Sprintf("traced pass fired %d events, untraced records say %d", ev.total, untracedEvents))
	}
	m["sim.events"] = float64(ev.total)
	if ev.total > 0 {
		m["sim.pending_mean"] = float64(ev.pendingSum) / float64(ev.total)
		m["sim.ns_per_event"] = 1e9 * u.sweep.cpuS / float64(ev.total)
	}
	for _, k := range eventKinds {
		m[k.metric] = float64(ev.kind(k.prefix))
	}
	byModule, err := ev.byModule()
	if err != nil {
		b.failures = append(b.failures, err.Error())
	}
	for _, mod := range moduleEventMetrics {
		m[mod+".events"] = float64(byModule[mod])
	}
	m["runtime.gc_cycles"] = float64(u.sweep.gcCycles)
	m["runtime.peak_heap_mb"] = u.peakHeapMB
	m["bench.prepare_s"] = b.spans.total("bench.Prepare", "")
	m["bench.warmup_s"] = b.spans.total("bench.Launch", "") + b.spans.total("bench.RunTo.warmup", "")
	m["bench.window_s"] = b.spans.total("bench.OpenWindow", "") + b.spans.total("bench.RunTo.end", "")
	m["bench.collect_s"] = b.spans.total("bench.Collect", "")
	if u.sweep.wallS > 0 {
		m["campaign.parallel_eff"] = u.sweep.cpuS / (u.sweep.wallS * float64(b.workers))
		m["trace.overhead"] = t.sweep.wallS / u.sweep.wallS
	}
	if b.w.remote {
		m["campaign.result_key_s"] = b.spans.total("campaign.ResultKey", "resweep")
		m["store.get_s"] = b.spans.total("store.Get", "resweep")
		m["store.put_s"] = b.spans.total("store.Put", "sweep")
		m["store.hit_rate"] = u.hitRate
		m["daemon.submit_s"] = b.spans.total("daemon.Submit", "sweep")
		m["daemon.results_s"] = b.spans.total("daemon.Results", "sweep")
		m["resweep_wall_s"] = u.resweepS
	}
	m["paper_err_pct"] = b.checkPaper(u)
	b.metrics = m
	b.human = map[string]float64{"cpu_share_sum": shareSum, "points": float64(len(u.recs))}
	for _, mod := range simModules {
		b.human[mod+".events"] = float64(byModule[mod])
	}
	return nil
}

// failed counts failed points: one per failure line, at most every
// attempted point.
func (b *benchRun) failed() int {
	if n := len(b.failures); n < b.attempted {
		return n
	}
	return b.attempted
}

// report prints the run's metrics by name with their units, writes the
// run record (and, traced, the span log), and prints the result object
// as the last line.
func (b *benchRun) report(trace int) error {
	defs := endToEnd
	if trace == 1 {
		defs = perLayer()
	}
	attempted := b.attempted
	if attempted < 1 {
		attempted = 1
	}
	if trace == 1 {
		b.metrics["failed_frac"] = float64(b.failed()) / float64(attempted)
	} else {
		b.human["failed_frac"] = float64(b.failed()) / float64(attempted)
	}
	fmt.Printf("workload %s seed %d trace %d\n", b.w.name, b.seed, trace)
	fmt.Printf("digest %s sha256:%s\n", b.w.name, b.digest)
	for _, f := range b.failures {
		fmt.Printf("FAIL %s\n", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = value{v, d.unit}
		fmt.Printf("metric %-28s %.6g %s\n", d.name, v, d.unit)
	}
	keys := make([]string, 0, len(b.human))
	for k := range b.human {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("info   %-28s %.6g\n", k, b.human[k])
	}
	for _, c := range b.cells {
		fmt.Printf("paper  %-22s paper %9.1f  sim %9.1f  err %6.2f%%\n", c.Cell, c.Paper, c.Sim, c.ErrPct)
	}

	record := map[string]any{
		"workload": b.w.name, "trace": trace, "env": b.env, "digest": b.digest,
		"metrics": out, "info": b.human, "paper_cells": b.cells, "failures": b.failures,
	}
	base := filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d-trace%d", b.w.name, b.seed, trace))
	if err := writeJSON(base+".json", record); err != nil {
		return err
	}
	if b.spans != nil {
		if err := writeJSON(base+"-spans.json", b.spans.sorted()); err != nil {
			return err
		}
	}

	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(b.failures) == 0, attempted, b.failed(), out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
