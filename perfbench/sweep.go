package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"cdna/internal/bench"
	"cdna/internal/campaign"
	"cdna/internal/daemon"
	"cdna/internal/store"
	"cdna/internal/topo"
	"cdna/internal/workload"
)

// workloadDef is one benchmark workload: a preset grid of the campaign
// layer, run either locally through campaign.Run or remotely through
// the sweep daemon with a store-served resweep.
type workloadDef struct {
	name   string
	grids  func() []campaign.Grid
	quick  bool // quick measurement windows (cdnasweep -quick); else the grid's own
	remote bool // submit to an in-process daemon, then resweep from its store
	paper  bool // compare with the paper's reference cells
}

var workloadDefs = []workloadDef{
	{name: "paper_sweep", grids: campaign.PaperGrids, quick: true, paper: true},
	{name: "fabric_openloop", grids: campaign.OpenLoopGrids},
	{name: "fault_resweep", grids: campaign.FaultGrids, quick: true, remote: true},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// pointTimeout is the per-experiment watchdog: a wedged point fails
// alone instead of hanging the run.
const pointTimeout = 90 * time.Second

// seedValue turns the benchmark's --seed into the simulator's RNG seed
// (splitmix64, never zero: zero selects the simulator's default).
func seedValue(seed int64) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// plantSeed sets the seed on every workload and fabric spec of the
// grids; an empty axis gets one default spec carrying the seed.
func plantSeed(grids []campaign.Grid, seed uint64) []campaign.Grid {
	out := make([]campaign.Grid, len(grids))
	for i, g := range grids {
		wls := append([]workload.Spec(nil), g.Workloads...)
		if len(wls) == 0 {
			wls = []workload.Spec{{}}
		}
		for j := range wls {
			wls[j].Seed = seed
		}
		fabs := append([]topo.FabricSpec(nil), g.Fabrics...)
		if len(fabs) == 0 {
			fabs = []topo.FabricSpec{{}}
		}
		for j := range fabs {
			fabs[j].Seed = seed
		}
		g.Workloads, g.Fabrics = wls, fabs
		out[i] = g
	}
	return out
}

// request is the sweep as submitted: the seeded preset, at quick
// measurement windows or at the preset's own.
func (w workloadDef) request(seed int64, workers int) daemon.SweepRequest {
	req := daemon.SweepRequest{Grids: plantSeed(w.grids(), seedValue(seed)), Workers: workers}
	if w.quick {
		q := bench.Quick()
		req.Warmup, req.Duration = q.Warmup, q.Duration
	}
	return req
}

// configs expands the request exactly as the daemon does.
func configs(req daemon.SweepRequest) []bench.Config {
	return campaign.Apply(campaign.Expand(req.Grids...), req.Warmup, req.Duration)
}

// meter samples process-wide cost over an interval: wall time,
// user+system CPU (getrusage), heap bytes allocated and GC cycles.
type meter struct {
	wall  time.Time
	cpu   float64
	alloc uint64
	gcs   uint32
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{wall: time.Now(), cpu: cpuSeconds(), alloc: ms.TotalAlloc, gcs: ms.NumGC}
}

// cost is what a meter measured.
type cost struct {
	wallS, cpuS, allocMB float64
	gcCycles             uint32
}

func (m meter) stop() cost {
	wall := time.Since(m.wall).Seconds()
	cpu := cpuSeconds() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return cost{wallS: wall, cpuS: cpu, allocMB: float64(ms.TotalAlloc-m.alloc) / 1e6, gcCycles: ms.NumGC - m.gcs}
}

// heapSampler tracks the peak live-heap size while it runs, reading the
// runtime/metrics counter (no stop-the-world) every few milliseconds.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak heap in MB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	return float64(h.peak) / 1e6
}

// sweepRun is one measured pass of a workload.
type sweepRun struct {
	setupS     float64
	sweep      cost
	resweepS   float64 // remote workloads: the store-served resubmission
	peakHeapMB float64
	json       []byte // canonical result records of the cold sweep
	recs       []campaign.Record
	attempted  int
	failures   []string // one line per failed point or check
	events     *eventCounts
	hitRate    float64 // remote workloads: the resweep's store hit rate
}

func (r *sweepRun) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// finish decodes the cold sweep's records and counts failed points.
func (r *sweepRun) finish() {
	recs, err := campaign.ReadJSON(bytes.NewReader(r.json))
	if err != nil {
		r.failf("decoding results: %v", err)
		return
	}
	r.recs = recs
	for _, rec := range recs {
		if rec.Failed() {
			r.failf("point %s: %s", rec.Name, rec.Error)
		}
	}
}

// pointRecords returns each record's canonical JSON, for point-by-point
// comparison of two passes.
func pointRecords(recs []campaign.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			out[i] = "unencodable: " + err.Error()
			continue
		}
		out[i] = string(b)
	}
	return out
}

// compareRecords marks every point whose record differs between two
// passes of the same sweep.
func compareRecords(r *sweepRun, what string, want, got []campaign.Record) {
	if len(want) != len(got) {
		r.failf("%s: %d records, want %d", what, len(got), len(want))
		return
	}
	a, b := pointRecords(want), pointRecords(got)
	for i := range a {
		if a[i] != b[i] {
			r.failf("%s: point %s differs", what, want[i].Name)
		}
	}
}

// setUp builds every point's machine once and drops it: the model
// construction cost set-up measures. The sweep builds its own machines
// in the workers, as campaign.Run does for every user, so the live heap
// holds only the machines being run.
func setUp(cfgs []bench.Config) {
	for _, cfg := range cfgs {
		func() {
			// A point whose build fails or panics is reported by the
			// sweep, which builds it again.
			defer func() { _ = recover() }()
			_, _ = bench.Prepare(cfg)
		}()
	}
}

// indexOf numbers the points, for span identifiers.
func indexOf(cfgs []bench.Config) map[bench.Config]int {
	index := make(map[bench.Config]int, len(cfgs))
	for i, cfg := range cfgs {
		index[cfg] = i
	}
	return index
}

// tracedRun is bench.RunCaptured with a span around each phase of the
// canonical lifecycle (bench.Run's) and the engine stepped one event at
// a time; counts receives the fired events.
func tracedRun(cfg bench.Config, point int, spans *spanLog, counts func(*eventCounts)) (out bench.Outcome) {
	out.Config = cfg
	defer func() {
		if r := recover(); r != nil {
			out.Err = fmt.Errorf("bench: experiment %s panicked: %v", cfg.Name(), r)
		}
	}()
	var m *bench.Machine
	var err error
	spans.time("bench.Prepare", "sweep", point, func() { m, err = bench.Prepare(cfg) })
	if err != nil {
		out.Err = err
		return out
	}
	if m.Shards() != 1 {
		out.Err = fmt.Errorf("point %s: per-event tracing needs one engine, machine has %d", cfg.Name(), m.Shards())
		return out
	}
	warmup, end := m.Config().Warmup, m.Config().Warmup+m.Config().Duration
	c := newEventCounts()
	tr := m.Eng.Attach(traceBatch)
	spans.time("bench.Launch", "sweep", point, m.Launch)
	spans.time("bench.RunTo.warmup", "sweep", point, func() { tracedRunTo(m, tr, warmup, c) })
	spans.time("bench.OpenWindow", "sweep", point, m.OpenWindow)
	spans.time("bench.RunTo.end", "sweep", point, func() { tracedRunTo(m, tr, end, c) })
	spans.time("bench.Collect", "sweep", point, func() { out.Result = m.Collect() })
	m.Eng.Detach()
	if c.total != m.TotalFired() {
		out.Err = fmt.Errorf("point %s: traced %d events, engine fired %d", cfg.Name(), c.total, m.TotalFired())
		return out
	}
	if _, err := c.byModule(); err != nil {
		out.Err = fmt.Errorf("point %s: %w", cfg.Name(), err)
		return out
	}
	counts(c)
	return out
}

// eventSink merges per-point event counts from concurrent workers.
type eventSink struct {
	mu sync.Mutex
	c  *eventCounts
}

func (s *eventSink) add(c *eventCounts) {
	s.mu.Lock()
	s.c.merge(c)
	s.mu.Unlock()
}

// runLocal is one cold local sweep: set-up, then campaign.Run over a
// worker pool with the default executor (bench.RunCaptured). A non-nil
// span log swaps in the traced executor.
func runLocal(req daemon.SweepRequest, workers int, spans *spanLog) *sweepRun {
	r := &sweepRun{}
	setup := time.Now()
	cfgs := configs(req)
	setUp(cfgs)
	r.setupS = time.Since(setup).Seconds()
	r.attempted = len(cfgs)

	sink := &eventSink{c: newEventCounts()}
	opt := campaign.Options{Workers: workers, Timeout: pointTimeout}
	if spans != nil {
		index := indexOf(cfgs)
		opt.Exec = func(cfg bench.Config) bench.Outcome {
			return tracedRun(cfg, index[cfg], spans, sink.add)
		}
	}
	heap := startHeapSampler()
	m := startMeter()
	outs := campaign.Run(cfgs, opt)
	r.sweep = m.stop()
	r.peakHeapMB = heap.stop()
	r.events = sink.c
	var buf bytes.Buffer
	if err := campaign.WriteJSON(&buf, outs); err != nil {
		r.failf("encoding results: %v", err)
		return r
	}
	r.json = buf.Bytes()
	r.finish()
	return r
}

// runCachedTraced is the traced counterpart of the daemon's executor
// (campaign.CachedExec): every point goes through ResultKey and
// store.Get, misses run traced and store.Put the result. Run against an empty store it is the cold sweep; run again
// it is the all-hit resweep, which must serve every point.
func runCachedTraced(req daemon.SweepRequest, workers int, st *store.Store, spans *spanLog, warm bool) *sweepRun {
	r := &sweepRun{}
	setup := time.Now()
	cfgs := configs(req)
	if !warm {
		setUp(cfgs)
	}
	r.setupS = time.Since(setup).Seconds()
	r.attempted = len(cfgs)

	sink := &eventSink{c: newEventCounts()}
	parent := "sweep"
	if warm {
		parent = "resweep"
	}
	index := indexOf(cfgs)
	exec := func(cfg bench.Config) bench.Outcome {
		i := index[cfg]
		var key string
		var err error
		spans.time("campaign.ResultKey", parent, i, func() { key, err = campaign.ResultKey(cfg) })
		if err != nil {
			return bench.Outcome{Config: cfg, Err: err}
		}
		var b []byte
		var ok bool
		spans.time("store.Get", parent, i, func() { b, ok = st.Get(key) })
		if ok {
			var res bench.Result
			if err := json.Unmarshal(b, &res); err != nil {
				return bench.Outcome{Config: cfg, Err: fmt.Errorf("stored result: %w", err)}
			}
			return bench.Outcome{Config: cfg, Result: res}
		}
		if warm {
			return bench.Outcome{Config: cfg, Err: fmt.Errorf("point %s missed the store on resweep", cfg.Name())}
		}
		out := tracedRun(cfg, i, spans, sink.add)
		if out.Err == nil {
			b, err := json.Marshal(out.Result)
			if err == nil {
				spans.time("store.Put", parent, i, func() { err = st.Put(key, b) })
			}
			if err != nil {
				out.Err = fmt.Errorf("storing %s: %w", cfg.Name(), err)
			}
		}
		return out
	}
	m := startMeter()
	outs := campaign.Run(cfgs, campaign.Options{Workers: workers, Timeout: pointTimeout, Exec: exec})
	r.sweep = m.stop()
	r.events = sink.c
	var buf bytes.Buffer
	if err := campaign.WriteJSON(&buf, outs); err != nil {
		r.failf("encoding results: %v", err)
		return r
	}
	r.json = buf.Bytes()
	r.finish()
	return r
}

// daemonHandle is an in-process sweep daemon serving on a unix socket.
type daemonHandle struct {
	srv    *daemon.Server
	served chan error
}

// startDaemon opens the store and journal, starts serving, and waits
// until the socket answers.
func startDaemon(dir string, workers int, c *daemon.Client) (*daemonHandle, error) {
	srv, err := daemon.New(daemon.Config{
		Socket:     filepath.Join(dir, "d.sock"),
		StoreDir:   filepath.Join(dir, "store"),
		Workers:    workers,
		ExpTimeout: pointTimeout,
	})
	if err != nil {
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	h := &daemonHandle{srv: srv, served: make(chan error, 1)}
	go func() { h.served <- srv.Serve() }()
	// Wait for the socket to be bound rather than let the client's
	// first call fail into its jittered backoff, which would add up to
	// a backoff step of noise to the set-up time.
	sock := filepath.Join(dir, "d.sock")
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
		if _, err := os.Stat(sock); err == nil {
			break
		}
	}
	if _, err := c.DaemonStatus(); err != nil {
		h.srv.Kill()
		<-h.served
		return nil, fmt.Errorf("daemon did not come up: %w", err)
	}
	return h, nil
}

// drain stops the daemon gracefully and waits for it to exit.
func (h *daemonHandle) drain() error {
	err := h.srv.Drain()
	if serr := <-h.served; err == nil {
		err = serr
	}
	return err
}

// submit runs one sweep through the client: Submit, follow the
// progress Stream to its end, then fetch the Results.
func submit(c *daemon.Client, req daemon.SweepRequest, spans *spanLog, parent string) ([]byte, daemon.SweepStatus, error) {
	var ack daemon.SubmitResponse
	var err error
	spans.time("daemon.Submit", parent, -1, func() { ack, err = c.Submit(req) })
	if err != nil {
		return nil, daemon.SweepStatus{}, err
	}
	spans.time("daemon.Stream", parent, -1, func() { err = c.Stream(ack.ID, nil) })
	if err != nil {
		return nil, daemon.SweepStatus{}, err
	}
	st, err := c.Status(ack.ID)
	if err != nil {
		return nil, st, err
	}
	if st.State != daemon.StateDone {
		return nil, st, fmt.Errorf("sweep %s ended %s: %s", ack.ID, st.State, st.Error)
	}
	var b []byte
	spans.time("daemon.Results", parent, -1, func() { b, err = c.Results(ack.ID) })
	return b, st, err
}

// runRemote is the daemon workload: a cold sweep into a fresh store
// (journal and store.Put with fsync), then a drain, a restart on the
// same store and a resubmission that every point must be served from
// the store, byte-identical to the cold JSON.
func runRemote(req daemon.SweepRequest, workers int, tmp string, spans *spanLog) (r *sweepRun) {
	r = &sweepRun{}
	dir, err := os.MkdirTemp(tmp, "daemon-")
	if err != nil {
		r.failf("%v", err)
		return r
	}
	defer os.RemoveAll(dir)
	c := daemon.NewClient(filepath.Join(dir, "d.sock"))

	setup := time.Now()
	cfgs := configs(req)
	setUp(cfgs)
	h, err := startDaemon(dir, workers, c)
	r.setupS = time.Since(setup).Seconds()
	r.attempted = 2 * len(cfgs)
	if err != nil {
		r.failf("%v", err)
		return r
	}

	heap := startHeapSampler()
	m := startMeter()
	cold, st, err := submit(c, req, spans, "sweep")
	r.sweep = m.stop()
	r.peakHeapMB = heap.stop()
	if err != nil {
		r.failf("cold sweep: %v", err)
		_ = h.drain()
		return r
	}
	if st.Failed > 0 {
		r.failf("cold sweep: %d points failed", st.Failed)
	}
	r.json = cold
	r.finish()
	if err := h.drain(); err != nil {
		r.failf("draining daemon: %v", err)
	}

	if h, err = startDaemon(dir, workers, c); err != nil {
		r.failf("restart: %v", err)
		return r
	}
	defer func() {
		if err := h.drain(); err != nil {
			r.failf("draining restarted daemon: %v", err)
		}
	}()
	start := time.Now()
	warm, st, err := submit(c, req, spans, "resweep")
	r.resweepS = time.Since(start).Seconds()
	if err != nil {
		r.failf("resweep: %v", err)
		return r
	}
	r.hitRate = st.Cache.HitRate()
	if st.Cache.Hits != uint64(len(cfgs)) {
		r.failf("resweep: %d of %d points served from the store", st.Cache.Hits, len(cfgs))
	}
	if !bytes.Equal(warm, cold) {
		warmRecs, err := campaign.ReadJSON(bytes.NewReader(warm))
		if err != nil {
			r.failf("resweep: decoding results: %v", err)
		} else {
			compareRecords(r, "store-served resweep", r.recs, warmRecs)
		}
		if len(r.failures) == 0 {
			r.failf("resweep: JSON not byte-identical to the cold sweep")
		}
	}
	return r
}
