package daemon

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cdna/internal/bench"
	"cdna/internal/campaign"
	"cdna/internal/sim"
)

// shortDir returns a temp dir with a short absolute path. Unix socket
// paths are limited to ~108 bytes, so t.TempDir() (which embeds the
// full test name) is unusable here.
func shortDir(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "cdnad")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

// startDaemon builds and serves a daemon; the returned stop function
// drains it (ignored if the test already stopped it another way).
func startDaemon(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- d.Serve() }()
	t.Cleanup(func() {
		d.Kill()
		select {
		case err := <-serveErr:
			if err != nil {
				t.Errorf("Serve: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("Serve did not return after shutdown")
		}
	})
	c := NewClient(cfg.Socket)
	c.Backoff = Backoff{Base: 5 * time.Millisecond, Max: 250 * time.Millisecond, Attempts: 40}
	c.Logf = t.Logf
	return d, c
}

func testConfig(dir string) Config {
	return Config{
		Socket:   filepath.Join(dir, "d.sock"),
		StoreDir: filepath.Join(dir, "st"),
		Workers:  2,
	}
}

// tinyModesReq is a fast real-simulation sweep: modes x {tx, rx} at
// very short measurement windows.
func tinyModesReq(modes ...bench.Mode) SweepRequest {
	return SweepRequest{
		Grids: []campaign.Grid{{
			Modes: modes,
			Dirs:  []bench.Direction{bench.Tx, bench.Rx},
		}},
		Warmup:   20 * sim.Millisecond,
		Duration: 50 * sim.Millisecond,
		Workers:  2,
	}
}

// localReference runs the request locally (no daemon, no cache) and
// returns the JSON bytes a local cdnasweep run would write.
func localReference(t *testing.T, req SweepRequest) []byte {
	t.Helper()
	cfgs := campaign.Apply(campaign.Expand(req.Grids...), req.Warmup, req.Duration)
	outs := campaign.Run(cfgs, campaign.Options{Workers: req.Workers})
	var buf bytes.Buffer
	if err := campaign.WriteJSON(&buf, outs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDaemonEndToEnd: a remote sweep's result bytes equal a local
// run's, and the overlapping second sweep re-runs only the delta —
// verified through the status API's hit/miss counters.
func TestDaemonEndToEnd(t *testing.T) {
	dir := shortDir(t)
	_, c := startDaemon(t, testConfig(dir))

	first := tinyModesReq(bench.ModeXen) // 2 points
	var events int
	got, err := c.RunSweep(first, func(ev ProgressEvent) { events++ })
	if err != nil {
		t.Fatal(err)
	}
	if want := localReference(t, first); !bytes.Equal(got, want) {
		t.Fatal("remote sweep JSON differs from local run")
	}
	if events == 0 {
		t.Fatal("progress stream delivered no events")
	}

	// Overlapping sweep: shares the 2 xen points, adds 2 cdna points.
	second := tinyModesReq(bench.ModeXen, bench.ModeCDNA) // 4 points
	got2, err := c.RunSweep(second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := localReference(t, second); !bytes.Equal(got2, want) {
		t.Fatal("overlapping remote sweep JSON differs from local run")
	}
	id, err := second.ID()
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Done != 4 || st.Failed != 0 {
		t.Fatalf("status = %+v; want done 4/4", st)
	}
	if st.Cache.Hits != 2 || st.Cache.Misses != 2 {
		t.Fatalf("overlap cache counts = %+v; want 2 hits / 2 misses", st.Cache)
	}

	ds, err := c.DaemonStatus()
	if err != nil {
		t.Fatal(err)
	}
	if ds.State != "serving" || ds.Sweeps != 2 {
		t.Fatalf("daemon status = %+v; want serving with 2 sweeps", ds)
	}
	if ds.Store.Puts != 4 {
		t.Fatalf("store puts = %d; want 4 (2 xen + 2 cdna)", ds.Store.Puts)
	}
}

// TestSubmitIsIdempotent: the same request content maps to the same
// sweep — a client retry or double submit re-attaches, never duplicates.
func TestSubmitIsIdempotent(t *testing.T) {
	dir := shortDir(t)
	d, c := startDaemon(t, testConfig(dir))

	req := tinyModesReq(bench.ModeCDNA)
	a1, err := c.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if a1.ID != a2.ID {
		t.Fatalf("same content got two sweeps: %s vs %s", a1.ID, a2.ID)
	}
	d.mu.Lock()
	n := len(d.sweeps)
	d.mu.Unlock()
	if n != 1 {
		t.Fatalf("daemon holds %d sweeps; want 1", n)
	}
	if _, err := c.RunSweep(req, nil); err != nil {
		t.Fatal(err)
	}
}

// gate returns a testWrapExec that blocks every experiment until
// release is closed, after signaling entry on entered.
func gate(entered chan<- struct{}, release <-chan struct{}) func(func(bench.Config) bench.Outcome) func(bench.Config) bench.Outcome {
	return func(exec func(bench.Config) bench.Outcome) func(bench.Config) bench.Outcome {
		return func(cfg bench.Config) bench.Outcome {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
			return exec(cfg)
		}
	}
}

// submitRaw posts a request without any retry and returns the HTTP
// status plus the decoded error envelope (if any).
func submitRaw(t *testing.T, c *Client, req SweepRequest) (int, apiError) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, c, b)
}

// postRaw posts body verbatim to the submit endpoint.
func postRaw(t *testing.T, c *Client, body []byte) (int, apiError) {
	t.Helper()
	resp, err := c.hc.Post("http://daemon/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ae apiError
	json.NewDecoder(resp.Body).Decode(&ae)
	return resp.StatusCode, ae
}

// TestSubmitInputBounds: an oversized body gets 413 and a grid whose
// axis product passes MaxSweepPoints gets 400, both before anything is
// queued; a request inside both bounds is accepted.
func TestSubmitInputBounds(t *testing.T) {
	dir := shortDir(t)
	d, c := startDaemon(t, testConfig(dir))

	small, err := json.Marshal(distinctReqs(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	padded := append(bytes.Repeat([]byte(" "), MaxRequestBytes), small...)
	if code, _ := postRaw(t, c, padded); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body got %d; want 413", code)
	}

	huge := distinctReqs(1)[0]
	huge.Grids[0].Guests = make([]int, 101)    // 101 x 100 axis product:
	huge.Grids[0].NICCounts = make([]int, 100) // past the cap, never expanded
	if code, ae := submitRaw(t, c, huge); code != http.StatusBadRequest || ae.Retryable {
		t.Fatalf("%d-point grid got %d (retryable %v); want a final 400", huge.Grids[0].Size(), code, ae.Retryable)
	}

	d.mu.Lock()
	n := len(d.sweeps)
	d.mu.Unlock()
	if n != 0 {
		t.Fatalf("daemon holds %d sweeps after rejected submissions; want 0", n)
	}
	if code, _ := postRaw(t, c, small); code != http.StatusAccepted {
		t.Fatalf("in-bounds request got %d; want 202", code)
	}
}

// TestSubmitRejectsInvalidGrids: a grid field the schema does not
// define, such as "shards", and a negative count, window or time are
// request errors — a final 400 before anything is queued — rather than
// a sweep that silently runs defaults.
func TestSubmitRejectsInvalidGrids(t *testing.T) {
	dir := shortDir(t)
	d, c := startDaemon(t, testConfig(dir))
	if _, err := c.DaemonStatus(); err != nil { // waits out the daemon's startup
		t.Fatal(err)
	}

	body := []byte(`{"grids":[{"modes":["cdna"],"hosts":[4],"shards":[2]}],"duration_ns":50000000}`)
	if code, ae := postRaw(t, c, body); code != http.StatusBadRequest || ae.Retryable {
		t.Fatalf("grid with a shards axis got %d (retryable %v); want a final 400", code, ae.Retryable)
	}
	for name, mutate := range map[string]func(*SweepRequest){
		"hosts":    func(r *SweepRequest) { r.Grids[0].Hosts = []int{-3} },
		"window":   func(r *SweepRequest) { r.Grids[0].Window = -3 },
		"conns":    func(r *SweepRequest) { r.Grids[0].Conns = -2 },
		"duration": func(r *SweepRequest) { r.Duration = -1 },
		"fault-at": func(r *SweepRequest) {
			r.Grids[0].Faults = []bench.FaultSpec{{Kind: bench.FaultLinkFlap, After: -1}}
		},
	} {
		req := distinctReqs(1)[0]
		mutate(&req)
		if code, ae := submitRaw(t, c, req); code != http.StatusBadRequest || ae.Retryable {
			t.Errorf("negative %s got %d (retryable %v); want a final 400", name, code, ae.Retryable)
		}
	}

	d.mu.Lock()
	n := len(d.sweeps)
	d.mu.Unlock()
	if n != 0 {
		t.Fatalf("daemon holds %d sweeps after rejected submissions; want 0", n)
	}
}

// distinctReqs returns n sweep requests with distinct content (distinct
// guest counts), each a single experiment.
func distinctReqs(n int) []SweepRequest {
	reqs := make([]SweepRequest, n)
	for i := range reqs {
		reqs[i] = SweepRequest{
			Grids: []campaign.Grid{{
				Modes:  []bench.Mode{bench.ModeCDNA},
				Dirs:   []bench.Direction{bench.Tx},
				Guests: []int{i + 1},
			}},
			Warmup:   20 * sim.Millisecond,
			Duration: 50 * sim.Millisecond,
			Workers:  1,
		}
	}
	return reqs
}

// TestQueueFullShedsLoad: with the runner wedged and the queue full, a
// new submission is rejected with a retryable 429 — and a client under
// backoff absorbs the rejection and completes once capacity returns.
func TestQueueFullShedsLoad(t *testing.T) {
	dir := shortDir(t)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	cfg := testConfig(dir)
	cfg.QueueDepth = 1
	cfg.testWrapExec = gate(entered, release)
	_, c := startDaemon(t, cfg)

	reqs := distinctReqs(3)
	if _, err := c.Submit(reqs[0]); err != nil { // runner takes it, then blocks
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("first sweep never started")
	}
	if _, err := c.Submit(reqs[1]); err != nil { // fills the single queue slot
		t.Fatal(err)
	}

	code, ae := submitRaw(t, c, reqs[2])
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit got %d; want 429", code)
	}
	if !ae.Retryable {
		t.Fatal("429 rejection not marked retryable")
	}

	// The client's backoff rides out the full queue: release the gate
	// and the shed sweep completes end to end.
	close(release)
	if _, err := c.RunSweep(reqs[2], nil); err != nil {
		t.Fatalf("backoff did not absorb queue-full rejection: %v", err)
	}
}

// TestGracefulDrain: drain stops intake with a retryable 503, lets the
// in-flight experiment finish, marks undispatched work interrupted
// (journal left open), and shuts the daemon down cleanly.
func TestGracefulDrain(t *testing.T) {
	dir := shortDir(t)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	cfg := testConfig(dir)
	cfg.testWrapExec = gate(entered, release)
	d, c := startDaemon(t, cfg)

	req := tinyModesReq(bench.ModeXen, bench.ModeCDNA) // 4 points
	req.Workers = 1
	ack, err := c.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("sweep never started")
	}

	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	// Intake is closed: a new submission is shed with a retryable 503.
	code, ae := submitRaw(t, c, distinctReqs(1)[0])
	if code != http.StatusServiceUnavailable || !ae.Retryable {
		t.Fatalf("submit while draining got %d retryable=%v; want retryable 503", code, ae.Retryable)
	}

	release <- struct{}{} // let the in-flight experiment finish
	close(release)

	deadline := time.After(15 * time.Second)
	for {
		sw := d.lookup(ack.ID)
		sw.mu.Lock()
		state, done := sw.state, sw.done
		sw.mu.Unlock()
		if Terminal(state) {
			if state != StateInterrupted {
				t.Fatalf("drained sweep state = %s; want interrupted", state)
			}
			if done < 1 || done >= 4 {
				t.Fatalf("drained sweep finished %d of 4 experiments; want the in-flight one only", done)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatalf("sweep never reached a terminal state (state %s)", state)
		case <-time.After(5 * time.Millisecond):
		}
	}

	// The journal entry is still open, so the next daemon resumes it.
	_, pending, err := openJournal(cfg.journalPath())
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].ID != ack.ID {
		t.Fatalf("journal pending = %+v; want the drained sweep", pending)
	}
}
