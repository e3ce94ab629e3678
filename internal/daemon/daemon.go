// Package daemon turns the campaign layer into a long-running sweep
// service: a crash-safe daemon that accepts sweep submissions over a
// unix-socket HTTP/JSON API, executes them through the durable result
// store, and degrades gracefully under load and shutdown.
//
// Robustness contract:
//
//   - Durability. Every accepted sweep is journaled (write-ahead,
//     fsynced) before the 202 acknowledgment; every finished experiment
//     lands in the content-addressed result store. Killing the daemon
//     at any instant loses at most the experiments in flight.
//   - Recovery. On restart the daemon replays the journal and re-runs
//     every accepted-but-incomplete sweep; points that completed before
//     the crash are served from the store, so the resumed sweep is a
//     delta run with byte-identical output.
//   - Load shedding. The work queue is bounded: a submission that
//     cannot be queued is rejected immediately with a retryable 429
//     rather than accepted and lost, and the client's backoff absorbs
//     the rejection.
//   - Graceful drain. Drain stops intake (retryable 503), lets
//     in-flight experiments finish, marks undispatched work interrupted
//     (journal left open for the next daemon), then closes the socket.
package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cdna/internal/bench"
	"cdna/internal/campaign"
	"cdna/internal/store"
)

// Config configures a daemon instance.
type Config struct {
	// Socket is the unix socket path to serve on.
	Socket string
	// StoreDir is the durable result store directory.
	StoreDir string
	// Journal is the write-ahead journal path; empty means
	// StoreDir/journal.wal.
	Journal string
	// QueueDepth bounds the number of sweeps waiting to run; <= 0 means 8.
	// A submission arriving with the queue full is shed with a 429.
	QueueDepth int
	// Workers is the default campaign worker-pool width for sweeps that
	// do not set their own; <= 0 means GOMAXPROCS.
	Workers int
	// ExpTimeout is the per-experiment watchdog deadline (campaign
	// Options.Timeout); zero disables it.
	ExpTimeout time.Duration
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)

	// testWrapExec, when non-nil, wraps the sweep executor. Tests use it
	// to gate experiment completion deterministically; it is unexported
	// so the production path cannot bypass the store-backed executor.
	testWrapExec func(func(bench.Config) bench.Outcome) func(bench.Config) bench.Outcome
}

func (c Config) journalPath() string {
	if c.Journal != "" {
		return c.Journal
	}
	return filepath.Join(c.StoreDir, "journal.wal")
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 8
}

// sweep is the daemon's in-memory record of one submitted sweep.
type sweep struct {
	id  string
	req SweepRequest

	mu       sync.Mutex
	state    string
	done     int
	failed   int
	total    int
	errMsg   string
	results  []byte          // WriteJSON bytes, set when state == done
	events   []ProgressEvent // full history, replayed to new subscribers
	subs     []chan ProgressEvent
	finished chan struct{} // closed on terminal state
	stats    campaign.CacheStats
}

func newSweep(id string, req SweepRequest) *sweep {
	return &sweep{id: id, req: req, state: StateQueued, finished: make(chan struct{})}
}

func (sw *sweep) status() SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return SweepStatus{
		ID:     sw.id,
		State:  sw.state,
		Done:   sw.done,
		Total:  sw.total,
		Failed: sw.failed,
		Cache:  sw.stats.Counts(),
		Error:  sw.errMsg,
	}
}

// publish appends an event to the history and fans it out. Subscriber
// channels are buffered for the sweep's entire event budget, so the
// runner never blocks on a slow stream reader.
func (sw *sweep) publish(ev ProgressEvent) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.events = append(sw.events, ev)
	for _, ch := range sw.subs {
		select {
		case ch <- ev:
		default: // buffer sized to hold every event; default is paranoia
		}
	}
}

// subscribe returns the event history so far plus a channel carrying
// the remainder. The channel is closed when the sweep reaches a
// terminal state.
func (sw *sweep) subscribe() ([]ProgressEvent, <-chan ProgressEvent) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	ch := make(chan ProgressEvent, sw.total+2)
	if Terminal(sw.state) {
		close(ch)
		return append([]ProgressEvent(nil), sw.events...), ch
	}
	sw.subs = append(sw.subs, ch)
	return append([]ProgressEvent(nil), sw.events...), ch
}

// finish moves the sweep to a terminal state, emits the terminal
// event, and releases subscribers and waiters.
func (sw *sweep) finish(state, errMsg string, results []byte) {
	sw.mu.Lock()
	sw.state = state
	sw.errMsg = errMsg
	sw.results = results
	ev := ProgressEvent{Done: sw.done, Total: sw.total, State: state, Error: errMsg}
	sw.events = append(sw.events, ev)
	subs := sw.subs
	sw.subs = nil
	sw.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- ev:
		default:
		}
		close(ch)
	}
	close(sw.finished)
}

// Server is the sweep daemon.
type Server struct {
	cfg Config
	st  *store.Store
	jr  *journal

	mu       sync.Mutex
	sweeps   map[string]*sweep
	draining bool
	killed   bool

	queue      chan *sweep
	cancel     chan struct{} // closed on drain/kill; wired into campaign runs
	runnerDone chan struct{}
	recovered  []*sweep

	lis  net.Listener
	http *http.Server
}

// New opens the store and journal and recovers any sweeps the previous
// daemon accepted but did not finish. Serve starts executing them.
func New(cfg Config) (*Server, error) {
	st, err := store.Open(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	jr, pending, err := openJournal(cfg.journalPath())
	if err != nil {
		return nil, err
	}
	// The queue must hold every recovered sweep plus the configured
	// depth of new intake — recovery never sheds accepted work.
	depth := cfg.queueDepth()
	if depth < len(pending) {
		depth = len(pending)
	}
	d := &Server{
		cfg:        cfg,
		st:         st,
		jr:         jr,
		sweeps:     make(map[string]*sweep),
		queue:      make(chan *sweep, depth),
		cancel:     make(chan struct{}),
		runnerDone: make(chan struct{}),
	}
	for _, rec := range pending {
		sw := newSweep(rec.ID, *rec.Req)
		d.sweeps[sw.id] = sw
		d.recovered = append(d.recovered, sw)
		d.logf("daemon: recovered sweep %s from journal", sw.id)
	}
	return d, nil
}

func (d *Server) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// Serve listens on the unix socket and runs sweeps until Drain (or
// Kill) completes. Recovered sweeps are enqueued before intake opens,
// so a restart resumes the backlog even if no client reconnects.
func (d *Server) Serve() error {
	lis, err := listenUnix(d.cfg.Socket)
	if err != nil {
		return err
	}
	d.lis = lis

	for _, sw := range d.recovered {
		d.queue <- sw // queue is sized to hold every recovered sweep
	}
	d.recovered = nil

	go d.runLoop()

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", d.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps/{id}", d.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/results", d.handleResults)
	mux.HandleFunc("GET /v1/sweeps/{id}/stream", d.handleStream)
	mux.HandleFunc("GET /v1/status", d.handleDaemonStatus)
	mux.HandleFunc("POST /v1/drain", d.handleDrain)
	d.http = &http.Server{Handler: mux}
	d.logf("daemon: serving on %s", d.cfg.Socket)
	err = d.http.Serve(lis)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// listenUnix binds path, clearing a stale socket left by a killed
// daemon (detected by a refused connection).
func listenUnix(path string) (net.Listener, error) {
	lis, err := net.Listen("unix", path)
	if err == nil {
		return lis, nil
	}
	if conn, derr := net.DialTimeout("unix", path, 250*time.Millisecond); derr == nil {
		conn.Close()
		return nil, fmt.Errorf("daemon: %s already has a live daemon", path)
	}
	if rerr := os.Remove(path); rerr != nil {
		return nil, err
	}
	return net.Listen("unix", path)
}

// runLoop executes queued sweeps one at a time (each sweep fans out
// internally across the campaign worker pool). It exits when the
// cancel channel closes and the queue has been marked.
func (d *Server) runLoop() {
	defer close(d.runnerDone)
	for {
		select {
		case <-d.cancel:
			d.interruptQueued()
			return
		case sw := <-d.queue:
			d.runSweep(sw)
		}
	}
}

// interruptQueued marks every still-queued sweep interrupted. Their
// journal entries stay open, so the next daemon resumes them.
func (d *Server) interruptQueued() {
	for {
		select {
		case sw := <-d.queue:
			sw.mu.Lock()
			sw.total = len(d.expand(sw.req))
			sw.mu.Unlock()
			sw.finish(StateInterrupted, "daemon draining before sweep started", nil)
		default:
			return
		}
	}
}

func (d *Server) expand(req SweepRequest) []bench.Config {
	cfgs := campaign.Expand(req.Grids...)
	return campaign.Apply(cfgs, req.Warmup, req.Duration)
}

func (d *Server) runSweep(sw *sweep) {
	cfgs := d.expand(sw.req)
	sw.mu.Lock()
	if d.isCanceled() {
		sw.mu.Unlock()
		sw.finish(StateInterrupted, "daemon draining before sweep started", nil)
		return
	}
	sw.state = StateRunning
	sw.total = len(cfgs)
	sw.mu.Unlock()
	d.logf("daemon: sweep %s running (%d experiments)", sw.id, len(cfgs))

	workers := sw.req.Workers
	if workers <= 0 {
		workers = d.cfg.Workers
	}
	exec := campaign.CachedExec(d.st, &sw.stats)
	if d.cfg.testWrapExec != nil {
		exec = d.cfg.testWrapExec(exec)
	}
	outs := campaign.Run(cfgs, campaign.Options{
		Workers: workers,
		Timeout: d.cfg.ExpTimeout,
		Cancel:  d.cancel,
		Exec:    exec,
		Progress: func(done, total int, out bench.Outcome) {
			sw.mu.Lock()
			sw.done = done
			if out.Err != nil {
				sw.failed++
			}
			sw.mu.Unlock()
			ev := ProgressEvent{Done: done, Total: total, Name: out.Config.Name(), Mbps: out.Result.Mbps}
			if out.Err != nil {
				ev.Error = out.Err.Error()
			}
			sw.publish(ev)
		},
	})

	if campaign.Interrupted(outs) {
		// Drained mid-sweep: completed points are in the store, the
		// journal entry stays open, the next daemon finishes the delta.
		c := sw.stats.Counts()
		d.logf("daemon: sweep %s interrupted (%d/%d done, %d hits)", sw.id, sw.done, sw.total, c.Hits)
		sw.finish(StateInterrupted, "sweep interrupted by drain", nil)
		return
	}

	var buf bytes.Buffer
	if err := campaign.WriteJSON(&buf, outs); err != nil {
		sw.finish(StateFailed, fmt.Sprintf("encoding results: %v", err), nil)
		return
	}
	if err := d.jr.done(sw.id); err != nil {
		// The sweep ran; a journal append failure only risks a redundant
		// (fully cached) re-run after restart. Log and serve the result.
		d.logf("daemon: sweep %s: journaling done: %v", sw.id, err)
	}
	c := sw.stats.Counts()
	d.logf("daemon: sweep %s done (%d experiments, %d hits, %d misses)", sw.id, sw.total, c.Hits, c.Misses)
	sw.finish(StateDone, "", buf.Bytes())
}

func (d *Server) isCanceled() bool {
	select {
	case <-d.cancel:
		return true
	default:
		return false
	}
}

// Drain begins graceful shutdown: intake closes (503), dispatch stops,
// in-flight experiments finish, queued sweeps are marked interrupted
// with their journal entries open, then the listener shuts down. It
// blocks until the daemon is fully stopped.
func (d *Server) Drain() error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		<-d.runnerDone
		return nil
	}
	d.draining = true
	close(d.cancel)
	d.mu.Unlock()
	d.logf("daemon: draining")

	<-d.runnerDone
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var err error
	if d.http != nil {
		err = d.http.Shutdown(ctx)
	}
	d.jr.close()
	d.logf("daemon: stopped")
	return err
}

// Kill emulates a hard crash for recovery tests: the listener and
// journal are slammed shut with no drain, no journal marks, and no
// waiting for in-flight work. State on disk is exactly what a SIGKILL
// would leave.
func (d *Server) Kill() {
	d.mu.Lock()
	if d.killed {
		d.mu.Unlock()
		return
	}
	d.killed = true
	d.draining = true
	select {
	case <-d.cancel:
	default:
		close(d.cancel)
	}
	d.mu.Unlock()
	if d.http != nil {
		d.http.Close()
	}
	d.jr.close()
}

// --- HTTP handlers ---

func (d *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, fmt.Sprintf("decoding sweep request: %v", err), false)
		return
	}
	if len(req.Grids) == 0 {
		writeErr(w, http.StatusBadRequest, "sweep request has no grids", false)
		return
	}
	points := 0
	for _, g := range req.Grids {
		points += min(g.Size(), MaxSweepPoints+1)
	}
	if points > MaxSweepPoints {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("sweep request spans more than %d points", MaxSweepPoints), false)
		return
	}
	id, err := req.ID()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error(), false)
		return
	}

	d.mu.Lock()
	if sw, ok := d.sweeps[id]; ok {
		// Same content, same sweep: re-attach. An interrupted sweep is
		// re-enqueued (completed points come from the store).
		sw.mu.Lock()
		resumable := sw.state == StateInterrupted && !d.draining
		if resumable {
			fresh := newSweep(id, req)
			d.sweeps[id] = fresh
			sw = fresh
		}
		state := sw.state
		sw.mu.Unlock()
		if resumable {
			select {
			case d.queue <- sw:
				d.mu.Unlock()
				writeJSON(w, http.StatusAccepted, SubmitResponse{ID: id, State: StateQueued})
				return
			default:
				delete(d.sweeps, id)
				d.mu.Unlock()
				writeErr(w, http.StatusTooManyRequests, "work queue full", true)
				return
			}
		}
		d.mu.Unlock()
		writeJSON(w, http.StatusAccepted, SubmitResponse{ID: id, State: state})
		return
	}
	if d.draining {
		d.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "daemon draining", true)
		return
	}
	sw := newSweep(id, req)
	select {
	case d.queue <- sw:
	default:
		d.mu.Unlock()
		writeErr(w, http.StatusTooManyRequests, "work queue full", true)
		return
	}
	// Journal before acknowledging: once the client sees 202, the sweep
	// survives any crash.
	if err := d.jr.accept(id, req); err != nil {
		d.mu.Unlock()
		writeErr(w, http.StatusInternalServerError, err.Error(), true)
		return
	}
	d.sweeps[id] = sw
	d.mu.Unlock()
	d.logf("daemon: accepted sweep %s", id)
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: id, State: StateQueued})
}

func (d *Server) lookup(id string) *sweep {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sweeps[id]
}

func (d *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sw := d.lookup(r.PathValue("id"))
	if sw == nil {
		writeErr(w, http.StatusNotFound, "unknown sweep", false)
		return
	}
	writeJSON(w, http.StatusOK, sw.status())
}

func (d *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	sw := d.lookup(r.PathValue("id"))
	if sw == nil {
		writeErr(w, http.StatusNotFound, "unknown sweep", false)
		return
	}
	sw.mu.Lock()
	state, results := sw.state, sw.results
	sw.mu.Unlock()
	if state != StateDone {
		writeErr(w, http.StatusConflict, fmt.Sprintf("sweep is %s, not done", state), state == StateQueued || state == StateRunning)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(results)
}

func (d *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sw := d.lookup(r.PathValue("id"))
	if sw == nil {
		writeErr(w, http.StatusNotFound, "unknown sweep", false)
		return
	}
	history, ch := sw.subscribe()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for _, ev := range history {
		if err := enc.Encode(ev); err != nil {
			return
		}
	}
	if flusher != nil {
		flusher.Flush()
	}
	for ev := range ch {
		if err := enc.Encode(ev); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (d *Server) handleDaemonStatus(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	state := "serving"
	if d.draining {
		state = "draining"
	}
	status := DaemonStatus{
		State:    state,
		Queued:   len(d.queue),
		QueueCap: cap(d.queue),
		Sweeps:   len(d.sweeps),
		Store:    d.st.Stats(),
	}
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, status)
}

func (d *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusAccepted, map[string]string{"state": "draining"})
	go d.Drain()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string, retryable bool) {
	writeJSON(w, code, apiError{Error: msg, Retryable: retryable})
}
