package daemon

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"cdna/internal/campaign"
	"cdna/internal/sim"
	"cdna/internal/store"
)

// The HTTP/JSON API, served over a unix socket:
//
//	POST /v1/sweeps            submit a SweepRequest; 202 SubmitResponse,
//	                           400 for a malformed request or one whose
//	                           grids span more than MaxSweepPoints,
//	                           413 for a body over MaxRequestBytes,
//	                           429 when the queue is full (retryable),
//	                           503 while draining (retryable)
//	GET  /v1/sweeps/{id}       SweepStatus
//	GET  /v1/sweeps/{id}/results
//	                           the sweep's result records, byte-identical
//	                           to a local cdnasweep run's JSON output;
//	                           409 until the sweep is done
//	GET  /v1/sweeps/{id}/stream
//	                           newline-delimited ProgressEvents, replayed
//	                           from the start and ending with a terminal
//	                           event carrying the sweep state
//	GET  /v1/status            DaemonStatus
//	POST /v1/drain             begin graceful shutdown; 202 immediately
//
// Submission is idempotent by content: a request's ID is the hash of
// its canonical JSON, so a client that retries after a timeout, a 429,
// or a daemon restart re-attaches to the same sweep instead of
// enqueueing a duplicate.

// Input bounds. A request body is read only up to MaxRequestBytes, and
// a request whose grids' axis products sum past MaxSweepPoints is
// refused before any grid is expanded, so one POST cannot exhaust the
// daemon's memory. The canned presets span at most a few hundred points.
const (
	MaxRequestBytes = 1 << 20
	MaxSweepPoints  = 10000
)

// SweepRequest is a sweep submission: the same grid schema
// cmd/cdnasweep -spec reads, plus execution knobs.
type SweepRequest struct {
	Grids []campaign.Grid `json:"grids"`
	// Warmup/Duration override every point's measurement windows
	// (0 keeps each grid's own values), exactly like campaign.Apply.
	Warmup   sim.Time `json:"warmup_ns,omitempty"`
	Duration sim.Time `json:"duration_ns,omitempty"`
	// Workers is the campaign worker-pool width; <= 0 means GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
}

// ID returns the request's content hash: 16 hex bytes over the
// canonical JSON encoding.
func (r SweepRequest) ID() (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("daemon: hashing request: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// Sweep states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	// StateInterrupted marks a sweep cut short by a drain or crash: its
	// journal entry is still open, so the next daemon start resumes it
	// (completed points served from the store).
	StateInterrupted = "interrupted"
	StateFailed      = "failed"
)

// Terminal reports whether a sweep state is final for this daemon
// process (an interrupted sweep is terminal here, resumed by the next).
func Terminal(state string) bool {
	return state == StateDone || state == StateInterrupted || state == StateFailed
}

// SubmitResponse acknowledges a submission.
type SubmitResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// SweepStatus is one sweep's progress snapshot. Done counts finished
// experiments (cache hits included); Failed counts finished experiments
// whose outcome is an error.
type SweepStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	Failed int    `json:"failed"`
	// Cache is the sweep's own hit/miss ledger — the counters the
	// overlapping-sweep acceptance test reads.
	Cache campaign.CacheCounts `json:"cache"`
	Error string               `json:"error,omitempty"`
}

// DaemonStatus is the daemon-wide snapshot.
type DaemonStatus struct {
	State    string      `json:"state"` // serving | draining
	Queued   int         `json:"queued"`
	QueueCap int         `json:"queue_cap"`
	Sweeps   int         `json:"sweeps"`
	Store    store.Stats `json:"store"`
}

// ProgressEvent is one line of a sweep's progress stream. Ordinary
// events carry a finished experiment; the final event has State set to
// the sweep's terminal state and no experiment fields.
type ProgressEvent struct {
	Done  int     `json:"done"`
	Total int     `json:"total"`
	Name  string  `json:"name,omitempty"`
	Mbps  float64 `json:"mbps,omitempty"`
	Error string  `json:"error,omitempty"`
	State string  `json:"state,omitempty"`
}

// apiError is the JSON error envelope; Retryable tells a client the
// condition is transient (queue full, draining).
type apiError struct {
	Error     string `json:"error"`
	Retryable bool   `json:"retryable,omitempty"`
}
