package campaign

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"cdna/internal/bench"
	"cdna/internal/store"
)

// Result caching. Determinism makes every experiment result a pure
// function of (normalized config, model build), so results are
// perfectly cacheable: ResultKey derives the canonical hash of that
// identity and CachedExec wraps the experiment executor with an
// internal/store lookup. Repeated and overlapping grids — the common
// case when iterating on one axis — then only run the delta.

// resultSchema versions the cached payload encoding (the JSON form of
// bench.Result). Bump it when Result's schema changes shape in a way
// its JSON does not self-describe, so stale entries miss instead of
// round-tripping into the wrong bytes.
const resultSchema = "cdna-result-v1"

// CacheStats counts cache traffic for one consumer (a sweep, a table
// run). Safe for concurrent use; the daemon reports a snapshot per
// sweep through its status API.
type CacheStats struct {
	hits, misses, uncacheable atomic.Uint64
}

// CacheCounts is the JSON snapshot of CacheStats.
type CacheCounts struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Uncacheable counts experiments bypassing the cache entirely —
	// configurations that fail validation (their error outcome is
	// recomputed, not stored).
	Uncacheable uint64 `json:"uncacheable,omitempty"`
}

// Counts returns a point-in-time snapshot.
func (c *CacheStats) Counts() CacheCounts {
	return CacheCounts{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Uncacheable: c.uncacheable.Load(),
	}
}

// HitRate returns hits / (hits + misses), or 1 when nothing was looked
// up (an empty sweep misses nothing).
func (c CacheCounts) HitRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 1
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// buildID is the SHA-256 of the running executable: the identity of
// the model build. Any change to the program — a constant, a branch, a
// cost model — yields a different binary and so a different key, while
// restarting the same binary keeps every key. It is computed on the
// first ResultKey call, not at start-up, so processes that never
// consult the cache never pay for reading their own executable.
var buildID = sync.OnceValues(func() ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("campaign: locating executable for build identity: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil, fmt.Errorf("campaign: reading executable for build identity: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, fmt.Errorf("campaign: hashing executable for build identity: %w", err)
	}
	return h.Sum(nil), nil
})

// ResultKey derives the canonical cache key of a configuration: a hash
// over the payload schema version, the build identity of the running
// executable, and the canonical JSON of the normalized configuration
// plus its calibration. A rebuilt model
// lands every config on a fresh key, so a stale store can only miss,
// never mislead. Configurations that fail validation are uncacheable
// and return an error, as does a process that cannot read its own
// executable.
func ResultKey(cfg bench.Config) (string, error) {
	norm, err := bench.Normalize(cfg)
	if err != nil {
		return "", err
	}
	build, err := buildID()
	if err != nil {
		return "", err
	}
	cfgJSON, err := json.Marshal(norm)
	if err != nil {
		return "", err
	}
	// The calibration is excluded from Config's JSON (results files
	// reconstruct it), but it is part of experiment identity: a
	// calibration change moves every result without changing the build.
	calJSON, err := json.Marshal(norm.Cal)
	if err != nil {
		return "", err
	}
	return store.Key(
		[]byte(resultSchema),
		build,
		cfgJSON,
		calJSON,
	), nil
}

// CachedExec returns an experiment executor that consults the store
// before running: a verified hit returns the stored result without
// simulating; a miss runs the experiment and persists the result
// (crash-safely — see store.Put) for every future overlapping sweep.
// Failed experiments are never cached: an error is recomputed (and
// re-reported) on every submission, so a transient failure — a
// watchdog timeout, a panic — cannot poison the store. Results served
// from cache are byte-identical to recomputed ones (JSON float
// round-tripping is exact), which the daemon's recovery suite pins.
//
// stats may be nil; s must not be.
func CachedExec(s *store.Store, stats *CacheStats) func(bench.Config) bench.Outcome {
	if stats == nil {
		stats = &CacheStats{}
	}
	return func(cfg bench.Config) bench.Outcome {
		key, err := ResultKey(cfg)
		if err != nil {
			stats.uncacheable.Add(1)
			return bench.RunCaptured(cfg)
		}
		if b, ok := s.Get(key); ok {
			var res bench.Result
			if err := json.Unmarshal(b, &res); err == nil {
				stats.hits.Add(1)
				return bench.Outcome{Config: cfg, Result: res}
			}
			// Checksum-valid but undecodable: a schema drift the version
			// tag missed. Recompute; the Put below repairs the entry.
		}
		stats.misses.Add(1)
		out := bench.RunCaptured(cfg)
		if out.Err == nil {
			if b, err := json.Marshal(out.Result); err == nil {
				// A store write failure degrades future runs to recompute;
				// it never fails the experiment that just succeeded.
				_ = s.Put(key, b)
			}
		}
		return out
	}
}

// CachedRunner is Runner with a store behind it: the injection point
// for cmd/cdnatables -store, so CI's table jobs consume the same cache
// the daemon fills. stats may be nil.
func CachedRunner(workers int, s *store.Store, stats *CacheStats) bench.Runner {
	return func(cfgs []bench.Config) []bench.Outcome {
		return Run(cfgs, Options{Workers: workers, Exec: CachedExec(s, stats)})
	}
}
