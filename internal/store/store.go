// Package store is a content-addressed, crash-safe result store: a
// directory of immutable entries keyed by hex digests. It is the
// durable half of the campaign cache — the determinism contract makes
// every experiment result a pure function of its configuration (plus
// the model build), so a result computed once can be served forever
// under the canonical hash of that identity.
//
// The robustness contract:
//
//   - Writes are atomic and durable: an entry is staged in a temp file,
//     fsynced, and renamed into place, so a crash at any instant leaves
//     either the complete entry or nothing — never a torn file at the
//     final path.
//   - Every entry carries a SHA-256 checksum of its payload, verified on
//     every read. A corrupt, truncated, or foreign file is treated as a
//     miss (and counted), never served: the caller recomputes and the
//     next Put repairs the entry.
//   - Readers and writers are safe for concurrent use from any number of
//     goroutines (and, thanks to the atomic rename, from concurrent
//     processes sharing the directory — last writer wins with identical
//     bytes under a content-addressed key).
//
// The package is deliberately ignorant of what payloads mean;
// internal/campaign owns the experiment-result encoding and the key
// derivation (config hash + build identity).
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
)

// entry file layout: magic, payload length, payload checksum, payload.
const (
	magic      = "CDNARST1"
	headerSize = len(magic) + 8 + sha256.Size
)

// Store is a content-addressed entry store rooted at one directory.
// The zero value is not usable; call Open.
type Store struct {
	dir string

	hits, misses, corrupt, puts atomic.Uint64
}

// Stats is a point-in-time snapshot of a store's traffic counters.
// Corrupt counts reads that found a damaged entry (also counted as
// misses — corruption is served as a miss, never as data).
type Stats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Corrupt uint64 `json:"corrupt"`
	Puts    uint64 `json:"puts"`
}

// Open opens (creating if necessary) a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Key returns the canonical hex key for a sequence of identity parts:
// SHA-256 over the parts with length framing, so distinct part splits
// can never collide ("ab","c" vs "a","bc").
func Key(parts ...[]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Path returns the entry file path for a key (whether or not the entry
// exists). Exposed so corruption tests can damage entries in place.
func (s *Store) Path(key string) string {
	// Two-level fan-out keeps directories small under large campaigns.
	if len(key) < 3 {
		return filepath.Join(s.dir, "objects", key)
	}
	return filepath.Join(s.dir, "objects", key[:2], key[2:])
}

// Get returns the payload stored under key. The boolean is false on a
// miss — absent entry, or any entry whose magic, length, or checksum
// does not verify (counted in Stats.Corrupt). A damaged entry is never
// returned: the caller recomputes, and the eventual Put overwrites the
// damage atomically.
func (s *Store) Get(key string) ([]byte, bool) {
	b, err := os.ReadFile(s.Path(key))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, ok := decode(b)
	if !ok {
		s.corrupt.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return payload, true
}

// decode validates an entry file and extracts its payload.
func decode(b []byte) ([]byte, bool) {
	if len(b) < headerSize || !bytes.Equal(b[:len(magic)], []byte(magic)) {
		return nil, false
	}
	n := binary.BigEndian.Uint64(b[len(magic) : len(magic)+8])
	payload := b[headerSize:]
	if uint64(len(payload)) != n {
		return nil, false
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(b[len(magic)+8:headerSize], sum[:]) {
		return nil, false
	}
	return payload, true
}

// Put stores payload under key, atomically and durably: the entry is
// written to a temp file, fsynced, and renamed over the final path, so
// concurrent writers and crashes can never leave a torn entry where Get
// will find it.
func (s *Store) Put(key string, payload []byte) error {
	buf := make([]byte, headerSize+len(payload))
	copy(buf, magic)
	binary.BigEndian.PutUint64(buf[len(magic):], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(buf[len(magic)+8:], sum[:])
	copy(buf[headerSize:], payload)

	f, err := os.CreateTemp(filepath.Join(s.dir, "tmp"), key+".*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing entry: %w", err)
	}
	final := s.Path(key)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing entry: %w", err)
	}
	// Make the rename itself durable. A failure here degrades crash
	// durability, not correctness (the entry is still atomic), so it is
	// deliberately not fatal.
	if d, err := os.Open(filepath.Dir(final)); err == nil {
		d.Sync()
		d.Close()
	}
	s.puts.Add(1)
	return nil
}

// Len walks the store and returns the number of entries on disk.
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(filepath.Join(s.dir, "objects"), func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			n++
		}
		return nil
	})
	return n, err
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Corrupt: s.corrupt.Load(),
		Puts:    s.puts.Load(),
	}
}
