package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU profile folding. runtime/pprof writes a gzipped profile.proto
// message; the benchmark decodes just the parts it needs (samples,
// locations with their inline lines, function names) with a small
// protobuf reader, since the module has no third-party dependencies.

// modulePrefix is the package-path prefix of the simulator's layers.
const modulePrefix = "cdna/internal/"

// runtimeModule collects samples with no simulator frame on the stack:
// the garbage collector, the scheduler, syscalls.
const runtimeModule = "runtime"

// moduleOfFunc returns the simulator module a function symbol belongs
// to, or "" for a frame outside cdna/internal (standard library,
// runtime, the benchmark itself). Only the leading package path
// counts, so a generic instantiated over another module's type —
// "cdna/internal/sim.(*FIFO[go.shape.struct { cdna/internal/cpu.Cat
// ... }]).Push" — belongs to the package that defines it.
func moduleOfFunc(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// foldStack charges one sample to the innermost simulator frame of its
// stack (leaf first), so stdlib and runtime frames called from a model
// function count against that function's module.
func foldStack(stack []string) string {
	for _, fn := range stack {
		if m := moduleOfFunc(fn); m != "" {
			return m
		}
	}
	return runtimeModule
}

// profileStacks decodes a gzipped pprof profile into (stack, weight)
// pairs: each stack lists function names leaf first, inlined frames
// included; the weight is the sample's last value (CPU nanoseconds for
// a CPU profile).
func profileStacks(gz []byte) (stacks [][]string, weights []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = make(map[uint64]int64)    // function id -> name string index
		locs    = make(map[uint64][]uint64) // location id -> function ids, innermost first
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids, err := varints(wire, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vs, err := varints(wire, v, b)
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, lid := range s.locs {
			for _, fid := range locs[lid] {
				if ni := funcs[fid]; ni >= 0 && ni < int64(len(strs)) {
					stack = append(stack, strs[ni])
				}
			}
		}
		stacks = append(stacks, stack)
		weights = append(weights, s.values[len(s.values)-1])
	}
	return stacks, weights, nil
}

// foldProfile returns each module's share of a CPU profile's samples;
// the shares sum to 1 (an empty profile gives an empty map).
func foldProfile(gz []byte) (map[string]float64, error) {
	stacks, weights, err := profileStacks(gz)
	if err != nil {
		return nil, err
	}
	var total int64
	byModule := make(map[string]int64)
	for i, st := range stacks {
		byModule[foldStack(st)] += weights[i]
		total += weights[i]
	}
	shares := make(map[string]float64, len(byModule))
	for m, w := range byModule {
		if total > 0 {
			shares[m] = float64(w) / float64(total)
		}
	}
	return shares, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn per field with its
// number, wire type, and either the varint value (wire type 0) or the
// length-delimited bytes (wire type 2). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated integer field in either encoding: one
// unpacked element (wire type 0) or a packed run (wire type 2).
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
