// Package stats provides measurement primitives for the CDNA simulator:
// windowed rate meters, counters, and the six-column execution profile
// used throughout the paper's evaluation (hypervisor / driver-domain
// OS+user / guest OS+user / idle).
package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strings"

	"cdna/internal/sim"
)

// Counter is a monotonically increasing event count with a measurement
// window, so that warmup activity can be excluded from reported rates.
type Counter struct {
	total   uint64
	window  uint64
	started bool
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	c.total += n
	if c.started {
		c.window += n
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Total returns the all-time count.
func (c *Counter) Total() uint64 { return c.total }

// StartWindow begins the measurement window.
func (c *Counter) StartWindow() { c.started = true; c.window = 0 }

// Window returns the count accumulated since StartWindow.
func (c *Counter) Window() uint64 { return c.window }

// Rate returns the windowed count divided by dur, per second.
func (c *Counter) Rate(dur sim.Time) float64 {
	if dur <= 0 {
		return 0
	}
	return float64(c.window) / dur.Seconds()
}

// ByteMeter counts payload bytes and reports throughput in Mb/s, the
// unit the paper's tables use.
type ByteMeter struct {
	Counter
}

// Mbps returns windowed throughput in megabits per second.
func (m *ByteMeter) Mbps(dur sim.Time) float64 {
	return m.Rate(dur) * 8 / 1e6
}

// Profile is the paper's execution profile: fraction of CPU time in each
// of the six categories over a measurement window. Fractions sum to ~1.
// The JSON names are part of the result schema cmd/cdnasweep emits.
type Profile struct {
	Hyp        float64 `json:"hyp"`
	DriverOS   float64 `json:"driver_os"`
	DriverUser float64 `json:"driver_user"`
	GuestOS    float64 `json:"guest_os"`
	GuestUser  float64 `json:"guest_user"`
	Idle       float64 `json:"idle"`
}

// Busy returns the non-idle fraction.
func (p Profile) Busy() float64 { return 1 - p.Idle }

// String formats the profile as the paper's tables do.
func (p Profile) String() string {
	return fmt.Sprintf("hyp %.1f%% | drvOS %.1f%% | drvUsr %.1f%% | gstOS %.1f%% | gstUsr %.1f%% | idle %.1f%%",
		100*p.Hyp, 100*p.DriverOS, 100*p.DriverUser, 100*p.GuestOS, 100*p.GuestUser, 100*p.Idle)
}

// Sum returns the sum of all fractions (≈1 when accounting is complete).
func (p Profile) Sum() float64 {
	return p.Hyp + p.DriverOS + p.DriverUser + p.GuestOS + p.GuestUser + p.Idle
}

// Table renders rows of labelled columns as an aligned text table; it is
// the common output path for cmd/cdnatables and the examples.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with column alignment.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// WriteCSV writes the table as RFC 4180 CSV (header row first), the
// machine-readable companion to String() for spreadsheet import.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	if err := cw.WriteAll(t.Rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// Distribution collects samples and reports quantiles; used for latency
// and batch-size diagnostics.
type Distribution struct {
	samples []float64
	sorted  bool
}

// Observe records one sample. A full sample slice doubles its capacity
// (append alone grows large slices by about 1.25x, re-copying a
// long run's latency samples many more times).
func (d *Distribution) Observe(v float64) {
	if len(d.samples) == cap(d.samples) {
		d.samples = slices.Grow(d.samples, max(cap(d.samples), 64))
	}
	d.samples = append(d.samples, v)
	d.sorted = false
}

// Count returns the number of samples.
func (d *Distribution) Count() int { return len(d.samples) }

// Reset discards all samples, keeping the backing array — the
// distribution analogue of StartWindow, so warmup samples can be
// excluded from reported quantiles.
func (d *Distribution) Reset() {
	d.samples = d.samples[:0]
	d.sorted = false
}

// Mean returns the sample mean (0 for no samples).
func (d *Distribution) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range d.samples {
		s += v
	}
	return s / float64(len(d.samples))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest rank.
// Samples are never NaN (they are non-negative measurements), so the
// sorted order, and with it every quantile, is unique.
func (d *Distribution) Quantile(q float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	if !d.sorted {
		slices.Sort(d.samples)
		d.sorted = true
	}
	idx := int(q * float64(len(d.samples)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(d.samples) {
		idx = len(d.samples) - 1
	}
	return d.samples[idx]
}

// Max returns the largest sample (0 for no samples).
func (d *Distribution) Max() float64 { return d.Quantile(1) }
