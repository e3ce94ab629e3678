package stats

import (
	"math"
	"sort"
	"strings"
	"testing"

	"cdna/internal/sim"
)

func TestCounterWindow(t *testing.T) {
	var c Counter
	c.Add(10)
	if c.Total() != 10 || c.Window() != 0 {
		t.Fatalf("pre-window: total=%d window=%d", c.Total(), c.Window())
	}
	c.StartWindow()
	c.Inc()
	c.Add(4)
	if c.Total() != 15 || c.Window() != 5 {
		t.Fatalf("post-window: total=%d window=%d", c.Total(), c.Window())
	}
}

func TestCounterRate(t *testing.T) {
	var c Counter
	c.StartWindow()
	c.Add(1000)
	if got := c.Rate(2 * sim.Second); got != 500 {
		t.Fatalf("Rate = %v, want 500", got)
	}
	if got := c.Rate(0); got != 0 {
		t.Fatalf("Rate over zero window = %v, want 0", got)
	}
}

func TestByteMeterMbps(t *testing.T) {
	var m ByteMeter
	m.StartWindow()
	m.Add(125_000_000) // 125 MB in 1 s = 1000 Mb/s
	if got := m.Mbps(sim.Second); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("Mbps = %v, want 1000", got)
	}
}

func TestProfileSumAndBusy(t *testing.T) {
	p := Profile{Hyp: 0.1, DriverOS: 0.2, DriverUser: 0.05, GuestOS: 0.3, GuestUser: 0.05, Idle: 0.3}
	if math.Abs(p.Sum()-1) > 1e-12 {
		t.Fatalf("Sum = %v, want 1", p.Sum())
	}
	if math.Abs(p.Busy()-0.7) > 1e-12 {
		t.Fatalf("Busy = %v, want 0.7", p.Busy())
	}
}

func TestProfileString(t *testing.T) {
	p := Profile{Hyp: 0.102, Idle: 0.508}
	s := p.String()
	if !strings.Contains(s, "hyp 10.2%") || !strings.Contains(s, "idle 50.8%") {
		t.Fatalf("unexpected profile string: %s", s)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Header: []string{"System", "Mb/s"}}
	tb.AddRow("Xen", "1602")
	tb.AddRow("CDNA", "1867")
	s := tb.String()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[0], "System") {
		t.Fatalf("bad header: %q", lines[0])
	}
	if !strings.Contains(lines[3], "CDNA") || !strings.Contains(lines[3], "1867") {
		t.Fatalf("bad row: %q", lines[3])
	}
}

func TestTableWriteCSV(t *testing.T) {
	tb := Table{Header: []string{"System", "Mb/s"}}
	tb.AddRow("Xen, with commas", "1602")
	tb.AddRow("CDNA", "1867")
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), b.String())
	}
	if lines[0] != "System,Mb/s" {
		t.Fatalf("bad CSV header: %q", lines[0])
	}
	if lines[1] != `"Xen, with commas",1602` {
		t.Fatalf("comma cell not quoted: %q", lines[1])
	}
}

func TestDistribution(t *testing.T) {
	var d Distribution
	if d.Mean() != 0 || d.Quantile(0.5) != 0 {
		t.Fatal("empty distribution must report zeros")
	}
	for i := 1; i <= 100; i++ {
		d.Observe(float64(i))
	}
	if d.Count() != 100 {
		t.Fatalf("Count = %d", d.Count())
	}
	if math.Abs(d.Mean()-50.5) > 1e-9 {
		t.Fatalf("Mean = %v", d.Mean())
	}
	if q := d.Quantile(0.5); q != 50 {
		t.Fatalf("median = %v, want 50 (nearest rank int(0.5*99))", q)
	}
	if d.Max() != 100 {
		t.Fatalf("Max = %v", d.Max())
	}
	// Observing after a quantile query must keep working.
	d.Observe(1000)
	if d.Max() != 1000 {
		t.Fatalf("Max after re-observe = %v", d.Max())
	}

	// Exact nearest-rank quantiles against a sorted-copy oracle, with
	// duplicate samples, at one, two and many samples.
	rng := sim.NewRNG(5)
	for _, n := range []int{1, 2, 1000} {
		var d Distribution
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = float64(rng.Intn(50)) / 4 // values repeat
			d.Observe(samples[i])
		}
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		for _, q := range []float64{0, .1, .5, .9, .99, 1} {
			if got, want := d.Quantile(q), sorted[int(q*float64(n-1))]; got != want {
				t.Fatalf("n=%d: Quantile(%v) = %v, want %v", n, q, got, want)
			}
		}
	}
}
