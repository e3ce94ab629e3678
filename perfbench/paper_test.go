package main

import (
	"math"
	"testing"

	"cdna/internal/bench"
	"cdna/internal/campaign"
)

// TestPaperCellsMatchPaperSweep: every reference cell names exactly one
// point of the seeded paper sweep and a metric the records carry.
func TestPaperCellsMatchPaperSweep(t *testing.T) {
	cells, err := loadPaperCells()
	if err != nil {
		t.Fatal(err)
	}
	w, err := findWorkload("paper_sweep")
	if err != nil {
		t.Fatal(err)
	}
	var recs []campaign.Record
	for _, cfg := range configs(w.request(3, 2)) {
		recs = append(recs, campaign.Record{Name: cfg.Name(), Result: bench.Result{
			Config: cfg, Mbps: 1000, GuestIntrPerSec: 1000, DriverIntrPerSec: 1000,
		}})
	}
	errs, mean, err := paperErrors(cells, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != len(cells) || len(cells) != 16 {
		t.Fatalf("%d cell errors for %d cells", len(errs), len(cells))
	}
	for _, c := range cells {
		if c.Paper <= 0 {
			t.Errorf("cell %q: paper value %v", c.Cell, c.Paper)
		}
	}
	if math.IsNaN(mean) || mean <= 0 {
		t.Errorf("mean error %v", mean)
	}
}

// TestPaperErrorArithmetic: the error is |sim-paper|/paper in percent,
// averaged over cells.
func TestPaperErrorArithmetic(t *testing.T) {
	cells := []paperCell{
		{Cell: "a", Mode: bench.ModeXen, NIC: bench.NICIntel, Dir: bench.Tx, NICs: 2, Metric: "mbps", Paper: 1000},
		{Cell: "b", Mode: bench.ModeXen, NIC: bench.NICIntel, Dir: bench.Tx, NICs: 2, Metric: "idle_pct", Paper: 50},
	}
	cfg := bench.DefaultConfig(bench.ModeXen, bench.NICIntel, bench.Tx)
	rec := campaign.Record{Result: bench.Result{Config: cfg, Mbps: 1100}}
	rec.Profile.Idle = 0.45
	errs, mean, err := paperErrors(cells, []campaign.Record{rec})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(errs[0].ErrPct-10) > 1e-9 || math.Abs(errs[1].ErrPct-10) > 1e-9 || math.Abs(mean-10) > 1e-9 {
		t.Errorf("errors %+v mean %v, want 10%% each", errs, mean)
	}
	if _, _, err := paperErrors(cells, nil); err == nil {
		t.Error("a cell with no matching record was accepted")
	}
}
