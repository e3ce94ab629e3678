//go:build !race

package bench

import (
	"runtime"
	"testing"
)

// prepareAllocBudget bounds what building the largest figure point may
// allocate: about 1.25x the measured 6.65 MB (amd64). A page table that
// re-copies itself as it grows allocates several times that. Race
// builds are excluded (the detector's instrumentation allocates).
const prepareAllocBudget = 8_300_000

// TestPrepareAllocBudget measures the bytes one Prepare of the 24-guest
// CDNA transmit point of Figure 3 allocates.
func TestPrepareAllocBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	cfg.Guests = FigureGuests[len(FigureGuests)-1]
	cfg.ConnsPerGuestPerNIC = connsFor(cfg.Guests)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := Prepare(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(m)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Prepare(%s) allocated %.2f MB", cfg.Name(), float64(got)/1e6)
	if got > prepareAllocBudget {
		t.Fatalf("Prepare(%s) allocated %d bytes; budget %d", cfg.Name(), got, prepareAllocBudget)
	}
}
