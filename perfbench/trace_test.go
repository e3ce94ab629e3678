package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cdna/internal/bench"
	"cdna/internal/sim"
)

// TestFamilyRulesDisjoint: no event name can match two rules, so every
// name maps to at most one module by construction.
func TestFamilyRulesDisjoint(t *testing.T) {
	for i, a := range familyRules {
		for _, b := range familyRules[i+1:] {
			pa, aPrefix := strings.CutSuffix(a.pattern, "*")
			pb, bPrefix := strings.CutSuffix(b.pattern, "*")
			var overlap bool
			switch {
			case aPrefix && bPrefix:
				overlap = strings.HasPrefix(pa, pb) || strings.HasPrefix(pb, pa)
			case aPrefix:
				overlap = strings.HasPrefix(pb, pa)
			case bPrefix:
				overlap = strings.HasPrefix(pa, pb)
			default:
				overlap = pa == pb
			}
			if overlap {
				t.Errorf("rules %q and %q overlap", a.pattern, b.pattern)
			}
		}
	}
}

// TestKnownEventNames pins the attribution of names the three
// workloads fire.
func TestKnownEventNames(t *testing.T) {
	want := map[string]string{
		"bg":                           "bench",
		"fault":                        "bench",
		"cpu.task:bg.kernel":           "bench",
		"cpu.switch":                   "cpu",
		"bus.dma:txdata":               "nic",
		"bus.dma:intel.writeback":      "intelnic",
		"bus.dma:ricenic.bitvec":       "ricenic",
		"nicproc:mboxdecode":           "ricenic",
		"nicproc:rx":                   "nic",
		"nic.pace":                     "nic",
		"coalesce":                     "nic",
		"cpu.task:hc:cdna_enqueue":     "core",
		"cpu.task:virq:vif.rx":         "xen",
		"cpu.isr:irq:h2.rice1":         "xen",
		"cpu.isr:cdna.bitvec":          "xen",
		"timer.tick":                   "xen",
		"cpu.task:netback.rxflip":      "backend",
		"cpu.task:netfront.virq":       "backend",
		"cpu.task:stack.txack":         "guest",
		"cpu.task:cdna.rxdirect":       "guest",
		"cpu.task:ndrv.kick":           "guest",
		"cpu.task:app.copy":            "guest",
		"ether.deliver":                "ether",
		"topo.forward":                 "topo",
		"topo.txdone":                  "topo",
		"transport.rto":                "transport",
		"conn.start":                   "workload",
		"workload.arrival":             "workload",
		"cpu.task:stack.flowopen":      "guest",
		"cpu.task:evtchn_send":         "xen",
		"cpu.isr:timer":                "xen",
		"cpu.task:tick":                "xen",
		"cpu.task:netback.visit":       "backend",
		"bus.dma:rxdesc":               "nic",
		"cpu.task:cdna.txbatch":        "guest",
		"cpu.task:virq:cdna":           "xen",
		"cpu.isr:irq:intel0":           "xen",
		"cpu.task:bg.user":             "bench",
		"cpu.task:netfront.tx":         "backend",
		"cpu.task:stack.rx":            "guest",
		"cpu.task:hc:something_future": "core",
	}
	for name, mod := range want {
		got, err := moduleOf(name)
		if err != nil || got != mod {
			t.Errorf("moduleOf(%q) = %q, %v; want %q", name, got, err, mod)
		}
	}
}

// TestUnknownEventNameFails: a name no rule claims is an error, both
// alone and when folding counts.
func TestUnknownEventNameFails(t *testing.T) {
	for _, name := range []string{"", "cpu.task:", "cpu.task:mystery", "bus.dma:other", "cpu.isr:new"} {
		if m, err := moduleOf(name); err == nil {
			t.Errorf("moduleOf(%q) = %q, want an error", name, m)
		}
	}
	c := newEventCounts()
	c.byName["topo.forward"] = 3
	c.byName["brand.new.kind"] = 1
	if _, err := c.byModule(); err == nil {
		t.Error("byModule accepted an unattributed event name")
	}
}

// TestWorkloadEventsAttributed runs every point of the three workloads
// traced over a short window and requires each fired event to map to
// exactly one module, the counted total to equal the engine's, and
// the result to equal the untraced run's.
func TestWorkloadEventsAttributed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload point")
	}
	for _, w := range workloadDefs {
		req := w.request(7, 1)
		req.Warmup, req.Duration = 20*sim.Millisecond, 30*sim.Millisecond
		total := newEventCounts()
		for i, cfg := range configs(req) {
			out := tracedRun(cfg, i, newSpanLog(), total.merge)
			if out.Err != nil {
				t.Fatalf("%s: %v", w.name, out.Err)
			}
			ref, err := bench.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := json.Marshal(out.Result)
			b, _ := json.Marshal(ref)
			if !bytes.Equal(a, b) {
				t.Errorf("%s: traced result differs from untraced", cfg.Name())
			}
		}
		mods, err := total.byModule()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var sum uint64
		for _, n := range mods {
			sum += n
		}
		if sum != total.total || sum == 0 {
			t.Errorf("%s: module totals sum to %d, %d events fired", w.name, sum, total.total)
		}
	}
}
