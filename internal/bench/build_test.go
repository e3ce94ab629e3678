package bench

// Wiring invariants of the machine builder: the topology the experiments
// assume is actually what gets assembled.

import (
	"testing"

	"cdna/internal/core"
	"cdna/internal/sim"
)

func TestBuildCDNATopology(t *testing.T) {
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	cfg.Guests = 8
	cfg.NICs = 2
	cfg.ConnsPerGuestPerNIC = 2
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.RiceNICs) != 2 || len(m.IntelNICs) != 0 {
		t.Fatalf("NICs: rice=%d intel=%d", len(m.RiceNICs), len(m.IntelNICs))
	}
	if len(m.CtxMgrs) != 2 {
		t.Fatalf("context managers = %d", len(m.CtxMgrs))
	}
	// One context per guest per NIC.
	for i, cm := range m.CtxMgrs {
		if cm.Assigned() != 8 {
			t.Fatalf("NIC %d assigned contexts = %d, want 8", i, cm.Assigned())
		}
	}
	if len(m.Drivers) != 16 {
		t.Fatalf("drivers = %d, want 16", len(m.Drivers))
	}
	// dom0 + 8 guests.
	if len(m.Hyp.Domains()) != 9 {
		t.Fatalf("domains = %d", len(m.Hyp.Domains()))
	}
	// Connections: guests * NICs * conns.
	if len(m.Conns.Conns) != 8*2*2 {
		t.Fatalf("conns = %d", len(m.Conns.Conns))
	}
	// Every driver has a distinct MAC.
	macs := map[string]bool{}
	for _, d := range m.Drivers {
		s := d.MAC().String()
		if macs[s] {
			t.Fatalf("duplicate MAC %s", s)
		}
		macs[s] = true
	}
}

func TestBuildCDNAContextLimit(t *testing.T) {
	// 33 guests on one NIC exceeds the 32 hardware contexts.
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	cfg.Guests = core.NumContexts + 1
	cfg.NICs = 1
	cfg.ConnsPerGuestPerNIC = 1
	if _, err := Build(cfg); err == nil {
		t.Fatal("building more guests than hardware contexts must fail")
	}
	// Exactly 32 works.
	cfg.Guests = core.NumContexts
	if _, err := Build(cfg); err != nil {
		t.Fatalf("32 guests should fit 32 contexts: %v", err)
	}
}

// TestValidateCapsGuests: every configuration, single-host or not,
// is limited to 255 guests, before any page is allocated for them.
func TestValidateCapsGuests(t *testing.T) {
	for _, hosts := range []int{0, 2} {
		cfg := DefaultConfig(ModeXen, NICIntel, Tx)
		if hosts > 1 {
			cfg.Hosts, cfg.Pattern = hosts, PatternPairs
		}
		cfg.Guests = maxGuests
		if err := cfg.Validate(); err != nil {
			t.Errorf("hosts=%d: %d guests rejected: %v", hosts, cfg.Guests, err)
		}
		cfg.Guests = maxGuests + 1
		if err := cfg.Validate(); err == nil {
			t.Errorf("hosts=%d: %d guests accepted", hosts, cfg.Guests)
		}
	}
}

// TestValidateRejectsNegativesBeforeDefaults: zero means "use the
// default" for the connection count, the ablation knobs and the fault
// schedule, but a negative value is rejected before defaulting could
// replace it (a negative fault offset with no outage would otherwise
// take the quarter-window schedule, a negative connection count the
// balanced one).
func TestValidateRejectsNegativesBeforeDefaults(t *testing.T) {
	base := DefaultConfig(ModeCDNA, NICRice, Tx)
	base.ConnsPerGuestPerNIC = 0
	base.Fault = FaultSpec{Kind: FaultLinkFlap}
	if _, err := Normalize(base); err != nil {
		t.Fatalf("zero-default config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"hosts":    func(c *Config) { c.Hosts = -3 },
		"conns":    func(c *Config) { c.ConnsPerGuestPerNIC = -2 },
		"batch":    func(c *Config) { c.MaxEnqueueBatch = -1 },
		"coalesce": func(c *Config) { c.TxCoalescePkts = -1 },
		"fault-at": func(c *Config) { c.Fault.After = -sim.Millisecond },
		"outage":   func(c *Config) { c.Fault.Outage = -sim.Millisecond },
	} {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: negative value accepted", name)
		}
		if _, err := Prepare(cfg); err == nil {
			t.Errorf("%s: Prepare built a machine from a negative value", name)
		}
	}
}

func TestBuildXenTopology(t *testing.T) {
	cfg := DefaultConfig(ModeXen, NICIntel, Rx)
	cfg.Guests = 4
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.IntelNICs) != 2 || len(m.RiceNICs) != 0 {
		t.Fatalf("NICs: intel=%d rice=%d", len(m.IntelNICs), len(m.RiceNICs))
	}
	if len(m.Hyp.Domains()) != 5 {
		t.Fatalf("domains = %d, want dom0+4", len(m.Hyp.Domains()))
	}
}

func TestBuildXenRiceUsesOneTrustedContext(t *testing.T) {
	cfg := DefaultConfig(ModeXen, NICRice, Tx)
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, cm := range m.CtxMgrs {
		if cm.Assigned() != 1 {
			t.Fatalf("NIC %d: %d contexts, want 1 (dom0 only, §5.2)", i, cm.Assigned())
		}
	}
	// The trusted dom0 path skips validation entirely.
	if m.Hyp.Prot.Mode != core.ModeOff {
		t.Fatalf("dom0 protection mode = %v, want off (trusted, §2.2)", m.Hyp.Prot.Mode)
	}
}

func TestBuildNativeHasNoHypervisor(t *testing.T) {
	cfg := DefaultConfig(ModeNative, NICIntel, Tx)
	cfg.NICs = 3
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Hyp != nil {
		t.Fatal("native machine has a hypervisor")
	}
	if len(m.IntelNICs) != 3 {
		t.Fatalf("NICs = %d", len(m.IntelNICs))
	}
}

func TestBuildUnknownModeFails(t *testing.T) {
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	cfg.Mode = Mode(99)
	if _, err := Build(cfg); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestDuplexWiring(t *testing.T) {
	cfg := DefaultConfig(ModeCDNA, NICRice, Both)
	cfg.Guests = 2
	cfg.ConnsPerGuestPerNIC = 3
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both directions double the connection count.
	if len(m.Conns.Conns) != 2*2*3*2 {
		t.Fatalf("duplex conns = %d, want 24", len(m.Conns.Conns))
	}
}

func TestModeAndNICStrings(t *testing.T) {
	if ModeNative.String() != "Native" || ModeXen.String() != "Xen" || ModeCDNA.String() != "CDNA" {
		t.Fatal("mode strings")
	}
	if NICIntel.String() != "Intel" || NICRice.String() != "RiceNIC" {
		t.Fatal("nic strings")
	}
	if Both.String() != "duplex" || Direction(9).String() == "" {
		t.Fatal("direction strings")
	}
}

func TestRunTracedAttachesTracer(t *testing.T) {
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	cfg.Warmup = 20 * sim.Millisecond
	cfg.Duration = 30 * sim.Millisecond
	m, res, err := RunTraced(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tracer == nil || m.Tracer.Count() == 0 {
		t.Fatal("tracer not recording")
	}
	if len(m.Tracer.Last(10)) != 10 {
		t.Fatal("trace tail unavailable")
	}
	if res.Mbps <= 0 {
		t.Fatal("traced run produced no result")
	}
}
