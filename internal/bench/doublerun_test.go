package bench

import (
	"fmt"
	"testing"

	"cdna/internal/core"
	"cdna/internal/sim"
	"cdna/internal/topo"
	"cdna/internal/workload"
)

// doubleRunCase is one configuration the double-run contract pins.
type doubleRunCase struct {
	name string
	cfg  Config
}

// rackConfig is a CDNA transmit rack of hosts on the fabric with short
// windows: the base of the fabric, fault and random double-run cases.
func rackConfig(hosts int, pat Pattern, warmup, duration sim.Time) Config {
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	cfg.Hosts = hosts
	cfg.Pattern = pat
	cfg.Warmup, cfg.Duration = warmup, duration
	return cfg
}

// TestMultiGuestDoubleRunByteIdentical is the byte-identity determinism
// contract at the single-experiment level: building and running the
// same configuration twice must produce bit-for-bit identical results.
// This is the tripwire for any iteration-order dependence sneaking into
// the builders, the interrupt delivery path (per-context event channels
// are a dense slice, never a ranged-over map — see
// Hypervisor.HandleBitVectorIRQ) or the fabric's same-instant delivery
// order (keyed pipes). The cases span single hosts, racks on every
// fabric kind, every fault scenario, trace replay and a ladder of
// pseudo-random multi-host configurations.
func TestMultiGuestDoubleRunByteIdentical(t *testing.T) {
	opts := Opts{Warmup: 20 * sim.Millisecond, Duration: 60 * sim.Millisecond}
	if !testing.Short() {
		opts = Quick()
	}
	var cases []doubleRunCase
	for _, tc := range []struct {
		name    string
		mode    Mode
		nic     NICKind
		hosts   int
		pattern Pattern
		fault   FaultKind
	}{
		{"Xen/RiceNIC", ModeXen, NICRice, 0, PatternPairs, FaultNone},
		{"Xen/Intel", ModeXen, NICIntel, 0, PatternPairs, FaultNone},
		{"CDNA", ModeCDNA, NICRice, 0, PatternPairs, FaultNone},
		// Multi-host: the switched fabric (per-port egress FIFOs, drops,
		// cross-host acks) must be just as byte-deterministic.
		{"CDNA/3h-incast", ModeCDNA, NICRice, 3, PatternIncast, FaultNone},
		{"CDNA/4h-incast", ModeCDNA, NICRice, 4, PatternIncast, FaultNone},
		{"Xen/4h-all2all", ModeXen, NICIntel, 4, PatternAllToAll, FaultNone},
		// Fault injection mid-window (link flap under incast): the
		// outage, the drops it forces, and the recovery must all replay
		// bit-for-bit.
		{"CDNA/3h-incast-flap", ModeCDNA, NICRice, 3, PatternIncast, FaultLinkFlap},
	} {
		cfg := DefaultConfig(tc.mode, tc.nic, Tx)
		cfg.Guests = 4 // multi-guest: many contexts per bit-vector IRQ
		if tc.hosts > 1 {
			cfg.Hosts = tc.hosts
			cfg.Pattern = tc.pattern
			cfg.Guests = 2 // clusters multiply hosts; keep the run tight
		}
		cfg.ConnsPerGuestPerNIC = connsFor(cfg.Guests)
		if tc.mode == ModeCDNA {
			cfg.Protection = core.ModeHypercall
		}
		cfg.Warmup, cfg.Duration = opts.Warmup, opts.Duration
		if tc.fault != FaultNone {
			cfg.Fault = FaultSpec{Kind: tc.fault, After: cfg.Duration / 4, Outage: cfg.Duration / 4}
		}
		cases = append(cases, doubleRunCase{tc.name, cfg})
	}

	// Every fault scenario under a 4-host incast: the fault fires after
	// every ordinary event at its instant (a keyed timer) and mutates
	// links and switch ports that frames are crossing.
	for _, kind := range []FaultKind{FaultLinkFlap, FaultPortFail, FaultBlackout} {
		cfg := rackConfig(4, PatternIncast, 10*sim.Millisecond, 40*sim.Millisecond)
		cfg.Guests = 2
		cfg.ConnsPerGuestPerNIC = connsFor(cfg.Guests)
		cfg.Fault = FaultSpec{Kind: kind, After: 10 * sim.Millisecond, Outage: 10 * sim.Millisecond}
		cases = append(cases, doubleRunCase{"CDNA/4h-incast-" + kind.String(), cfg})
	}

	// Multi-tier fabrics: leaf-spine and fat-tree racks, closed- and
	// open-loop workloads, with and without oversubscription. Trunk
	// pipes are keyed too, and ECMP hashes only frame addresses.
	leafSpine := topo.FabricSpec{Kind: topo.KindLeafSpine, HostsPerLeaf: 2, Spines: 2}
	for _, tc := range []struct {
		name string
		spec topo.FabricSpec
		pat  Pattern
		work workload.Spec
	}{
		{"leafspine-incast-bulk", leafSpine, PatternIncast, workload.Spec{}},
		{"leafspine-all2all-oversub", topo.FabricSpec{Kind: topo.KindLeafSpine, HostsPerLeaf: 2, Spines: 3, Oversub: 4}, PatternAllToAll, workload.Spec{}},
		{"fattree-all2all-bulk", topo.FabricSpec{Kind: topo.KindFatTree, HostsPerLeaf: 1, Spines: 2}, PatternAllToAll, workload.Spec{}},
		{"leafspine-pairs-poisson", leafSpine, PatternPairs, workload.Spec{Kind: workload.Poisson, FlowRate: 3000, SizeDist: workload.SizeWebSearch}},
		{"fattree-incast-pareto", topo.FabricSpec{Kind: topo.KindFatTree, HostsPerLeaf: 2, Spines: 2}, PatternIncast, workload.Spec{Kind: workload.Pareto, FlowRate: 2000}},
	} {
		cfg := rackConfig(4, tc.pat, 10*sim.Millisecond, 30*sim.Millisecond)
		cfg.Fabric = tc.spec
		cfg.Workload = tc.work
		cases = append(cases, doubleRunCase{"fabric/" + tc.name, cfg})
	}
	trace := rackConfig(4, PatternIncast, 10*sim.Millisecond, 40*sim.Millisecond)
	trace.Fabric = leafSpine
	trace.Workload = fabricTraceSpec()
	cases = append(cases, doubleRunCase{"fabric/leafspine-incast-trace", trace})
	portFail := rackConfig(4, PatternIncast, 10*sim.Millisecond, 40*sim.Millisecond)
	portFail.Fabric = leafSpine
	portFail.Fault = FaultSpec{Kind: FaultPortFail, After: 10 * sim.Millisecond, Outage: 10 * sim.Millisecond}
	cases = append(cases, doubleRunCase{"fabric/leafspine-incast-portfail", portFail})

	// Pseudo-random multi-host configurations: architecture, rack size,
	// pattern, workload kind, direction and an optional fault.
	seeds := 10
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		cases = append(cases, doubleRunCase{fmt.Sprintf("random/seed%d", seed), randomRackConfig(seed)})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Log(tc.cfg.Name())
			first, second := runJSON(t, tc.cfg), runJSON(t, tc.cfg)
			if first != second {
				t.Fatalf("reruns differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
			}
		})
	}
}

// randomRackConfig draws a multi-host configuration from seed.
func randomRackConfig(seed int) Config {
	combos := []struct {
		mode Mode
		nic  NICKind
	}{
		{ModeCDNA, NICRice},
		{ModeXen, NICRice},
		{ModeXen, NICIntel},
		{ModeNative, NICIntel},
	}
	hostChoices := []int{2, 3, 4}
	patterns := []Pattern{PatternPairs, PatternIncast, PatternAllToAll}
	kinds := []workload.Kind{workload.Bulk, workload.RequestResponse, workload.Churn, workload.Burst}
	dirs := []Direction{Tx, Rx, Both}
	faults := []FaultKind{FaultNone, FaultNone, FaultLinkFlap, FaultPortFail, FaultBlackout}

	rng := sim.NewRNG(uint64(seed)*0x9e3779b9 + 11)
	combo := combos[rng.Intn(len(combos))]
	cfg := DefaultConfig(combo.mode, combo.nic, dirs[rng.Intn(len(dirs))])
	cfg.Warmup = 10 * sim.Millisecond
	cfg.Duration = 30 * sim.Millisecond
	cfg.Hosts = hostChoices[rng.Intn(len(hostChoices))]
	cfg.Pattern = patterns[rng.Intn(len(patterns))]
	cfg.Guests = 1 + rng.Intn(2)
	cfg.ConnsPerGuestPerNIC = connsFor(cfg.Guests)
	cfg.Workload.Kind = kinds[rng.Intn(len(kinds))]
	if f := faults[rng.Intn(len(faults))]; f != FaultNone {
		cfg.Fault = FaultSpec{Kind: f, After: cfg.Duration / 4, Outage: cfg.Duration / 4}
	}
	return cfg
}

// fabricTraceSpec registers (idempotently) and returns a flow trace
// that sends every spoke of a 4-host incast toward the root.
func fabricTraceSpec() workload.Spec {
	var tr workload.FlowTrace
	for i := 0; i < 60; i++ {
		tr.Events = append(tr.Events, workload.TraceEvent{
			At:   sim.Time(i) * 400 * sim.Microsecond,
			Src:  1 + i%3, // spokes 1..3
			Dst:  0,       // incast root
			Segs: 1 + i%7,
		})
	}
	workload.RegisterTrace("benchfabric", &tr)
	return workload.Spec{Kind: workload.Trace, TracePath: workload.MemPrefix + "benchfabric"}
}

// runJSON runs cfg and returns the result as canonical JSON.
func runJSON(t *testing.T, cfg Config) string {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return resultJSON(t, res)
}

// TestRestoreMidRunByteIdentical is the doublerun contract with a
// checkpoint in the loop: a run snapshotted mid-window and resumed in
// a fresh machine must be byte-identical to the uninterrupted run —
// including across a live link-flap outage, a failed fabric port, a
// multi-tier fabric and trace replay.
func TestRestoreMidRunByteIdentical(t *testing.T) {
	opts := Opts{Warmup: 20 * sim.Millisecond, Duration: 60 * sim.Millisecond}
	single := DefaultConfig(ModeCDNA, NICRice, Tx)
	single.Warmup, single.Duration = opts.Warmup, opts.Duration
	single.Guests = 2
	single.ConnsPerGuestPerNIC = connsFor(single.Guests)

	incastFlap := rackConfig(3, PatternIncast, opts.Warmup, opts.Duration)
	incastFlap.Guests = 2
	incastFlap.ConnsPerGuestPerNIC = connsFor(incastFlap.Guests)
	incastFlap.Fault = FaultSpec{Kind: FaultLinkFlap, After: opts.Duration / 4, Outage: opts.Duration / 4}

	// 4-host incast with a link flap, snapshotted between injection
	// and healing.
	flap4 := rackConfig(4, PatternIncast, 10*sim.Millisecond, 30*sim.Millisecond)
	flap4.Guests = 2
	flap4.ConnsPerGuestPerNIC = connsFor(flap4.Guests)
	flap4.Fault = FaultSpec{Kind: FaultLinkFlap, After: 8 * sim.Millisecond, Outage: 8 * sim.Millisecond}

	leafSpine := topo.FabricSpec{Kind: topo.KindLeafSpine, HostsPerLeaf: 2, Spines: 2}
	fatTree := rackConfig(4, PatternAllToAll, 10*sim.Millisecond, 30*sim.Millisecond)
	fatTree.Fabric = topo.FabricSpec{Kind: topo.KindFatTree, HostsPerLeaf: 1, Spines: 2}
	trace := rackConfig(4, PatternIncast, 10*sim.Millisecond, 40*sim.Millisecond)
	trace.Fabric = leafSpine
	trace.Workload = fabricTraceSpec()
	portFail := rackConfig(4, PatternIncast, 10*sim.Millisecond, 40*sim.Millisecond)
	portFail.Fabric = leafSpine
	portFail.Fault = FaultSpec{Kind: FaultPortFail, After: 10 * sim.Millisecond, Outage: 10 * sim.Millisecond}

	for _, tc := range []struct {
		name   string
		cfg    Config
		snapAt sim.Time // offset into the measurement window
	}{
		{"CDNA/single", single, opts.Duration * 3 / 8},
		{"CDNA/3h-incast-flap", incastFlap, opts.Duration * 3 / 8},
		{"CDNA/4h-incast-flap", flap4, 12 * sim.Millisecond},
		{"fabric/fattree-all2all-bulk", fatTree, 11 * sim.Millisecond},
		{"fabric/leafspine-incast-trace", trace, 15 * sim.Millisecond},
		{"fabric/leafspine-incast-portfail", portFail, 15 * sim.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snapAt := tc.cfg.Warmup + tc.snapAt
			cold, img := runWithSnapshot(t, tc.cfg, snapAt)
			resumed := resumeFromSnapshot(t, tc.cfg, snapAt, img)
			a, b := resultJSON(t, cold), resultJSON(t, resumed)
			if a != b {
				t.Fatalf("resumed run diverged:\n--- cold ---\n%s\n--- resumed ---\n%s", a, b)
			}
		})
	}
}
