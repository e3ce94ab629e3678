package bench

import (
	"fmt"
	"strconv"
	"strings"

	"cdna/internal/ether"
	"cdna/internal/sim"
)

// FaultKind selects a fault/churn scenario injected into a running
// machine. Faults act on the physical substrate (links, switch ports),
// never on protocol state — recovery is whatever the modeled stack does
// on its own (FDB re-learning, retransmission timeouts, window
// collapse), which is exactly what the scenarios measure.
type FaultKind int

// Fault scenarios.
const (
	// FaultNone injects nothing.
	FaultNone FaultKind = iota
	// FaultLinkFlap takes one access link (both directions) down for the
	// outage, then restores it. Frames sent meanwhile are dropped at the
	// pipe; senders recover by RTO.
	FaultLinkFlap
	// FaultPortFail fails one switch port: its egress queue is discarded
	// as drops and the bridge unlearns every station behind it, then the
	// port is restored. Traffic re-converges by flooding until the FDB
	// re-learns (the Moves counter records the churn). Multi-host only.
	FaultPortFail
	// FaultBlackout takes every access link down for the outage — a
	// whole-fabric brownout whose restoration triggers a synchronized
	// RTO storm.
	FaultBlackout
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultLinkFlap:
		return "linkflap"
	case FaultPortFail:
		return "portfail"
	case FaultBlackout:
		return "blackout"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// ParseFaultKind parses a fault scenario name:
// none | linkflap | portfail | blackout.
func ParseFaultKind(s string) (FaultKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "none":
		return FaultNone, nil
	case "linkflap", "flap":
		return FaultLinkFlap, nil
	case "portfail", "port":
		return FaultPortFail, nil
	case "blackout":
		return FaultBlackout, nil
	}
	return 0, fmt.Errorf("bench: unknown fault %q (want none | linkflap | portfail | blackout)", s)
}

// MarshalText encodes the kind as its canonical token.
func (k FaultKind) MarshalText() ([]byte, error) {
	switch k {
	case FaultNone, FaultLinkFlap, FaultPortFail, FaultBlackout:
		return []byte(k.String()), nil
	}
	return []byte(strconv.Itoa(int(k))), nil
}

// UnmarshalText decodes a kind token (or its decimal fallback form; see
// Mode.UnmarshalText).
func (k *FaultKind) UnmarshalText(b []byte) error {
	if n, err := strconv.Atoi(string(b)); err == nil {
		*k = FaultKind(n)
		return nil
	}
	v, err := ParseFaultKind(string(b))
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// FaultSpec schedules one fault scenario relative to the measurement
// window: the fault fires After the window opens and heals Outage
// later. Relative timing keeps the spec independent of the warmup
// length.
type FaultSpec struct {
	Kind FaultKind `json:"kind"`
	// After is the injection offset from window open.
	After sim.Time `json:"after_ns"`
	// Outage is how long the fault lasts before healing.
	Outage sim.Time `json:"outage_ns"`
	// Target picks the victim: a machine link index for FaultLinkFlap
	// (host-order access links) or a fabric port for FaultPortFail.
	// Ignored by FaultBlackout.
	Target int `json:"target,omitempty"`
}

// Suffix returns the config-name tag for the spec ("" when no fault).
func (f FaultSpec) Suffix() string {
	if f.Kind == FaultNone {
		return ""
	}
	s := fmt.Sprintf("/fault=%v@%dms+%dms", f.Kind,
		f.After/sim.Millisecond, f.Outage/sim.Millisecond)
	if f.Target != 0 {
		s += fmt.Sprintf(":%d", f.Target)
	}
	return s
}

// withDefaults pins the default schedule on an unscheduled fault: a
// zero Outage selects injection a quarter into the measurement window
// with a quarter-window outage, so the fault both bites and heals
// inside any window length. CLI flags and campaign axes name only the
// kind and rely on this.
func (f FaultSpec) withDefaults(duration sim.Time) FaultSpec {
	if f.Kind != FaultNone && f.Outage == 0 {
		f.After, f.Outage = duration/4, duration/4
	}
	return f
}

// validate checks a defaulted spec against a configuration's topology.
func (f FaultSpec) validate(cfg Config) error {
	if f.Kind == FaultNone {
		return nil
	}
	if f.Outage <= 0 {
		return fmt.Errorf("bench: fault needs a positive outage (got %v)", f.Outage)
	}
	if f.After+f.Outage >= cfg.Duration {
		return fmt.Errorf("bench: fault %v+%v does not heal inside the %v measurement window", f.After, f.Outage, cfg.Duration)
	}
	hosts := cfg.Hosts
	if hosts < 1 {
		hosts = 1
	}
	switch f.Kind {
	case FaultLinkFlap, FaultBlackout:
		if f.Target < 0 || f.Target >= hosts*cfg.NICs {
			return fmt.Errorf("bench: fault link %d out of range (machine has %d)", f.Target, hosts*cfg.NICs)
		}
	case FaultPortFail:
		if cfg.Hosts <= 1 {
			return fmt.Errorf("bench: %v needs a switched fabric (hosts > 1)", f.Kind)
		}
		if f.Target < 0 || f.Target >= cfg.Hosts*cfg.NICs {
			return fmt.Errorf("bench: fault port %d out of range (fabric has %d)", f.Target, cfg.Hosts*cfg.NICs)
		}
	default:
		return fmt.Errorf("bench: unknown fault kind %v", f.Kind)
	}
	return nil
}

// faultInjector drives one FaultSpec with a single persistent timer:
// first firing injects, second heals. It is constructed for every
// machine, fault or not; arm is a no-op for FaultNone.
type faultInjector struct {
	m     *Machine
	spec  FaultSpec
	tm    *sim.Timer
	phase int // 0 idle, 1 armed, 2 active (healing pending), 3 done
}

func newFaultInjector(m *Machine) *faultInjector {
	fi := &faultInjector{m: m}
	fi.tm = m.Eng.NewTimer("fault", fi.fire)
	return fi
}

// faultKeyBand tags the fault timer's keyed sequence: above every
// fabric pipe's key band (pipe identities stay far below bit 61), so a
// fault at instant t executes after every ordinary event at t.
const faultKeyBand = uint64(1) << 61

// arm schedules the injection After from now (the window-open instant).
func (fi *faultInjector) arm(spec FaultSpec) {
	fi.spec = spec
	if spec.Kind == FaultNone {
		return
	}
	fi.phase = 1
	fi.armAfter(spec.After)
}

// armAfter arms the fault timer d from now. Multi-host machines use a
// keyed sequence so the fault orders after every ordinary event at its
// instant, keyed fabric deliveries included: the links and ports it
// fails see that instant's traffic first.
func (fi *faultInjector) armAfter(d sim.Time) {
	if fi.m.cfg.Hosts > 1 {
		fi.tm.ArmKeyed(fi.m.Eng.Now()+d, sim.SeqBand|faultKeyBand|uint64(fi.phase))
		return
	}
	fi.tm.ArmAfter(d)
}

func (fi *faultInjector) fire() {
	switch fi.phase {
	case 1:
		fi.inject()
		fi.phase = 2
		fi.armAfter(fi.spec.Outage)
	case 2:
		fi.heal()
		fi.phase = 3
	}
}

// linkPair returns both directions of machine link i (host-order).
func (m *Machine) linkPair(i int) (*ether.Pipe, *ether.Pipe) {
	var links []*ether.Pipe
	for _, h := range m.Hosts {
		links = append(links, h.Links...)
	}
	return links[2*i], links[2*i+1]
}

// numLinks returns the machine's access-link count.
func (m *Machine) numLinks() int {
	n := 0
	for _, h := range m.Hosts {
		n += len(h.Links)
	}
	return n / 2
}

func (fi *faultInjector) setLink(i int, down bool) {
	a, b := fi.m.linkPair(i)
	a.SetDown(down)
	b.SetDown(down)
}

func (fi *faultInjector) inject() {
	switch fi.spec.Kind {
	case FaultLinkFlap:
		fi.setLink(fi.spec.Target, true)
	case FaultBlackout:
		for i := 0; i < fi.m.numLinks(); i++ {
			fi.setLink(i, true)
		}
	case FaultPortFail:
		fi.m.Fabric.FailPort(fi.spec.Target)
	}
}

func (fi *faultInjector) heal() {
	switch fi.spec.Kind {
	case FaultLinkFlap:
		fi.setLink(fi.spec.Target, false)
	case FaultBlackout:
		for i := 0; i < fi.m.numLinks(); i++ {
			fi.setLink(i, false)
		}
	case FaultPortFail:
		fi.m.Fabric.RestorePort(fi.spec.Target)
	}
}
