package bench

import (
	"strings"
	"testing"
)

// TestFaultGoldenDeterminism pins byte-identical fault-scenario table
// output across runs: the injection instants, the outage's drops, the
// FDB re-learning churn, and the recovery all replay exactly.
func TestFaultGoldenDeterminism(t *testing.T) {
	render := func() string {
		ft, results, err := ScenarioFaults(topoOpts(), 3)
		if err != nil {
			t.Fatal(err)
		}
		// The scenarios must actually bite: link faults destroy frames,
		// and a port failure unlearns stations so traffic floods until
		// they re-learn.
		var linkDrops, flooded uint64
		for _, res := range results {
			switch res.Config.Fault.Kind {
			case FaultLinkFlap, FaultBlackout:
				linkDrops += res.LinkDrops
			case FaultPortFail:
				flooded += res.FabricFlooded
			}
		}
		if linkDrops == 0 {
			t.Fatal("link faults dropped no frames")
		}
		if flooded == 0 {
			t.Fatal("port failure forced no FDB re-learning floods")
		}
		return ft.String()
	}
	first, second := render(), render()
	if first != second {
		t.Fatalf("reruns differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if len(first) == 0 || !strings.Contains(first, "portfail") {
		t.Fatalf("rendered fault table looks empty:\n%s", first)
	}
}
