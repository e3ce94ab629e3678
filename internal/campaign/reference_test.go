//go:build !race

package campaign

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"cdna/internal/sim"
	"cdna/internal/topo"
	"cdna/internal/workload"
)

// The committed result reference: one SHA-256 of WriteJSON per canned
// preset, at short windows with a fixed seed, in
// testdata/preset_digests.txt. Reruns in one process cannot catch a
// deterministic change of model semantics; this can. A change that is
// meant to move results regenerates the file with
//
//	go test ./internal/campaign/ -run TestPresetDigests -update
//
// and the testdata diff shows which presets moved.
//
// Race builds are excluded: the sweeps are single-engine deterministic
// code, which the detector only slows down.

var update = flag.Bool("update", false, "rewrite testdata/preset_digests.txt from the current model")

const (
	digestFile    = "testdata/preset_digests.txt"
	digestSeed    = 7
	digestWarmup  = 50 * sim.Millisecond
	digestWindow  = 150 * sim.Millisecond
	digestWorkers = 2
)

// digestPresets are the canned campaigns, by their cdnasweep -preset
// names.
var digestPresets = []struct {
	name  string
	grids func() []Grid
}{
	{"paper", PaperGrids},
	{"tables", Tables234Grids},
	{"workloads", WorkloadGrids},
	{"topology", TopologyGrids},
	{"faults", FaultGrids},
	{"fabrics", FabricGrids},
	{"openloop", OpenLoopGrids},
}

// seeded sets seed on every workload and fabric spec of the grids; an
// empty axis gets one default spec carrying it.
func seeded(grids []Grid, seed uint64) []Grid {
	out := make([]Grid, len(grids))
	for i, g := range grids {
		wls := append([]workload.Spec(nil), g.Workloads...)
		if len(wls) == 0 {
			wls = []workload.Spec{{}}
		}
		for j := range wls {
			wls[j].Seed = seed
		}
		fabs := append([]topo.FabricSpec(nil), g.Fabrics...)
		if len(fabs) == 0 {
			fabs = []topo.FabricSpec{{}}
		}
		for j := range fabs {
			fabs[j].Seed = seed
		}
		g.Workloads, g.Fabrics = wls, fabs
		out[i] = g
	}
	return out
}

// presetDigest runs one preset and hashes its JSON output.
func presetDigest(t *testing.T, grids []Grid) string {
	t.Helper()
	cfgs := Apply(Expand(seeded(grids, digestSeed)...), digestWarmup, digestWindow)
	outs := Run(cfgs, Options{Workers: digestWorkers})
	if err := Check(outs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, outs); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", digestFile, sc.Text())
		}
		want[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestPresetDigests recomputes every preset's digest and compares it
// with the committed one. The digests assume amd64: Go may fuse
// multiply-adds into FMA instructions on arm64 (and others), which
// changes float results in the last bit, so other architectures skip.
func TestPresetDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("committed digests are amd64 results; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	got := make(map[string]string, len(digestPresets))
	for _, p := range digestPresets {
		got[p.name] = presetDigest(t, p.grids())
	}
	if *update {
		var b strings.Builder
		for _, p := range digestPresets {
			fmt.Fprintf(&b, "%s  %s\n", got[p.name], p.name)
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDigests(t)
	for _, p := range digestPresets {
		if want[p.name] != got[p.name] {
			t.Errorf("preset %s: digest %s, committed %s: results changed (if intended, rerun with -update and explain the diff)",
				p.name, got[p.name], want[p.name])
		}
	}
	if len(want) != len(digestPresets) {
		t.Errorf("%s has %d presets, want %d", digestFile, len(want), len(digestPresets))
	}
}
