// Command cdnasweep runs a whole experiment campaign — a grid of
// configurations — in parallel across a worker pool and emits the full
// machine-readable result set as JSON (and optionally CSV). One
// invocation with -preset paper reproduces every table and figure of
// the evaluation; EXPERIMENTS.md documents the output schema.
//
// Examples:
//
//	cdnasweep -preset tables -workers 8 -json results.json
//	cdnasweep -preset paper -quick -csv results.csv
//	cdnasweep -modes xen,cdna -dirs tx,rx -guests 1,2,4,8
//	cdnasweep -modes cdna -dirs tx -protections hypercall,iommu,off
//	cdnasweep -preset workloads -csv workloads.csv
//	cdnasweep -modes xen,cdna -workloads rr,churn,burst
//	cdnasweep -preset topology -json topo.json
//	cdnasweep -hosts 8 -preset topology
//	cdnasweep -modes xen,cdna -hosts 2,4,8 -patterns incast,all2all
//	cdnasweep -preset faults -json faults.json
//	cdnasweep -modes cdna -hosts 3 -patterns incast -faults none,linkflap,blackout
//	cdnasweep -preset fabrics -json fabrics.json
//	cdnasweep -preset openloop -quick -csv openloop.csv
//	cdnasweep -modes xen,cdna -hosts 4 -patterns incast -fabrics tor,leafspine,fattree
//	cdnasweep -spec grid.json -workers 4
//	cdnasweep -store .cdna-store -preset faults     # local run, durable result cache
//	cdnasweep -daemon -socket d.sock -store st      # serve sweeps as a daemon
//	cdnasweep -remote -socket d.sock -preset faults # submit to the daemon
//	cdnasweep -remote -socket d.sock -drain         # graceful daemon shutdown
//
// The -modes/-nics/-dirs/... axis flags define one cross-product grid;
// -spec reads one or more grids from a JSON file (the same schema
// campaign.Grid marshals to); -preset selects a canned campaign. A
// failing grid point is reported in its record and on stderr but never
// aborts the sweep; the exit status is 1 if any point failed.
//
// -store caches results in a content-addressed durable store, so
// repeated and overlapping sweeps only simulate the delta. -daemon
// serves the same store behind a unix-socket HTTP API (crash-safe:
// accepted sweeps are journaled and resume after a kill); -remote
// submits the grid there instead of running locally, with retries and
// backoff riding out a busy or restarting daemon. Remote JSON output
// is byte-identical to a local run's. DESIGN.md ("Campaign service")
// documents the protocol.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cdna/internal/bench"
	"cdna/internal/campaign"
	"cdna/internal/core"
	"cdna/internal/daemon"
	"cdna/internal/sim"
	"cdna/internal/store"
	"cdna/internal/topo"
	"cdna/internal/workload"
)

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cdnasweep: "+format+"\n", args...)
	os.Exit(2)
}

// splitList parses a comma-separated axis flag with a per-item parser.
func splitList[T any](name, s string, parse func(string) (T, error)) []T {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var vals []T
	for _, tok := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(tok))
		if err != nil {
			fatal("-%s: %v", name, err)
		}
		vals = append(vals, v)
	}
	return vals
}

func presetGrids(name string) []campaign.Grid {
	switch name {
	case "table1":
		return campaign.Table1Grids()
	case "tables":
		return campaign.Tables234Grids()
	case "figures":
		return campaign.FigureGrids()
	case "ablations":
		return campaign.AblationGrids()
	case "workloads":
		return campaign.WorkloadGrids()
	case "topology":
		return campaign.TopologyGrids()
	case "faults":
		return campaign.FaultGrids()
	case "fabrics":
		return campaign.FabricGrids()
	case "openloop":
		return campaign.OpenLoopGrids()
	case "paper":
		return campaign.PaperGrids()
	}
	fatal("unknown preset %q (want table1 | tables | figures | ablations | workloads | topology | faults | fabrics | openloop | paper)", name)
	return nil
}

func main() {
	preset := flag.String("preset", "", "canned campaign: table1 | tables | figures | ablations | workloads | topology | paper")
	spec := flag.String("spec", "", "JSON grid spec file (a campaign.Grid object or array)")

	modes := flag.String("modes", "", "comma list: native | xen | cdna")
	nics := flag.String("nics", "", "comma list: intel | ricenic (Xen only; native/CDNA fix their NIC)")
	dirs := flag.String("dirs", "", "comma list: tx | rx | both")
	guests := flag.String("guests", "", "comma list of guest counts")
	nicCounts := flag.String("niccounts", "", "comma list of physical NIC counts")
	protections := flag.String("protections", "", "comma list: hypercall | iommu | off")
	batches := flag.String("batches", "", "comma list of max descriptors per enqueue (A2; 0 = unlimited)")
	irqs := flag.String("irqs", "", "comma list of bools: direct per-context IRQ delivery (A1)")
	coalesce := flag.String("coalesce", "", "comma list of tx coalescing thresholds (A5; 0 = default)")
	workloads := flag.String("workloads", "", "comma list: bulk | rr | churn | burst (per-kind defaults; use -spec for knobs)")
	hosts := flag.String("hosts", "", "comma list of fabric host counts (1 = classic host+peer; also overrides a preset's host axis)")
	patterns := flag.String("patterns", "", "comma list: pairs | incast | all2all (cross-host scenarios, hosts > 1)")
	fabrics := flag.String("fabrics", "", "comma list: tor | leafspine | fattree (switching topologies, hosts > 1; defaults per kind, use -spec for knobs)")
	faults := flag.String("faults", "", "comma list: none | linkflap | portfail | blackout (default quarter-window schedule; use -spec for exact timing)")
	conns := flag.Int("conns", 0, "connections per guest per NIC (0 = balanced default)")
	window := flag.Int("window", 0, "transport window in segments (0 = default)")

	quick := flag.Bool("quick", false, "short measurement windows")
	duration := flag.Float64("duration", 0, "measurement window in simulated seconds (overrides -quick)")
	warmup := flag.Float64("warmup", 0, "warmup in simulated seconds (overrides -quick)")
	workers := flag.Int("workers", 0, "concurrent experiments (0 = GOMAXPROCS)")
	jsonPath := flag.String("json", "-", "JSON output path (- = stdout, empty = none)")
	csvPath := flag.String("csv", "", "CSV output path (- = stdout)")
	progress := flag.Bool("progress", true, "report per-experiment completion on stderr")

	daemonMode := flag.Bool("daemon", false, "serve sweeps as a long-running daemon on -socket (requires -store); SIGINT/SIGTERM drain gracefully")
	remote := flag.Bool("remote", false, "submit the sweep to the daemon at -socket instead of running locally")
	socket := flag.String("socket", "", "unix socket path of the sweep daemon (with -daemon / -remote)")
	storeDir := flag.String("store", "", "durable result-store directory: the daemon's storage with -daemon, a local result cache otherwise")
	queueDepth := flag.Int("queue", 0, "daemon work-queue depth (0 = 8); submissions beyond it are shed with a retryable 429")
	expTimeout := flag.Duration("exp-timeout", 0, "per-experiment watchdog wall-clock deadline (0 = none; local and -daemon runs)")
	drain := flag.Bool("drain", false, "with -remote: ask the daemon to drain gracefully, then exit")
	requireHitRate := flag.Float64("require-hit-rate", -1, "with -remote or -store: exit 1 unless the sweep's cache hit rate reaches this fraction (0..1)")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal("unexpected arguments %q", flag.Args())
	}

	switch {
	case *daemonMode && *remote:
		fatal("-daemon and -remote are mutually exclusive")
	case *daemonMode && *socket == "":
		fatal("-daemon requires -socket")
	case *daemonMode && *storeDir == "":
		fatal("-daemon requires -store (the durable result store)")
	case *remote && *socket == "":
		fatal("-remote requires -socket")
	case *remote && *storeDir != "":
		fatal("-store is the daemon's side of a -remote run; set it on the -daemon process")
	case *drain && !*remote:
		fatal("-drain requires -remote")
	case *requireHitRate >= 0 && !*remote && *storeDir == "":
		fatal("-require-hit-rate needs a cache: combine with -remote or -store")
	case *requireHitRate > 1:
		fatal("-require-hit-rate is a fraction in [0, 1]")
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "cdnasweep: "+format+"\n", args...)
	}

	if *daemonMode {
		// The daemon defines no grid of its own — clients submit grids,
		// windows, and outputs. Reject anything sweep-shaped.
		allowed := map[string]bool{
			"daemon": true, "socket": true, "store": true, "queue": true,
			"exp-timeout": true, "workers": true, "progress": true,
		}
		flag.Visit(func(f *flag.Flag) {
			if !allowed[f.Name] {
				fatal("-%s does not apply to -daemon (clients define sweeps and outputs)", f.Name)
			}
		})
		d, err := daemon.New(daemon.Config{
			Socket:     *socket,
			StoreDir:   *storeDir,
			QueueDepth: *queueDepth,
			Workers:    *workers,
			ExpTimeout: *expTimeout,
			Logf:       logf,
		})
		if err != nil {
			fatal("%v", err)
		}
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			logf("signal received; draining")
			d.Drain()
		}()
		if err := d.Serve(); err != nil {
			fatal("%v", err)
		}
		return
	}

	if *drain {
		c := daemon.NewClient(*socket)
		c.Logf = logf
		if err := c.Drain(); err != nil {
			fatal("%v", err)
		}
		return
	}

	// Axis flags define an ad-hoc grid; they cannot constrain a canned
	// preset or a spec file, so reject the combination instead of
	// silently ignoring them. -hosts is the exception: it overrides the
	// host axis of a preset/spec grid too (so `-hosts 8 -preset
	// topology` re-scales the whole canned campaign to one rack size).
	axisFlags := map[string]bool{
		"modes": true, "nics": true, "dirs": true, "guests": true,
		"niccounts": true, "protections": true, "batches": true,
		"irqs": true, "coalesce": true, "conns": true, "window": true,
		"workloads": true, "patterns": true, "faults": true, "fabrics": true,
	}
	if *preset != "" || *spec != "" {
		flag.Visit(func(f *flag.Flag) {
			if axisFlags[f.Name] {
				fatal("-%s cannot be combined with -preset/-spec (axis flags define their own grid)", f.Name)
			}
		})
	}

	var grids []campaign.Grid
	switch {
	case *preset != "" && *spec != "":
		fatal("-preset and -spec are mutually exclusive")
	case *preset != "":
		grids = presetGrids(*preset)
	case *spec != "":
		f, err := os.Open(*spec)
		if err != nil {
			fatal("%v", err)
		}
		grids, err = campaign.ReadGrids(f)
		f.Close()
		if err != nil {
			fatal("%v", err)
		}
	default:
		g := campaign.Grid{
			Modes:             splitList("modes", *modes, bench.ParseMode),
			NICs:              splitList("nics", *nics, bench.ParseNICKind),
			Dirs:              splitList("dirs", *dirs, bench.ParseDirection),
			Guests:            splitList("guests", *guests, strconv.Atoi),
			NICCounts:         splitList("niccounts", *nicCounts, strconv.Atoi),
			Protections:       splitList("protections", *protections, core.ParseMode),
			MaxEnqueueBatches: splitList("batches", *batches, strconv.Atoi),
			IRQDeliveries:     splitList("irqs", *irqs, strconv.ParseBool),
			TxCoalesce:        splitList("coalesce", *coalesce, strconv.Atoi),
			Workloads: splitList("workloads", *workloads, func(s string) (workload.Spec, error) {
				k, err := workload.ParseKind(s)
				return workload.Spec{Kind: k}, err
			}),
			Hosts:    splitList("hosts", *hosts, strconv.Atoi),
			Patterns: splitList("patterns", *patterns, bench.ParsePattern),
			Fabrics: splitList("fabrics", *fabrics, func(s string) (topo.FabricSpec, error) {
				k, err := topo.ParseFabricKind(s)
				return topo.FabricSpec{Kind: k}, err
			}),
			Faults: splitList("faults", *faults, func(s string) (bench.FaultSpec, error) {
				k, err := bench.ParseFaultKind(s)
				return bench.FaultSpec{Kind: k}, err
			}),
			Conns:  *conns,
			Window: *window,
		}
		if len(g.Dirs) == 0 {
			g.Dirs = []bench.Direction{bench.Tx}
		}
		// A pattern axis without a host axis would be silently collapsed
		// by the single-host default — reject it like any other
		// constraint the grid cannot honor.
		if len(g.Patterns) > 0 && len(g.Hosts) == 0 {
			fatal("-patterns requires -hosts (cross-host scenarios need a multi-host fabric)")
		}
		if len(g.Fabrics) > 0 && len(g.Hosts) == 0 {
			fatal("-fabrics requires -hosts (a multi-tier fabric needs a rack to connect)")
		}
		grids = []campaign.Grid{g}
	}
	if *hosts != "" && (*preset != "" || *spec != "") {
		hs := splitList("hosts", *hosts, strconv.Atoi)
		for i := range grids {
			grids[i].Hosts = hs
		}
	}

	wu, du := sim.Time(0), sim.Time(0)
	if *quick {
		o := bench.Quick()
		wu, du = o.Warmup, o.Duration
	}
	if *warmup != 0 {
		wu = sim.Time(*warmup * float64(sim.Second))
	}
	if *duration != 0 {
		du = sim.Time(*duration * float64(sim.Second))
	}
	if err := campaign.Validate(wu, du, grids...); err != nil {
		fatal("%v", err)
	}
	cfgs := campaign.Apply(campaign.Expand(grids...), wu, du)
	if len(cfgs) == 0 {
		fatal("grid expands to zero experiments")
	}

	emit := func(path string, write func(f *os.File) error) {
		if path == "" {
			return
		}
		f := os.Stdout
		if path != "-" {
			var err error
			f, err = os.Create(path)
			if err != nil {
				fatal("%v", err)
			}
			defer f.Close()
		}
		if err := write(f); err != nil {
			fatal("%v", err)
		}
	}

	if *remote {
		c := daemon.NewClient(*socket)
		c.Logf = logf
		req := daemon.SweepRequest{Grids: grids, Warmup: wu, Duration: du, Workers: *workers}
		var onEvent func(daemon.ProgressEvent)
		if *progress {
			onEvent = func(ev daemon.ProgressEvent) {
				if ev.State != "" || ev.Name == "" {
					return // terminal marker, not an experiment
				}
				status := fmt.Sprintf("%7.0f Mb/s", ev.Mbps)
				if ev.Error != "" {
					status = "FAILED: " + ev.Error
				}
				fmt.Fprintf(os.Stderr, "[%3d/%3d] %-32s %s\n", ev.Done, ev.Total, ev.Name, status)
			}
		}
		start := time.Now()
		// RunSweep rides out queue-full and draining rejections with
		// backoff, re-attaches across daemon restarts (submission is
		// idempotent by content), and returns the daemon's result bytes
		// verbatim — byte-identical to a local run's JSON.
		raw, err := c.RunSweep(req, onEvent)
		if err != nil {
			fatal("%v", err)
		}
		recs, err := campaign.ReadJSON(bytes.NewReader(raw))
		if err != nil {
			fatal("decoding daemon results: %v", err)
		}
		if *progress {
			fmt.Fprintf(os.Stderr, "%d experiments in %.1fs wall clock (remote)\n", len(recs), time.Since(start).Seconds())
		}
		id, err := req.ID()
		if err != nil {
			fatal("%v", err)
		}
		st, err := c.Status(id)
		if err != nil {
			fatal("fetching sweep status: %v", err)
		}
		logf("cache: %d hits / %d misses (hit rate %.0f%%)",
			st.Cache.Hits, st.Cache.Misses, st.Cache.HitRate()*100)
		emit(*jsonPath, func(f *os.File) error { _, err := f.Write(raw); return err })
		emit(*csvPath, func(f *os.File) error { return campaign.WriteCSVRecords(f, recs) })
		if *requireHitRate >= 0 && st.Cache.HitRate() < *requireHitRate {
			fmt.Fprintf(os.Stderr, "cdnasweep: cache hit rate %.2f below required %.2f\n",
				st.Cache.HitRate(), *requireHitRate)
			os.Exit(1)
		}
		for _, rec := range recs {
			if rec.Failed() {
				fmt.Fprintf(os.Stderr, "cdnasweep: %s failed: %s\n", rec.Name, rec.Error)
				os.Exit(1)
			}
		}
		return
	}

	opt := campaign.Options{Workers: *workers, Timeout: *expTimeout}
	var cacheStats campaign.CacheStats
	if *storeDir != "" {
		s, err := store.Open(*storeDir)
		if err != nil {
			fatal("%v", err)
		}
		opt.Exec = campaign.CachedExec(s, &cacheStats)
	}
	if *progress {
		opt.Progress = func(done, total int, out bench.Outcome) {
			status := fmt.Sprintf("%7.0f Mb/s", out.Result.Mbps)
			if out.Err != nil {
				status = "FAILED: " + out.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%3d/%3d] %-32s %s\n", done, total, out.Config.Name(), status)
		}
	}
	start := time.Now()
	outs := campaign.Run(cfgs, opt)
	if *progress {
		fmt.Fprintf(os.Stderr, "%d experiments in %.1fs wall clock\n", len(outs), time.Since(start).Seconds())
	}
	if *storeDir != "" {
		c := cacheStats.Counts()
		logf("cache: %d hits / %d misses (hit rate %.0f%%)", c.Hits, c.Misses, c.HitRate()*100)
	}

	emit(*jsonPath, func(f *os.File) error { return campaign.WriteJSON(f, outs) })
	emit(*csvPath, func(f *os.File) error { return campaign.WriteCSV(f, outs) })

	if *requireHitRate >= 0 {
		if hr := cacheStats.Counts().HitRate(); hr < *requireHitRate {
			fmt.Fprintf(os.Stderr, "cdnasweep: cache hit rate %.2f below required %.2f\n", hr, *requireHitRate)
			os.Exit(1)
		}
	}
	if err := campaign.Check(outs); err != nil {
		fmt.Fprintf(os.Stderr, "cdnasweep: %v\n", err)
		os.Exit(1)
	}
}
