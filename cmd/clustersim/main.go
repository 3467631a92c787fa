// Command clustersim runs one benchmark under one machine configuration
// and prints the full statistics record.
//
// Usage:
//
//	clustersim -kernel gsmdec -clusters 4 -vp stride -steer vpb \
//	           -topology bus -commlat 1 -paths 0 -vptable 131072 -scale 1
//
// Examples:
//
//	clustersim -kernel cjpeg -clusters 1                      # centralized
//	clustersim -kernel cjpeg -clusters 4 -vp stride -steer vpb
//	clustersim -kernel cjpeg -clusters 4w16q:2w8q:2w8q        # asymmetric big/LITTLE
//	clustersim -kernel mpeg2enc -clusters 4 -commlat 4        # slow wires
//	clustersim -kernel cjpeg -clusters 4 -topology mesh -paths 1
//	clustersim -trace-in cjpeg.cvt -clusters 4 -vp stride     # replay a .cvt
//	clustersim -kernel cjpeg -trace-out cjpeg.cvt             # record while simulating
//	clustersim -kernel cjpeg -remote http://127.0.0.1:8090    # run on a clusterd server
//	clustersim -kernel cjpeg -remote http://127.0.0.1:8090 \
//	           -trace-out prof.json                           # + save the server-side timeline
//
// -remote submits the identical run to a clusterd instance (uploading
// the -trace-in file first when one is named) and prints exactly what
// the local run would print: both modes build their machine from the
// same config.MachineSpec, and the returned stats.Results record is
// rendered by the same code. Against a multi-tenant server, pass the
// tenant's API key with -api-key (or the CLUSTERSIM_API_KEY environment
// variable, which keeps the key out of shell history).
//
// -trace-out is mode-sensitive: locally it records the instruction
// stream as a .cvt container; with -remote it instead downloads the
// job's server-side span timeline as Chrome trace-event JSON
// (GET /v1/jobs/{id}/trace?format=chrome), ready to drop into
// chrome://tracing or https://ui.perfetto.dev. The timeline is saved
// even when the job fails — that is when you want it most.
//
// Unknown enum values (-vp, -steer, -topology) and unparsable -clusters
// machine descriptions exit with status 2 and one shared message
// listing the valid choices for every enum flag. Simulation failures —
// including corrupt or truncated trace files and exceeded -maxcycles
// budgets — print the error to stderr and exit 1; a failed remote job
// reports the server's error the same way.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"clustervp"
	"clustervp/internal/config"
	"clustervp/internal/core"
	"clustervp/internal/runner"
	"clustervp/internal/service"
	"clustervp/internal/service/client"
	"clustervp/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// enumFlags describes every enumerated flag once, so a bad value on any
// of them prints the valid choices for all of them — the user fixing
// one flag usually needs the neighbours too.
var enumFlags = []struct{ name, choices string }{
	{"-clusters", "1, 2, 4 (Table 1 presets), or a cluster spec string like 4w16q:2w8q:2w8q"},
	{"-vp", strings.Join(clustervp.VPs(), ", ")},
	{"-steer", strings.Join(clustervp.Steerings(), ", ")},
	{"-topology", strings.Join(clustervp.Topologies(), ", ")},
}

// printEnumHelp writes the shared valid-choices table.
func printEnumHelp(w io.Writer) {
	fmt.Fprintln(w, "valid enum flag values:")
	for _, f := range enumFlags {
		fmt.Fprintf(w, "  %-10s %s\n", f.name, f.choices)
	}
}

// enumFlagNamed reports whether the flag-package error text names one
// of the enum flags (e.g. "flag needs an argument: -vp" for a bare
// flag at the end of the command line). Matching is per whitespace
// token, not substring, so an error about -vptable does not read as
// one about -vp.
func enumFlagNamed(err error) bool {
	for _, tok := range strings.Fields(err.Error()) {
		tok = strings.TrimRight(tok, ":,")
		for _, f := range enumFlags {
			if tok == f.name {
				return true
			}
		}
	}
	return false
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clustersim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kernel := fs.String("kernel", "gsmdec", "benchmark kernel (see -list)")
	list := fs.Bool("list", false, "list available kernels and exit")
	clusters := fs.String("clusters", "4", "1, 2, 4 (presets) or a cluster spec string like 4w16q:2w8q:2w8q")
	vp := fs.String("vp", "none", "value predictor: "+strings.Join(clustervp.VPs(), ", "))
	steerKind := fs.String("steer", "baseline", "steering: "+strings.Join(clustervp.Steerings(), ", "))
	topology := fs.String("topology", "bus", "interconnect topology: "+strings.Join(clustervp.Topologies(), ", "))
	commlat := fs.Int("commlat", 1, "inter-cluster communication latency per hop (cycles)")
	paths := fs.Int("paths", 0, "inter-cluster paths per cluster/link (0 = unbounded)")
	vptable := fs.Int("vptable", 128*1024, "value prediction table entries")
	rename := fs.Int("rename", 1, "rename/steer stage depth in cycles")
	scale := fs.Int("scale", 1, "workload scale factor")
	seed := fs.Uint64("seed", 0, "re-seed the kernel's input data (0 = canonical)")
	maxCycles := fs.Int64("maxcycles", 0, "abort the simulation after this many cycles (0 = default budget)")
	traceIn := fs.String("trace-in", "", "replay this .cvt trace instead of synthesizing -kernel")
	traceOut := fs.String("trace-out", "", "record the instruction stream into this .cvt file; with -remote, save the job's Chrome trace timeline JSON here instead")
	asJSON := fs.Bool("json", false, "emit the result as a single JSON object instead of text")
	remote := fs.String("remote", "", "submit the run to a clusterd server at this base URL instead of simulating locally")
	apiKey := fs.String("api-key", "", "API key for a multi-tenant clusterd (requires -remote; also read from CLUSTERSIM_API_KEY)")
	if err := fs.Parse(args); err != nil {
		// A bare enum flag ("clustersim -vp") dies inside the flag
		// package; still surface the shared choices table.
		if enumFlagNamed(err) {
			printEnumHelp(stderr)
		}
		return 2
	}

	// fail: bad command line, exit 2 (the flag package's own code).
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		fs.Usage()
		return 2
	}
	// failEnum: a bad enumerated value; print the shared choices table
	// (once, for all enum flags) instead of the full usage dump.
	failEnum := func(flagName string, err error) int {
		fmt.Fprintf(stderr, "invalid %s: %v\n", flagName, err)
		printEnumHelp(stderr)
		return 2
	}

	if *list {
		for _, k := range clustervp.KernelInfos() {
			fmt.Fprintf(stdout, "%-12s %-12s %s\n", k.Name, k.Category, k.Description)
		}
		return 0
	}

	// Individual enum validation first, so a bad value is attributed to
	// its flag and answered with the shared choices table.
	machine := strings.TrimSpace(*clusters)
	if _, err := config.ParseMachine(machine); err != nil {
		return failEnum("-clusters", err)
	}
	vpKind, err := clustervp.ParseVP(strings.ToLower(*vp))
	if err != nil {
		return failEnum("-vp", err)
	}
	steering, err := clustervp.ParseSteering(strings.ToLower(*steerKind))
	if err != nil {
		return failEnum("-steer", err)
	}
	topo, err := clustervp.ParseTopology(strings.ToLower(*topology))
	if err != nil {
		return failEnum("-topology", err)
	}
	// Locally -trace-out records the instruction stream, which a replay
	// (-trace-in) already has; remotely it saves the server's timeline,
	// which a replayed job has too, so the combination is fine there.
	if *remote == "" && *traceIn != "" && *traceOut != "" {
		return fail("-trace-in and -trace-out are mutually exclusive")
	}
	if *apiKey != "" && *remote == "" {
		return fail("-api-key only makes sense with -remote")
	}
	// MachineSpec treats zero as "keep the default", so flag values the
	// old builder chain would have rejected must be rejected here.
	if *commlat < 1 || *rename < 1 || *vptable < 1 || *scale < 1 || *maxCycles < 0 || *paths < 0 {
		return fail("invalid configuration: -commlat, -rename, -vptable and -scale must be >= 1; -paths and -maxcycles must be >= 0")
	}

	// Both the local and the remote path build the machine through the
	// same config.MachineSpec — what -remote submits is byte-for-byte
	// what runs locally.
	spec := config.MachineSpec{
		Clusters:       machine,
		VP:             strings.ToLower(*vp),
		Steering:       strings.ToLower(*steerKind),
		Topology:       strings.ToLower(*topology),
		CommLatency:    *commlat,
		CommPaths:      *paths,
		VPTableEntries: *vptable,
		RenameCycles:   *rename,
		MaxCycles:      *maxCycles,
	}
	cfg, err := spec.Build()
	if err != nil {
		// Whole-config validation catches bad combinations of the
		// numeric flags; those are not enum errors, so report them
		// neutrally rather than blaming -clusters.
		return fail("invalid configuration: %v", err)
	}

	// sim error: valid command line but the run failed (corrupt trace,
	// cycle budget, watchdog, remote failure) — report on stderr, exit 1.
	var r clustervp.Results
	if *remote != "" {
		key := *apiKey
		if key == "" {
			key = os.Getenv("CLUSTERSIM_API_KEY")
		}
		r, err = runRemote(*remote, key, spec, *kernel, *scale, *seed, *traceIn, *traceOut)
	} else {
		r, err = simulate(cfg, *kernel, *scale, *seed, *traceIn, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}

	if *asJSON {
		job := clustervp.Job{Config: cfg, Kernel: r.Benchmark, Scale: *scale, Seed: *seed, Trace: *traceIn}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(clustervp.ToRecord(clustervp.JobResult{Job: job, Res: r})); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "benchmark            %s\n", r.Benchmark)
	fmt.Fprintf(stdout, "configuration        %s (vp=%s steer=%s topology=%s commlat=%d paths=%d)\n",
		cfg.Name, vpKind, steering, topo, *commlat, *paths)
	fmt.Fprintf(stdout, "clusters             %d (%s)\n", cfg.NumClusters(), cfg.SpecString())
	fmt.Fprintf(stdout, "cycles               %d\n", r.Cycles)
	fmt.Fprintf(stdout, "instructions         %d\n", r.Instructions)
	fmt.Fprintf(stdout, "IPC                  %.4f\n", r.IPC())
	fmt.Fprintf(stdout, "copies               %d\n", r.Copies)
	fmt.Fprintf(stdout, "verification-copies  %d\n", r.VerifyCopies)
	fmt.Fprintf(stdout, "transfers            %d (%.4f per instruction, %.2f mean hops)\n",
		r.BusTransfers, r.CommPerInstr(), r.MeanHops())
	fmt.Fprintf(stdout, "transfer stalls      %d\n", r.BusStalls)
	fmt.Fprintf(stdout, "workload imbalance   %.4f (NREADY per cycle)\n", r.Imbalance())
	fmt.Fprintf(stdout, "reissues             %d\n", r.Reissues)
	fmt.Fprintf(stdout, "predicted operands   %d used, %d wrong\n", r.PredictedOperandsUsed, r.PredictedOperandsWrong)
	fmt.Fprintf(stdout, "VP lookups           %d (%.1f%% confident, hit ratio %.3f)\n",
		r.VP.Lookups, 100*r.VP.ConfidentFraction(), r.VP.HitRatio())
	fmt.Fprintf(stdout, "branch accuracy      %.4f (%d seen)\n", r.BranchAccuracy(), r.BranchSeen)
	fmt.Fprintf(stdout, "cache misses         L1I=%d L1D=%d L2=%d\n", r.L1IMisses, r.L1DMisses, r.L2Misses)
	fmt.Fprintf(stdout, "dispatch stalls      rob=%d iq=%d regs=%d\n",
		r.DispatchStallROB, r.DispatchStallIQ, r.DispatchStallRegs)
	for c, pc := range r.PerCluster {
		fmt.Fprintf(stdout, "cluster %-2d %-12s dispatched=%d issued=%d copies-out=%d mean-iq-occ=%.2f\n",
			c, pc.Spec, pc.Dispatched, pc.Issued, pc.CopiesOut, pc.MeanIQOcc(r.Cycles))
	}
	return 0
}

// runRemote submits the run to a clusterd server and waits for the
// result. A -trace-in file is uploaded to the server's
// content-addressed store first and referenced by digest, so the
// server replays exactly the bytes the local run would. A non-empty
// traceOut downloads the job's server-side span timeline as Chrome
// trace-event JSON afterwards — even for a failed job, whose timeline
// shows where it died.
func runRemote(base, apiKey string, spec config.MachineSpec, kernel string, scale int, seed uint64, traceIn, traceOut string) (clustervp.Results, error) {
	ctx := context.Background()
	var opts []client.Option
	if apiKey != "" {
		opts = append(opts, client.WithAPIKey(apiKey))
	}
	c := client.New(base, opts...)
	req := service.JobRequest{Machine: spec, Kernel: kernel, Scale: scale, Seed: seed}
	if traceIn != "" {
		digest, _, err := c.UploadTraceFile(ctx, traceIn)
		if err != nil {
			return clustervp.Results{}, fmt.Errorf("uploading %s: %w", traceIn, err)
		}
		req.Kernel = ""
		req.TraceDigest = digest
	}
	st, err := c.Run(ctx, req)
	if err != nil {
		return clustervp.Results{}, err
	}
	if traceOut != "" && st.ID != "" {
		if terr := saveRemoteTimeline(ctx, c, st.ID, traceOut); terr != nil {
			return clustervp.Results{}, fmt.Errorf("saving timeline %s: %w", traceOut, terr)
		}
	}
	if st.State != service.StateDone || st.Results == nil {
		return clustervp.Results{}, fmt.Errorf("remote job %s %s: %s", st.ID, st.State, st.Error)
	}
	return *st.Results, nil
}

// saveRemoteTimeline writes one job's Chrome trace JSON to out.
func saveRemoteTimeline(ctx context.Context, c *client.Client, jobID, out string) error {
	raw, err := c.JobTraceChrome(ctx, jobID)
	if err != nil {
		return err
	}
	return os.WriteFile(out, raw, 0o644)
}

// simulate routes the three instruction-stream modes: replay a .cvt
// file, record one while simulating, or plain in-process synthesis.
func simulate(cfg clustervp.Config, kernel string, scale int, seed uint64, traceIn, traceOut string) (clustervp.Results, error) {
	switch {
	case traceIn != "":
		return clustervp.RunTraceFile(cfg, traceIn)
	case traceOut != "":
		return recordAndRun(cfg, kernel, scale, seed, traceOut)
	default:
		return runner.Simulate(runner.Job{Config: cfg, Kernel: kernel, Scale: scale, Seed: seed})
	}
}

// recordAndRun simulates the kernel while teeing the consumed
// instruction stream into a .cvt file; trace.FileWriter provides the
// atomic write, so a failed run leaves no partial trace.
func recordAndRun(cfg clustervp.Config, kernel string, scale int, seed uint64, out string) (clustervp.Results, error) {
	prog, err := clustervp.BuildKernelSeeded(kernel, scale, seed)
	if err != nil {
		return clustervp.Results{}, err
	}
	fw, err := trace.CreateFile(out, prog.Name, prog.Code)
	if err != nil {
		return clustervp.Results{}, err
	}
	defer fw.Abort()
	sim, err := core.NewFromSource(cfg, trace.Tee(trace.NewExecutor(prog), fw.Writer), prog.Name)
	if err != nil {
		return clustervp.Results{}, err
	}
	res, err := sim.Run()
	if err != nil {
		return res, err
	}
	return res, fw.Commit()
}
