// Command perfbench is the repository benchmark: it runs one workload
// for a fixed number of seconds and prints, as the last line of its
// standard output, one JSON object with the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1), the operations
// attempted and failed, and whether every output checked correct.
//
// Usage (normally through run.sh, which builds this command and
// clusterd first):
//
//	perfbench -workload grid-synth -seed 1 -seconds 25 -trace 0 \
//	    -root . -clusterd .bench_build/bin/clusterd
//
// Workloads: grid-synth, grid-replay, serve-box, or all of them in
// turn. See NOTES.md for why each exists and what every metric
// means.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: the run's verdict and
// metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload runner gets: its parameters and the
// places it may write.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	probe    bool   // a short traced run that lends per-layer metrics
	clusterd string // clusterd binary (serve workloads)
	work     string // scratch directory for this run, emptied first
	out      string // where traced runs write their span dump
}

// outcome is what a workload run returns: the metrics it measured,
// the operation accounting, the checks that failed, and the sample
// counts behind each tail metric (printed beside the result).
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
	samples   map[string]string
	spans     *spanLog // traced runs only
}

// set records a metric's value; its unit comes from its declaration.
func (o *outcome) set(name string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]float64{}
	}
	o.metrics[name] = v
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) sample(name, desc string) {
	if o.samples == nil {
		o.samples = map[string]string{}
	}
	o.samples[name] = desc
}

// workloadOrder is the order -workload all runs them in.
var workloadOrder = []string{"grid-synth", "grid-replay", "serve-box"}

var workloads = map[string]func(context.Context, env) (*outcome, error){
	"grid-synth":  runGridSynth,
	"grid-replay": runGridReplay,
	"serve-box":   runServeBox,
}

// probes lend a traced run the per-layer metrics of layers its own
// traffic does not reach: serve-box the service layer, the fleet
// traffic (a coordinator in front of two replicas) the fleet layer.
// The in-process layers come from the ladder every traced run ends
// with.
var probes = []struct {
	name string
	run  func(context.Context, env) (*outcome, error)
}{
	{"serve-box", runServeBox},
	{"serve-fleet", runServeFleet},
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "grid-synth, grid-replay, serve-box, or all of them in turn")
	seed := flag.Uint64("seed", 0, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 25, "measured run length")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := flag.String("root", ".", "repository checkout the benchmark runs in")
	clusterd := flag.String("clusterd", "", "clusterd binary (serve workloads)")
	captureDigests := flag.String("capture-digests", "", "write the default-seed result digests to this file and exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *captureDigests != "" {
		if err := captureDigestFile(*captureDigests); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if workloads[*workload] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want all or one of %v)\n", *workload, workloadOrder)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}

	fp := fingerprint(*root)
	fpLine, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", fpLine)

	// With -workload all, each workload's result is printed as it ends
	// and the last line sums them, metric names prefixed by workload.
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		base := filepath.Join(*root, ".bench_build")
		e := env{
			workload: name,
			seed:     *seed,
			seconds:  time.Duration(*seconds) * time.Second,
			traced:   *traceFlag == 1,
			clusterd: *clusterd,
			work:     filepath.Join(base, "work", name),
			out:      filepath.Join(base, "out"),
		}
		res, err := runWorkload(ctx, e, fp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if len(names) == 1 {
			total = res
			fmt.Println(string(line))
			break
		}
		fmt.Printf("result %s %s\n", name, line)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[name+"."+k] = m
		}
	}
	if len(names) > 1 {
		line, err := json.Marshal(total)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !total.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in a fresh work directory and returns
// its result. Failed checks are printed to standard error; per-metric
// sample notes go to standard output.
func runWorkload(ctx context.Context, e env, fp fingerprintInfo) (result, error) {
	if err := os.RemoveAll(e.work); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(e.work)

	o, err := workloads[e.workload](ctx, e)
	if err != nil {
		return result{}, err
	}
	if e.traced {
		if err := borrowLayers(ctx, e, o); err != nil {
			return result{}, err
		}
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	for _, name := range sortedKeys(o.samples) {
		fmt.Printf("samples %s: %s\n", name, o.samples[name])
	}
	if e.traced && o.spans != nil {
		path := filepath.Join(e.out, fmt.Sprintf("spans-%s-seed%d.json", e.workload, e.seed))
		if err := o.spans.write(path, fp); err != nil {
			return result{}, err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	metrics, err := report(e.workload, e.traced, o.metrics)
	if err != nil {
		return result{}, err
	}
	return result{
		Correct:   len(o.problems) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   metrics,
	}, nil
}

// probeSeconds is a probe's measured window.
const probeSeconds = 4 * time.Second

// borrowLayers runs a short traced probe of each traffic in probes,
// other than the run's own, while per-layer metrics are missing, and
// takes from it only the metrics the run did not measure itself. The
// probe's operations are checked like the run's own and count towards
// attempted and failed.
func borrowLayers(ctx context.Context, e env, o *outcome) error {
	for _, p := range probes {
		name := p.name
		if name == e.workload || len(missing(perLayer, o.metrics)) == 0 {
			continue
		}
		pe := e
		pe.workload, pe.seconds, pe.probe = name, probeSeconds, true
		pe.work = filepath.Join(e.work, "probe-"+name)
		if err := os.MkdirAll(pe.work, 0o755); err != nil {
			return err
		}
		po, err := p.run(ctx, pe)
		if err != nil {
			return fmt.Errorf("%s probe: %w", name, err)
		}
		o.attempted += po.attempted
		o.failed += po.failed
		for _, msg := range po.problems {
			o.problem("%s probe: %s", name, msg)
		}
		for _, m := range missing(perLayer, o.metrics) {
			if v, ok := po.metrics[m]; ok {
				o.set(m, v)
				o.sample(m, fmt.Sprintf("from a %v %s probe", probeSeconds, name))
			}
		}
		if po.spans != nil {
			o.spans.add(po.spans.all()...)
		}
	}
	return nil
}

// missing lists the declared metrics absent from values.
func missing(decls []metricDecl, values map[string]float64) []string {
	var out []string
	for _, d := range decls {
		if _, ok := values[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
