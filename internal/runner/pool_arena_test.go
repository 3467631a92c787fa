package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"clustervp/internal/config"
	"clustervp/internal/core"
	"clustervp/internal/stats"
	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

// simulateWith is an Options.Run that simulates with an explicit trace
// arena and Sim pool (nil opts out of either) instead of the
// process-wide ones.
func simulateWith(arena *trace.Arena, pool *core.Pool) func(Job) (stats.Results, error) {
	return func(j Job) (stats.Results, error) { return simulate(j, 0, nil, arena, pool, nil) }
}

// TestSimulatePoolArenaDeterminism is the acceptance gate for the cold
// path rework: results must be byte-identical with the Sim pool and
// trace arena on or off, at any worker count. The baseline is the fully
// cold path (fresh Sim per job, every replay streamed through the
// pipelined reader, no arena sharing); every accelerated configuration
// must reproduce it exactly.
func TestSimulatePoolArenaDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	dir := t.TempDir()
	cfgs := []config.Config{
		config.Preset(1),
		config.Preset(2).WithVP(config.VPStride),
		config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB),
	}
	var jobs []Job
	for _, c := range cfgs {
		jobs = append(jobs,
			Job{Config: c, Kernel: "cjpeg", Scale: 1},
			Job{Config: c, Kernel: "rawcaudio", Scale: 1},
		)
	}
	traced, err := MaterializeTraces(dir, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Mix replayed and in-process jobs: both flows cross the pool.
	all := append(append([]Job(nil), traced...), jobs[0], jobs[3])

	// Cold baseline: no pool, no arena, pipelined streaming decode.
	want := make([]Result, len(all))
	for i, j := range all {
		res, err := simulate(j, 0, nil, nil, nil, nil)
		if err != nil {
			t.Fatalf("baseline %s: %v", j, err)
		}
		want[i] = Result{Job: j, Res: res}
	}

	check := func(name string, opts Options) {
		t.Helper()
		got := New(opts).Run(all)
		for i := range got {
			if got[i].Err != nil {
				t.Fatalf("%s: %s: %v", name, got[i].Job, got[i].Err)
			}
			if !reflect.DeepEqual(got[i].Res, want[i].Res) {
				t.Errorf("%s: %s diverged from the cold baseline:\n got %+v\nwant %+v",
					name, got[i].Job, got[i].Res, want[i].Res)
			}
		}
	}
	check("pool+arena workers=1", Options{Workers: 1})
	check("pool+arena workers=2", Options{Workers: 2})
	check("pool+arena workers=8", Options{Workers: 8})
	check("no pool, no arena", Options{Workers: 4, Run: simulateWith(nil, nil)})
	check("private 1MiB arena", Options{Workers: 4, Run: simulateWith(trace.NewArena(1<<20), core.DefaultPool)})
}

// TestArenaFallbackToStreaming forces the budget path: an engine whose
// arena cannot hold any trace must stream every replay and still match.
func TestArenaFallbackToStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	dir := t.TempDir()
	base := Job{Config: config.Preset(2), Kernel: "cjpeg", Scale: 1}
	jobs, err := MaterializeTraces(dir, []Job{base})
	if err != nil {
		t.Fatal(err)
	}
	want, err := simulate(jobs[0], 0, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := New(Options{Workers: 2, Run: simulateWith(trace.NewArena(1), core.DefaultPool)}).Run(jobs)
	if got[0].Err != nil {
		t.Fatal(got[0].Err)
	}
	if !reflect.DeepEqual(got[0].Res, want) {
		t.Error("tiny-arena (forced streaming) replay diverged from baseline")
	}
}

// TestReplayModesArenaAndPipelinedGolden extends the trace golden grid
// across the engine's replay data paths: for every workload kernel at
// two scales, each openTraceSource outcome — decode and admit to the
// arena, arena hit, pipelined stream — must produce byte-identical
// stats.Results to a Sim built on the synchronous trace.Reader. The
// paths share no decoding state, so agreement here means the columnar
// re-encoding and the batch handoff both preserve every field the
// timing model observes.
func TestReplayModesArenaAndPipelinedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite replay-mode grid in -short mode")
	}
	cfg := config.Preset(2).WithVP(config.VPStride)
	dir := t.TempDir()
	for _, kernel := range workload.Names() {
		for _, scale := range []int{1, 2} {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.cvt", kernel, scale))
			if _, err := WriteKernelTrace(path, kernel, scale, 0); err != nil {
				t.Fatalf("%s@%d encode: %v", kernel, scale, err)
			}
			fr, err := trace.OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.NewFromSource(cfg, fr, fr.Name())
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Run()
			fr.Close()
			if err != nil {
				t.Fatalf("%s@%d synchronous replay: %v", kernel, scale, err)
			}

			arena := trace.NewArena(DefaultArenaBudget)
			j := Job{Config: cfg, Trace: path}
			for _, m := range []struct {
				mode  string
				arena *trace.Arena
			}{{SourceDecode, arena}, {SourceArena, arena}, {SourceStream, nil}} {
				sim, mode, cleanup, err := newSim(j, m.arena, core.DefaultPool)
				if err != nil {
					t.Fatalf("%s@%d %s: %v", kernel, scale, m.mode, err)
				}
				got, err := sim.Run()
				if cerr := cleanup(); err == nil {
					err = cerr
				}
				switch {
				case err != nil:
					t.Fatalf("%s@%d %s replay: %v", kernel, scale, m.mode, err)
				case mode != m.mode:
					t.Fatalf("%s@%d: source mode %q, want %q", kernel, scale, mode, m.mode)
				case !reflect.DeepEqual(got, want):
					t.Errorf("%s@%d: %s replay diverged from the synchronous Reader:\n got %+v\nwant %+v",
						kernel, scale, m.mode, got, want)
				}
			}
		}
	}
}

// TestMaterializeTracesVerifyPoolDigest: a corrupt or truncated
// leftover trace file must be regenerated, not reused — and the
// regenerated file must replay cleanly.
func TestMaterializeTracesVerifyPoolDigest(t *testing.T) {
	dir := t.TempDir()
	jobs := []Job{{Config: config.Preset(1), Kernel: "rawcaudio", Scale: 1}}
	out, err := MaterializeTraces(dir, jobs)
	if err != nil {
		t.Fatal(err)
	}
	path := out[0].Trace

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside a record block: header still parses, but a
	// block CRC no longer matches.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0xFF
	if err := os.WriteFile(path, bad, 0o666); err != nil {
		t.Fatal(err)
	}
	if verifyTrace(path) {
		t.Fatal("verifyTrace accepted a corrupted file")
	}
	if _, err := MaterializeTraces(dir, jobs); err != nil {
		t.Fatal(err)
	}
	fr, err := trace.OpenFile(path)
	if err != nil {
		t.Fatalf("regenerated trace does not open: %v", err)
	}
	var d trace.DynInst
	for fr.Next(&d) {
	}
	if err := fr.Err(); err != nil {
		t.Fatalf("regenerated trace does not decode: %v", err)
	}
	fr.Close()

	// Truncation must likewise trigger regeneration.
	if err := os.WriteFile(path, data[:len(data)/3], 0o666); err != nil {
		t.Fatal(err)
	}
	if verifyTrace(path) {
		t.Fatal("verifyTrace accepted a truncated file")
	}
	if _, err := MaterializeTraces(dir, jobs); err != nil {
		t.Fatal(err)
	}
	if !verifyTrace(path) {
		t.Fatal("regenerated trace fails verification")
	}
}
