package core

import (
	"reflect"
	"testing"

	"clustervp/internal/config"
	"clustervp/internal/stats"
	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

// TestSimResetPoolDeterminism drives one Sim through a sequence of runs
// via Reset — alternating cluster counts, cache models and predictors so
// every reshape path executes — and checks each result is byte-identical
// to a freshly constructed Sim's. This is the core guarantee the worker
// pool rests on: reuse is invisible in the statistics.
func TestSimResetPoolDeterminism(t *testing.T) {
	k, err := workload.ByName("cjpeg")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []config.Config{
		config.Preset(1),
		config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB),
		config.Preset(2).WithVP(config.VPTwoDelta),
		config.Preset(4),
		config.Preset(1).WithVP(config.VPStride),
		// The value-prediction tables are rewound in place when the size
		// repeats and rebuilt when it changes: shrink, grow back, shrink
		// again, then switch predictor kind and FP coverage.
		config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB).WithVPTable(16),
		config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB),
		config.Preset(4).WithVP(config.VPStride).WithVPTable(16),
		config.Preset(2).WithVP(config.VPTwoDelta),
		config.Preset(4).WithVP(config.VPStride).WithSteering(config.SteerVPB),
	}
	cfgs[3].PerfectCaches = true
	cfgs[9].VPCoverFP = true

	reused := &Sim{}
	for i, cfg := range cfgs {
		prog := k.Build(1)
		want := run(t, cfg, prog)
		if err := reused.Reset(cfg, trace.NewExecutor(k.Build(1)), prog.Name); err != nil {
			t.Fatalf("cfg %d: Reset: %v", i, err)
		}
		got, err := reused.Run()
		if err != nil {
			t.Fatalf("cfg %d: Run: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cfg %d (%s): reused Sim diverged from fresh Sim:\nfresh:  %+v\nreused: %+v", i, cfg.Name, want, got)
		}
	}
}

// TestSimResetPoolResultsNotAliased pins the aliasing contract: Results
// returned by a run must never be mutated by a later Reset+Run on the
// same Sim (Run hands out s.out, so PerCluster must be re-allocated).
func TestSimResetPoolResultsNotAliased(t *testing.T) {
	k, err := workload.ByName("cjpeg")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Preset(2)
	s, err := New(cfg, k.Build(1))
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	snapshot := first
	snapshot.PerCluster = append([]stats.ClusterStats(nil), first.PerCluster...)
	snapshot.HopHistogram = append([]uint64(nil), first.HopHistogram...)

	if err := s.Reset(config.Preset(2).WithVP(config.VPStride), trace.NewExecutor(k.Build(2)), "cjpeg"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.PerCluster, snapshot.PerCluster) {
		t.Error("first run's PerCluster mutated by a later Reset+Run")
	}
	if !reflect.DeepEqual(first.HopHistogram, snapshot.HopHistogram) {
		t.Error("first run's HopHistogram mutated by a later Reset+Run")
	}
}

// TestPoolGetPutReuse checks the pool actually recycles: a Put Sim comes
// back from Get for the same shape, and a different shape constructs
// fresh without disturbing the pooled one.
func TestPoolGetPutReuse(t *testing.T) {
	k, err := workload.ByName("cjpeg")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool()
	cfg2 := config.Preset(2)
	s1, err := p.Get(cfg2, trace.NewExecutor(k.Build(1)), "cjpeg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Run(); err != nil {
		t.Fatal(err)
	}
	p.Put(s1)
	s2, err := p.Get(cfg2, trace.NewExecutor(k.Build(1)), "cjpeg")
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("pool did not recycle the Sim for a same-shape Get")
	}
	s4, err := p.Get(config.Preset(4), trace.NewExecutor(k.Build(1)), "cjpeg")
	if err != nil {
		t.Fatal(err)
	}
	if s4 == s2 {
		t.Error("pool returned a 2-cluster Sim for a 4-cluster Get")
	}
	if _, err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s4.Run(); err != nil {
		t.Fatal(err)
	}
	p.Put(s2)
	p.Put(s4)
}
