package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"clustervp"
	"clustervp/internal/core"
	"clustervp/internal/obs"
	"clustervp/internal/program"
	"clustervp/internal/trace"
)

// spanLog holds every span of a traced run in memory until exit.
type spanLog struct {
	mu    sync.Mutex
	spans []obs.Span
}

func (l *spanLog) add(sp ...obs.Span) {
	l.mu.Lock()
	l.spans = append(l.spans, sp...)
	l.mu.Unlock()
}

func (l *spanLog) all() []obs.Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]obs.Span(nil), l.spans...)
}

// write dumps the spans, oldest first, with the machine fingerprint.
func (l *spanLog) write(path string, fp fingerprintInfo) error {
	spans := l.all()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	b, err := json.MarshalIndent(struct {
		Fingerprint fingerprintInfo `json:"fingerprint"`
		Spans       []obs.Span      `json:"spans"`
	}{fp, spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runLadder measures the in-process layers one at a time over the
// workload seed's first grid pass: kernel build, functional executor,
// .cvt write, decode, arena cursor and pipelined stream, the core per
// machine, trace materialization, and the whole pass through an engine
// for the Go runtime's share. Each stage is a span.
func runLadder(e env, o *outcome) error {
	col := obs.NewCollector("perfbench", 1024)
	root := col.StartRoot("bench.ladder", obs.SpanContext{})
	defer func() {
		root.End()
		o.spans.add(col.Recent(0)...)
	}()
	kseed := kernelSeed(e.seed, famGrid, 0)
	dir, err := mkdirTemp(e, "ladder")
	if err != nil {
		return err
	}
	stage := func(name string, fn func() error) (time.Duration, error) {
		sp := root.StartChild("ladder." + name)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		sp.End()
		return d, err
	}
	var ms0, ms1 runtime.MemStats

	progs := make([]*program.Program, len(kernels))
	d, err := stage("build", func() error {
		for i, k := range kernels {
			p, err := clustervp.BuildKernelSeeded(k, 1, kseed)
			if err != nil {
				return err
			}
			progs[i] = p
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.set("workload.build_ms", float64(d)/1e6/float64(len(kernels)))

	var instrs uint64
	runtime.ReadMemStats(&ms0)
	d, err = stage("exec", func() error {
		var di trace.DynInst
		for _, p := range progs {
			ex := trace.NewExecutor(p)
			for ex.Next(&di) {
				instrs++
			}
			if err := ex.Err(); err != nil {
				return err
			}
		}
		return nil
	})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	o.set("trace.exec_ns_per_instr", float64(d)/float64(instrs))
	o.set("trace.exec_alloc_mb_per_job", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(len(progs))/(1<<20))

	files := make([]string, len(progs))
	for i, p := range progs {
		files[i] = filepath.Join(dir, fmt.Sprintf("%s.cvt", p.Name))
		if _, err := trace.WriteFile(files[i], p.Name, p.Code, trace.NewExecutor(p)); err != nil {
			return err
		}
	}
	mts := make([]*trace.MemTrace, len(files))
	d, err = stage("decode", func() error {
		for i, f := range files {
			fr, err := trace.OpenFile(f)
			if err != nil {
				return err
			}
			mts[i], err = trace.ReadMem(fr.Reader)
			fr.Close()
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.set("trace.decode_ns_per_record", float64(d)/float64(instrs))

	d, _ = stage("cursor", func() error {
		var di trace.DynInst
		for _, mt := range mts {
			c := mt.NewCursor()
			for c.Next(&di) {
			}
		}
		return nil
	})
	o.set("trace.cursor_ns_per_record", float64(d)/float64(instrs))

	d, err = stage("pipelined", func() error {
		var di trace.DynInst
		for _, f := range files {
			fr, err := trace.OpenFile(f)
			if err != nil {
				return err
			}
			p := trace.NewPipelined(fr.Reader)
			for p.Next(&di) {
			}
			err = p.Err()
			p.Close()
			fr.Close()
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.set("trace.pipelined_ns_per_record", float64(d)/float64(instrs))

	d, err = stage("write", func() error {
		for i, mt := range mts {
			if _, err := trace.WriteFile(files[i]+".copy", mt.Name(), progs[i].Code, mt.NewCursor()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.set("trace.write_ns_per_record", float64(d)/float64(instrs))

	var reset, resetAll time.Duration
	jobs := 0
	runtime.ReadMemStats(&ms0)
	for _, m := range machines {
		var rs []clustervp.Results
		d, err := stage("core."+m.label, func() error {
			for _, mt := range mts {
				t0 := time.Now()
				sim, err := core.DefaultPool.Get(m.cfg, mt.NewCursor(), mt.Name())
				reset += time.Since(t0)
				if err != nil {
					return err
				}
				r, err := sim.Run()
				core.DefaultPool.Put(sim)
				if err != nil {
					return err
				}
				rs = append(rs, r)
				jobs++
			}
			return nil
		})
		if err != nil {
			return err
		}
		agg := clustervp.Aggregate(m.label, rs)
		if agg.Instructions != instrs {
			o.problem("ladder %s: committed %d instructions, traces have %d records", m.label, agg.Instructions, instrs)
		}
		o.set("core.ns_per_instr."+m.label, float64(d-reset)/float64(agg.Instructions))
		resetAll += reset
		reset = 0
		o.set("core.ipc."+m.label, agg.IPC())
		o.set("core.comm_per_instr."+m.label, agg.CommPerInstr())
		o.set("core.reissue_per_instr."+m.label, float64(agg.Reissues)/float64(agg.Instructions))
		stalls := agg.DispatchStallROB + agg.DispatchStallIQ + agg.DispatchStallRegs
		o.set("core.dispatch_stall_per_cycle."+m.label, float64(stalls)/float64(agg.Cycles))
	}
	runtime.ReadMemStats(&ms1)
	o.set("core.alloc_bytes_per_job", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(jobs))
	o.set("core.reset_us", float64(resetAll)/1e3/float64(jobs))

	d, err = stage("materialize", func() error {
		_, err := clustervp.MaterializeTraces(filepath.Join(dir, "materialized"), gridJobs(e.seed, 0)[:len(kernels)])
		return err
	})
	if err != nil {
		return err
	}
	o.set("runner.materialize_s", d.Seconds())

	grid := gridJobs(e.seed, 0)
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := cpuSample()
	_, err = stage("engine", func() error {
		return clustervp.FirstErr(clustervp.NewEngine(workers).Run(grid))
	})
	gc1, cpu1 := cpuSample()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	o.set("runtime.gc_cpu_frac", (gc1-gc0)/max(cpu1-cpu0, 1e-9))
	o.set("runtime.alloc_mb_per_job", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(len(grid))/(1<<20))
	return nil
}
