package main

import "fmt"

// metricDecl declares one reported metric and its unit. Every
// workload reports every declared metric of its kind; BENCHMARK.json
// lists the same names and units (tested).
type metricDecl struct {
	name, unit string
}

// endToEnd are the untraced run's metrics. Latencies are split by
// kind because a memo hit and a simulation differ a hundredfold: a
// median over both falls between the two modes.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"peak_rss_mb", "MiB"},
	{"jobs_per_s", "1/s"},
	{"miss_p50_ms", "ms"},
	{"miss_tail_ms", "ms"},
	{"hit_p50_ms", "ms"},
}

// perLayer are the traced run's metrics.
var perLayer = func() []metricDecl {
	out := []metricDecl{
		{"workload.build_ms", "ms"},
		{"trace.exec_ns_per_instr", "ns"},
		{"trace.exec_alloc_mb_per_job", "MiB"},
		{"trace.decode_ns_per_record", "ns"},
		{"trace.write_ns_per_record", "ns"},
		{"trace.cursor_ns_per_record", "ns"},
		{"trace.pipelined_ns_per_record", "ns"},
		{"trace.source.arena", "count"},
		{"trace.source.decode", "count"},
		{"trace.source.stream", "count"},
	}
	for _, m := range machines {
		out = append(out, metricDecl{"core.ns_per_instr." + m.label, "ns"})
	}
	out = append(out, metricDecl{"core.reset_us", "us"}, metricDecl{"core.alloc_bytes_per_job", "B"})
	for _, stat := range []metricDecl{
		{"core.ipc.", "instr/cycle"},
		{"core.comm_per_instr.", "1/instr"},
		{"core.reissue_per_instr.", "1/instr"},
		{"core.dispatch_stall_per_cycle.", "1/cycle"},
	} {
		for _, m := range machines {
			// Zero by construction, so left out: a single cluster
			// never communicates, and only value prediction reissues.
			if (stat.name == "core.comm_per_instr." && m.label == "1c") ||
				(stat.name == "core.reissue_per_instr." && m.spec.VP == "") {
				continue
			}
			out = append(out, metricDecl{stat.name + m.label, stat.unit})
		}
	}
	return append(out, []metricDecl{
		{"runner.job_ms_p50", "ms"},
		{"runner.job_ms_tail", "ms"},
		{"runner.worker_busy_frac", "ratio"},
		{"runner.materialize_s", "s"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"runtime.alloc_mb_per_job", "MiB"},
		{"service.queue_wait_ms", "ms"},
		{"service.run_ms", "ms"},
		{"service.overhead_ms", "ms"},
		{"service.upload_ms", "ms"},
		{"service.sims_executed", "count"},
		{"service.cache_put_errors", "count"},
		{"fleet.dispatch_ms", "ms"},
		{"fleet.hop_ms", "ms"},
		{"fleet.resubmits", "count"},
		{"fleet.shard_skew", "ratio"},
		{"obs.spans_per_job", "count"},
		{"obs.trace_overhead_frac", "ratio"},
	}...)
}()

// report selects the run's declared metrics (end-to-end or per-layer)
// with their units. A declared metric the run did
// not measure is an error: the benchmark itself is broken.
func report(workload string, traced bool, values map[string]float64) (map[string]metric, error) {
	decls := endToEnd
	if traced {
		decls = perLayer
	}
	out := map[string]metric{}
	for _, d := range decls {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("%s did not measure %s", workload, d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}
