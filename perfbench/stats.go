package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// median of xs (mean of the two middle values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (p in whole percent)
// of xs: the smallest sample with at least p% of the samples at or
// below it.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples, ceil(p·n/100), in integer arithmetic so 99% of 1000 is
// exactly 990.
func rank(n, p int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// missTailPct is the fixed percentile of miss_tail_ms: p95 leaves at
// least ten samples beyond it in every workload at the benchmark's run
// length (NOTES.md lists the counts).
const missTailPct = 95

// minBeyond is how many samples must lie above a tail percentile for
// it to be reported.
const minBeyond = 10

// tailPercentile picks the highest of p99, p95 and p90 that has at
// least minBeyond samples above it among n samples, or 0 when even p90
// has too few.
func tailPercentile(n int) int {
	for _, p := range []int{99, 95, 90} {
		if n-rank(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// tailSample describes a fixed tail percentile with its sample count,
// and warns when the run was too short for it to have minBeyond
// samples beyond.
func tailSample(n, p int) string {
	s := fmt.Sprintf("p%d of %d samples (%d beyond)", p, n, n-rank(n, p))
	if n-rank(n, p) < minBeyond {
		s += "; fewer than 10 beyond, the run was too short for this percentile"
	}
	return s
}

// setTail reports a per-layer tail: the highest percentile with
// enough samples beyond it, or p90 with a warning when none has.
func setTail(o *outcome, name string, xs []float64) {
	p := tailPercentile(len(xs))
	if p == 0 {
		p = 90
	}
	o.set(name, percentile(xs, p))
	o.sample(name, tailSample(len(xs), p))
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB; pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("%s: VmHWM: %w", path, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// cpuSample reads this process's cumulative GC and total CPU seconds
// as the runtime estimates them.
func cpuSample() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}
