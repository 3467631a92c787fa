package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"clustervp"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p != 0 && c.n-rank(c.n, p) < minBeyond {
			t.Errorf("tailPercentile(%d) = p%d leaves only %d beyond", c.n, p, c.n-rank(c.n, p))
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: percentile must sort
	}
	for _, c := range []struct {
		p    int
		want float64
	}{{50, 50}, {90, 90}, {95, 95}, {99, 99}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%d = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSameSeedSameOperationSequence(t *testing.T) {
	a, b := newOpSeq(7, 100), newOpSeq(7, 100)
	for i := 0; i < 3000; i++ {
		if x, y := a.next(), b.next(); x != y {
			t.Fatalf("op %d differs: %+v vs %+v", i, x, y)
		}
	}
}

func TestDifferentSeedsGiveDistinctFreshFingerprints(t *testing.T) {
	fresh := func(seed uint64) map[string]bool {
		s := newOpSeq(seed, 100)
		out := map[string]bool{}
		for i := 0; i < 2000; i++ {
			o := s.next()
			if o.kind == opRepeat {
				continue
			}
			k := o.kind.String() + " " + o.key.String()
			if out[k] {
				t.Fatalf("seed %d repeats fresh operation %s", seed, k)
			}
			out[k] = true
		}
		return out
	}
	a, b := fresh(1), fresh(2)
	for k := range a {
		if b[k] {
			t.Errorf("seeds 1 and 2 share fresh operation %s", k)
		}
	}
}

func TestOperationMix(t *testing.T) {
	s := newOpSeq(3, 1000)
	var n [3]int
	const ops = 4000
	for i := 0; i < ops; i++ {
		o := s.next()
		n[o.kind]++
		if o.kind == opRepeat && o.fresh >= len(s.fresh)-1 {
			t.Fatalf("op %d repeats the newest fresh operation", i)
		}
	}
	if r := float64(n[opRepeat]) / ops; r < 0.45 || r > 0.55 {
		t.Errorf("repeat share %.3f, want about 0.5", r)
	}
	if r := float64(n[opReplay]) / float64(n[opFresh]+n[opReplay]); r < 0.199 || r > 0.201 {
		t.Errorf("replay share of fresh operations %.3f, want 0.2", r)
	}
	// With no replay inputs every fresh operation is a kernel job.
	s = newOpSeq(3, 0)
	for i := 0; i < 500; i++ {
		if s.next().kind == opReplay {
			t.Fatal("replay without replay inputs")
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricDeclarations checks that every metric name is valid and
// used once, and that BENCHMARK.json declares exactly these metrics.
func TestMetricDeclarations(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("invalid metric name %q", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: invalid unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, decl []metricDecl, listed []struct{ Name, Unit string }) {
		if len(decl) != len(listed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark declares %d", what, len(listed), len(decl))
			return
		}
		for i, d := range decl {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark declares %s (%s)",
					what, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
}

// TestDigestsAgreeWithGoldenGrid ties the committed default-seed
// digests to the repository's golden grid: the first grid pass of the
// default seed runs the canonical inputs, so its golden rows must
// reproduce the golden counters and the committed digests.
func TestDigestsAgreeWithGoldenGrid(t *testing.T) {
	golden := []struct {
		machine, kernel                         string
		cycles                                  int64
		instrs, copies, verify, transfers, reis uint64
	}{
		{"1c", "gsmdec", 32076, 64011, 0, 0, 0, 0},
		{"1c", "cjpeg", 8300, 37208, 0, 0, 0, 0},
		{"1c", "mesaosdemo", 22291, 54608, 0, 0, 0, 0},
		{"1c", "pgpenc", 37039, 21968, 0, 0, 0, 0},
		{"4c", "gsmdec", 42575, 64011, 13086, 0, 13086, 0},
		{"4c", "cjpeg", 14175, 37208, 13873, 0, 13873, 0},
		{"4c", "mesaosdemo", 23216, 54608, 22642, 0, 22642, 0},
		{"4c", "pgpenc", 55164, 21968, 3334, 0, 3334, 0},
		{"4c-vpb", "gsmdec", 41927, 64011, 10239, 24457, 10252, 39},
		{"4c-vpb", "cjpeg", 12324, 37208, 8517, 10532, 10122, 4309},
		{"4c-vpb", "mesaosdemo", 22951, 54608, 17740, 5973, 17741, 1},
		{"4c-vpb", "pgpenc", 50532, 21968, 2141, 2231, 2415, 359},
	}
	if len(committed.Grid) == 0 {
		t.Fatal("digests.json holds no grid passes")
	}
	for _, g := range golden {
		idx := -1
		for i := 0; i < gridSize; i++ {
			if k := gridKey(0, 0, i); machines[k.m].label == g.machine && k.kernel == g.kernel {
				idx = i
			}
		}
		if idx < 0 {
			t.Fatalf("no grid job for %s/%s", g.machine, g.kernel)
		}
		k := gridKey(0, 0, idx)
		if k.kseed != 0 {
			t.Fatalf("default seed's first pass uses kernel seed %d, want the canonical 0", k.kseed)
		}
		res, err := clustervp.Run(machines[k.m].cfg, k.kernel, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != g.cycles || res.Instructions != g.instrs || res.Copies != g.copies ||
			res.VerifyCopies != g.verify || res.BusTransfers != g.transfers || res.Reissues != g.reis {
			t.Errorf("%s/%s: %+v differs from the golden grid", g.machine, g.kernel, res)
		}
		if d := digestOf(res); d != committed.Grid[0][idx] {
			t.Errorf("%s/%s: digest %s, committed %s", g.machine, g.kernel, d, committed.Grid[0][idx])
		}
	}
}
