package vpred

import (
	"testing"
	"testing/quick"
)

func TestStrideLearnsConstant(t *testing.T) {
	s := NewStride(1024)
	var confident, correct bool
	for i := 0; i < 10; i++ {
		_, confident, correct = s.PredictAndTrain(5, 0, false, 42)
	}
	if !confident || !correct {
		t.Errorf("constant value: confident=%v correct=%v, want true,true", confident, correct)
	}
}

func TestStrideLearnsStride(t *testing.T) {
	s := NewStride(1024)
	// Sequence 0, 8, 16, ... (array walk). After the second observation
	// the stride is learned; confidence must climb and predictions hit.
	var hits int
	for i := 0; i < 20; i++ {
		v := uint64(i * 8)
		_, conf, corr := s.PredictAndTrain(7, 1, false, v)
		if conf && corr {
			hits++
		}
	}
	if hits < 15 {
		t.Errorf("stride sequence hits = %d, want >= 15", hits)
	}
}

func TestStrideConfidenceGate(t *testing.T) {
	s := NewStride(1024)
	// From a cold entry the constant stream 5,5,5,... mispredicts twice
	// (pred 0, then pred 10 after stride mislearn), then the counter
	// climbs 0→1→2→3 over observations 3-5; speculation requires the
	// saturated counter, so the first *confident* prediction is
	// observation 6.
	for i := 1; i <= 5; i++ {
		_, conf, _ := s.PredictAndTrain(3, 0, false, 5)
		if conf {
			t.Errorf("observation %d must not be confident yet", i)
		}
	}
	_, conf, corr := s.PredictAndTrain(3, 0, false, 5)
	if !conf || !corr {
		t.Errorf("observation 6 should be confidently correct, got %v %v", conf, corr)
	}
}

func TestStrideRandomValuesStayUnconfident(t *testing.T) {
	s := NewStride(1024)
	// An LCG-scrambled sequence has no stable stride; confidence must
	// rarely build up.
	x := uint64(12345)
	confCount := 0
	for i := 0; i < 1000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		_, conf, _ := s.PredictAndTrain(9, 0, false, x)
		if conf {
			confCount++
		}
	}
	if confCount > 10 {
		t.Errorf("random sequence confident %d/1000 times, want <= 10", confCount)
	}
}

func TestFPOperandsNeverPredicted(t *testing.T) {
	s := NewStride(1024)
	for i := 0; i < 10; i++ {
		if _, conf, _ := s.PredictAndTrain(4, 0, true, 42); conf {
			t.Fatal("FP operand must never be confident")
		}
	}
	if s.Stats().Lookups != 0 {
		t.Error("FP operands must not count as lookups")
	}
	p := NewPerfect()
	if _, conf, _ := p.PredictAndTrain(4, 0, true, 42); conf {
		t.Error("perfect predictor must not predict FP")
	}
}

func TestOperandPositionsIndependent(t *testing.T) {
	s := NewStride(1024)
	for i := 0; i < 5; i++ {
		s.PredictAndTrain(10, 0, false, 100)
		s.PredictAndTrain(10, 1, false, uint64(i))
	}
	_, conf0, corr0 := s.PredictAndTrain(10, 0, false, 100)
	if !conf0 || !corr0 {
		t.Error("left operand should be confidently correct")
	}
	// Right operand follows stride 1 and should also predict correctly,
	// independently of the left.
	_, _, corr1 := s.PredictAndTrain(10, 1, false, 5)
	if !corr1 {
		t.Error("right operand stride should be learned independently")
	}
}

func TestAliasingDegradesSmallTable(t *testing.T) {
	// Two PCs that collide in a tiny table but not in a large one.
	train := func(entries int) float64 {
		s := NewStride(entries)
		for i := 0; i < 2000; i++ {
			// 16 PCs spaced 64 apart: in a 64-entry table they collide on
			// one entry; in a 64K table they are all distinct.
			pc := 100 + (i%16)*64
			s.PredictAndTrain(pc, 0, false, uint64(i%16)*7)
		}
		return s.Stats().HitRatio()
	}
	small := train(64)
	large := train(64 * 1024)
	if small >= large {
		t.Errorf("aliasing should hurt: small=%v large=%v", small, large)
	}
}

func TestPerfectAlwaysCorrect(t *testing.T) {
	p := NewPerfect()
	for i := 0; i < 100; i++ {
		v, conf, corr := p.PredictAndTrain(i, i&1, false, uint64(i*17))
		if !conf || !corr || v != uint64(i*17) {
			t.Fatalf("perfect mispredicted: %d %v %v", v, conf, corr)
		}
	}
	st := p.Stats()
	if st.HitRatio() != 1.0 || st.ConfidentFraction() != 1.0 {
		t.Errorf("perfect stats = %+v", st)
	}
}

func TestNoneNeverPredicts(t *testing.T) {
	n := None{}
	if _, conf, _ := n.PredictAndTrain(1, 0, false, 9); conf {
		t.Error("None must never be confident")
	}
	if n.Stats() != (Stats{}) {
		t.Error("None must have empty stats")
	}
}

func TestStatsRatiosEmpty(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 || s.ConfidentFraction() != 0 {
		t.Error("empty stats must report zero ratios")
	}
}

func TestNewStridePanicsOnBadSize(t *testing.T) {
	for _, n := range []int{0, -4, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewStride(%d) must panic", n)
				}
			}()
			NewStride(n)
		}()
	}
}

// Property: for any constant value stream, the predictor converges to
// confident-correct within 5 observations and stays there.
func TestConstantConvergenceProperty(t *testing.T) {
	f := func(pc uint16, v uint64) bool {
		s := NewStride(4096)
		for i := 0; i < 5; i++ {
			s.PredictAndTrain(int(pc), 0, false, v)
		}
		_, conf, corr := s.PredictAndTrain(int(pc), 0, false, v)
		return conf && corr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: stride sequences of arbitrary stride converge similarly.
func TestStrideConvergenceProperty(t *testing.T) {
	f := func(pc uint16, start uint64, stride int32) bool {
		s := NewStride(4096)
		v := start
		for i := 0; i < 5; i++ {
			s.PredictAndTrain(int(pc), 1, false, v)
			v += uint64(int64(stride))
		}
		_, conf, corr := s.PredictAndTrain(int(pc), 1, false, v)
		return conf && corr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Stats counters are monotonic and consistent.
func TestStatsConsistencyProperty(t *testing.T) {
	s := NewStride(1024)
	f := func(pc uint16, v uint64) bool {
		s.PredictAndTrain(int(pc), 0, false, v)
		st := s.Stats()
		return st.Confident <= st.Lookups && st.ConfidentCorrect <= st.Confident
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCoverFPExtension(t *testing.T) {
	s := NewStride(1024)
	s.CoverFP = true
	var conf, corr bool
	for i := 0; i < 10; i++ {
		_, conf, corr = s.PredictAndTrain(4, 0, true, 0x3FF0000000000000) // 1.0 bits
	}
	if !conf || !corr {
		t.Error("constant FP bits must be predictable with CoverFP")
	}
	if s.Stats().Lookups == 0 {
		t.Error("CoverFP must count FP lookups")
	}
	p := NewPerfect()
	p.CoverFP = true
	if _, conf, _ := p.PredictAndTrain(4, 0, true, 42); !conf {
		t.Error("perfect with CoverFP must predict FP")
	}
}

// TestResetMatchesFresh checks that a trained predictor rewound with
// Reset predicts a value stream exactly as a freshly built one does.
func TestResetMatchesFresh(t *testing.T) {
	train := func(p Predictor) {
		for i := 0; i < 200; i++ {
			p.PredictAndTrain(i%37, i%2, i%5 == 0, uint64(i*i))
		}
	}
	type predictor interface {
		Predictor
		Reset()
	}
	for _, mk := range []func() predictor{
		func() predictor { return NewStride(64) },
		func() predictor { return NewTwoDelta(64) },
	} {
		reused, fresh := mk(), mk()
		if s, ok := reused.(*Stride); ok {
			s.CoverFP = true // Reset must clear it too
		}
		train(reused)
		reused.Reset()
		for i := 0; i < 200; i++ {
			v := uint64(3 * (i % 11))
			gv, gc, gok := reused.PredictAndTrain(i%13, i%2, i%7 == 0, v)
			wv, wc, wok := fresh.PredictAndTrain(i%13, i%2, i%7 == 0, v)
			if gv != wv || gc != wc || gok != wok {
				t.Fatalf("%T step %d: reset predictor (%d,%v,%v), fresh (%d,%v,%v)", reused, i, gv, gc, gok, wv, wc, wok)
			}
		}
		if reused.Stats() != fresh.Stats() {
			t.Errorf("%T: reset stats %+v, fresh %+v", reused, reused.Stats(), fresh.Stats())
		}
	}
}
