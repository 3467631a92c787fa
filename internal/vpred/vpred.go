// Package vpred implements the paper's stride value predictor (§2.2).
//
// The predictor targets *source operands*: the table is indexed by the PC
// of the consuming instruction and the operand position (left/right). Each
// entry holds the last observed value, the last observed stride, and a
// 2-bit saturating confidence counter. A prediction is "confident" — and
// thus usable for speculation — when the counter is saturated, and a miss
// resets it to zero. (The paper describes the gate as "counter value
// greater than 1" without giving the update rule; this reset-on-miss,
// speculate-at-saturation calibration reproduces Figure 5(b)'s operating
// point — 58% of operands confident at a >0.93 hit ratio — whereas a
// ±1 counter with a >1 gate speculates on wavering streams and pays the
// §3.2 reissue-plus-communication cost far more often than the paper
// reports.)
// Lookups and updates both happen at decode, one cycle after fetch, so the
// interface fuses them: PredictAndTrain makes the prediction with the
// pre-update table state, then trains the entry with the actual value.
//
// Floating-point operands are not predicted ("Communications are not zero
// because of fp values, that are not considered by our predictor", §3.3).
//
// A Perfect predictor is provided for the Figure 3 upper-bound experiment:
// it predicts every integer operand correctly and never predicts FP
// operands.
package vpred

// Predictor is the interface the decode stage consumes.
type Predictor interface {
	// PredictAndTrain predicts operand opIdx (0 or 1) of the instruction
	// at pc and trains the predictor with the actual value observed at
	// decode. It returns the predicted value, whether the prediction was
	// confident enough to speculate on, and whether it matched actual.
	// FP operands are never predicted (confident == false).
	PredictAndTrain(pc, opIdx int, isFP bool, actual uint64) (value uint64, confident, correct bool)
	// Stats returns cumulative accounting.
	Stats() Stats
}

// Stats records predictor accounting matching Figure 5(b): how many
// operand lookups there were, how many were confident, and how many of
// the confident ones were correct.
type Stats struct {
	// Lookups counts all integer-operand predictions requested.
	Lookups uint64
	// Confident counts lookups whose confidence exceeded the threshold.
	Confident uint64
	// ConfidentCorrect counts confident lookups whose predicted value
	// matched the actual operand.
	ConfidentCorrect uint64
}

// HitRatio is correctly predicted values over predicted (confident)
// values, the paper's Figure 5(b) metric.
func (s Stats) HitRatio() float64 {
	if s.Confident == 0 {
		return 0
	}
	return float64(s.ConfidentCorrect) / float64(s.Confident)
}

// ConfidentFraction is the share of lookups that were confident.
func (s Stats) ConfidentFraction() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Confident) / float64(s.Lookups)
}

type entry struct {
	last   uint64
	stride int64
	conf   uint8
}

// Stride is the paper's stride predictor. The table is direct-mapped and
// untagged: with 128K entries aliasing is negligible (the paper's "very
// large table" case), and shrinking the table naturally reproduces the
// Figure 5 degradation through destructive aliasing.
type Stride struct {
	table   []entry
	mask    int
	stats   Stats
	confMax uint8
	// CoverFP extends prediction to floating-point operands (raw IEEE
	// bits through the same stride table) — an extension experiment; the
	// paper's predictor leaves FP uncovered (§3.3).
	CoverFP bool
}

// DefaultTableEntries is the paper's "very large" default (128K).
const DefaultTableEntries = 128 * 1024

// NewStride builds a stride predictor with the given number of table
// entries (a positive power of two).
func NewStride(entries int) *Stride {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("vpred: table entries must be a positive power of two")
	}
	return &Stride{table: make([]entry, entries), mask: entries - 1, confMax: 3}
}

func (s *Stride) index(pc, opIdx int) int {
	// PC and operand order jointly index the table (§2.2). The operand
	// bit lands in the low bit, like doubling the table width.
	return (pc<<1 | opIdx&1) & s.mask
}

// PredictAndTrain implements Predictor with the classic stride update: if
// last+stride matches the new value, confidence rises; otherwise
// confidence falls and the stride is re-learned.
func (s *Stride) PredictAndTrain(pc, opIdx int, isFP bool, actual uint64) (uint64, bool, bool) {
	if isFP && !s.CoverFP {
		return 0, false, false
	}
	s.stats.Lookups++
	e := &s.table[s.index(pc, opIdx)]
	pred := e.last + uint64(e.stride)
	confident := e.conf > 2
	correct := pred == actual
	if confident {
		s.stats.Confident++
		if correct {
			s.stats.ConfidentCorrect++
		}
	}
	if correct {
		if e.conf < s.confMax {
			e.conf++
		}
	} else {
		// A miss resets confidence: speculating on a wavering value
		// stream costs a reissue plus a communication (§3.2), so the
		// counter must re-earn trust from scratch.
		e.conf = 0
		e.stride = int64(actual - e.last)
	}
	e.last = actual
	return pred, confident, correct
}

// Stats implements Predictor.
func (s *Stride) Stats() Stats { return s.stats }

// Entries returns the table capacity.
func (s *Stride) Entries() int { return len(s.table) }

// Reset rewinds the predictor to its NewStride state in place, keeping
// the table's allocation.
func (s *Stride) Reset() {
	clear(s.table)
	s.stats = Stats{}
	s.CoverFP = false
}

// Perfect predicts every integer operand correctly — the Figure 3 upper
// bound. FP operands remain unpredicted (unless CoverFP is set, an
// extension), which is why the paper's perfect configuration still shows
// residual communication.
type Perfect struct {
	stats   Stats
	CoverFP bool
}

// NewPerfect builds a perfect integer-operand predictor.
func NewPerfect() *Perfect { return &Perfect{} }

// PredictAndTrain implements Predictor: always confident and correct for
// integer operands.
func (p *Perfect) PredictAndTrain(pc, opIdx int, isFP bool, actual uint64) (uint64, bool, bool) {
	if isFP && !p.CoverFP {
		return 0, false, false
	}
	p.stats.Lookups++
	p.stats.Confident++
	p.stats.ConfidentCorrect++
	return actual, true, true
}

// Stats implements Predictor.
func (p *Perfect) Stats() Stats { return p.stats }

// None never predicts; it is the "no value prediction" configuration.
type None struct{}

// PredictAndTrain implements Predictor.
func (None) PredictAndTrain(int, int, bool, uint64) (uint64, bool, bool) {
	return 0, false, false
}

// Stats implements Predictor.
func (None) Stats() Stats { return Stats{} }

var (
	_ Predictor = (*Stride)(nil)
	_ Predictor = (*Perfect)(nil)
	_ Predictor = None{}
)
