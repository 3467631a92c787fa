package main

// opKind is the kind of one serve operation.
type opKind uint8

const (
	// opFresh submits a kernel job no earlier operation submitted, so
	// the simulator does the work.
	opFresh opKind = iota
	// opRepeat resubmits the job of an earlier fresh operation: a memo
	// hit, so HTTP, admission, events and spans do all the work.
	opRepeat
	// opReplay uploads a .cvt trace no earlier operation uploaded and
	// runs it by digest.
	opReplay
)

func (k opKind) String() string {
	return [...]string{"fresh", "repeat", "replay"}[k]
}

// op is one serve operation.
type op struct {
	kind opKind
	key  jobKey
	// fresh is the fresh ordinal: the index among fresh and replay
	// operations, or for a repeat the ordinal it repeats.
	fresh int
	// family, index and job place the operation's inputs among the
	// committed digests: grid pass and job, or replay index.
	family, index, job int
}

// Serve traffic shape: about half the operations repeat earlier jobs,
// and every replayEvery-th fresh operation is a replay while replay
// inputs last.
const (
	repeatPercent = 50
	replayEvery   = 5
	// minFreshBeforeRepeat keeps the first operations fresh so repeats
	// have some history to draw from.
	minFreshBeforeRepeat = 4
)

// opSeq generates a serve workload's operation sequence. It is a pure
// function of the seed: the clients take operations from it in order,
// so the same seed gives the same sequence whatever the timing.
type opSeq struct {
	seed       uint64
	maxReplays int
	rng        uint64
	fresh      []op
	kernelJobs int
	replays    int
	perm       []int
}

// newOpSeq starts the sequence for a seed; maxReplays bounds the
// replays (0 for a workload without uploads).
func newOpSeq(seed uint64, maxReplays int) *opSeq {
	return &opSeq{seed: seed, maxReplays: maxReplays, rng: seed ^ 0x9e3779b97f4a7c15}
}

// rand is splitmix64.
func (s *opSeq) rand() uint64 {
	s.rng += 0x9e3779b97f4a7c15
	z := s.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *opSeq) intn(n int) int { return int(s.rand() % uint64(n)) }

// next returns the next operation. A repeat never targets the most
// recent fresh operation, which may still be in flight on the other
// client.
func (s *opSeq) next() op {
	if len(s.fresh) >= minFreshBeforeRepeat && s.intn(100) < repeatPercent {
		o := s.fresh[s.intn(len(s.fresh)-1)]
		o.kind = opRepeat
		return o
	}
	o := op{fresh: len(s.fresh)}
	if o.fresh%replayEvery == replayEvery-1 && s.replays < s.maxReplays {
		o.kind, o.family, o.index = opReplay, famReplay, s.replays
		o.key = replayKey(s.seed, s.replays)
		s.replays++
	} else {
		// Kernel jobs walk the grid passes, each pass in its own
		// shuffled order, so every window of gridSize fresh jobs has the
		// grid's full machine and kernel mix.
		pass, i := s.kernelJobs/gridSize, s.kernelJobs%gridSize
		if i == 0 {
			s.perm = s.shuffle(gridSize)
		}
		o.kind, o.family, o.index, o.job = opFresh, famGrid, pass, s.perm[i]
		o.key = gridKey(s.seed, pass, o.job)
		s.kernelJobs++
	}
	s.fresh = append(s.fresh, o)
	return o
}

// shuffle returns a Fisher-Yates permutation of 0..n-1.
func (s *opSeq) shuffle(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
