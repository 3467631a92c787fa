package core

import (
	"fmt"

	"clustervp/internal/bpred"
	"clustervp/internal/cache"
	"clustervp/internal/cluster"
	"clustervp/internal/config"
	"clustervp/internal/interconnect"
	"clustervp/internal/isa"
	"clustervp/internal/program"
	"clustervp/internal/rename"
	"clustervp/internal/stats"
	"clustervp/internal/steer"
	"clustervp/internal/trace"
	"clustervp/internal/vpred"
)

const (
	ringCap   = 512
	fetchQCap = 32
	// watchdogWindow aborts the run when no instruction commits for this
	// many cycles — always a simulator bug, never a workload property.
	watchdogWindow = 100_000
	defaultMaxCyc  = 500_000_000
)

// Sim is one simulation instance: one configuration bound to one
// workload trace.
type Sim struct {
	cfg config.Config

	// src streams the dynamic instructions; it is either an in-process
	// functional executor or a .cvt file reader — the timing model
	// cannot tell the difference. Fetch decodes each record straight
	// into the fetch queue's tail slot; havePeek marks a record decoded
	// there but not yet enqueued (held back by an I-cache miss).
	src      trace.Source
	havePeek bool
	trDone   bool

	bp     *bpred.Unit
	vp     vpred.Predictor
	caches cache.Oracle
	hier   *cache.Hierarchy // nil when PerfectCaches
	// hierMem persists the hierarchy's backing arrays across Resets so a
	// pooled Sim alternating with PerfectCaches configs does not rebuild
	// them; hier points at it (or nil) per the current config.
	hierMem *cache.Hierarchy
	// strideMem and twoDeltaMem persist the value-prediction tables the
	// same way: Reset rewinds a table of the configured size in place.
	strideMem   *vpred.Stride
	twoDeltaMem *vpred.TwoDelta
	net         interconnect.Topology
	bal         *steer.Balancer
	str         steer.Chooser
	table       *rename.Table[eref]
	res         []*cluster.Resources
	// Per-cluster constants hoisted out of the spec slice so the hot
	// loop never chases cfg.Clusters[c]: IQ sizes for the dispatch
	// structural check and extra bypass cycles for result visibility.
	iqSize []int
	bypass []int64

	// ROB ring. The cold per-entry payload lives in the ring; the
	// scheduler-hot state (valid/ready bitmaps, consumer masks, wakeup
	// wheel, dependence-edge pool) lives in the embedded sched as
	// parallel arrays indexed by ring slot.
	ring     [ringCap]entry
	headSeq  int64
	nextSeq  int64
	robCount int

	sched
	// refSelect switches the issue stage to the reference linear-scan
	// selector (issue_ref.go); used by the differential oracle tests.
	refSelect bool

	iqCount []int

	// fetchQ is a fixed ring between fetch and dispatch; fqHead indexes
	// the oldest entry, fqLen counts occupancy.
	fetchQ [fetchQCap]fetched
	fqHead int
	fqLen  int
	// fetchReadyTime gates fetch (I-cache misses, branch redirects);
	// lastFetchLine dedupes I-cache accesses within a line.
	fetchReadyTime int64
	lastFetchLine  int64
	// blockingBranch is the in-flight control-mispredicted branch fetch
	// is waiting on, if any; fetchBlockedPreDispatch covers the window
	// between fetching the mispredicted branch and dispatching it.
	blockingBranch      eref
	fetchBlockedPreDisp bool
	pendingVerifs       []verification
	activeStores        []eref
	lastCommitCycle     int64

	// Per-instruction and per-cycle scratch, hoisted out of the hot
	// loop so steady-state simulation performs zero heap allocations
	// (see BenchmarkSimSteadyState and TestSteadyStateAllocFree).
	views     [trace.MaxSrc]opView
	steerOps  [trace.MaxSrc]steer.Operand
	verifs    [trace.MaxSrc]verification
	consSrcs  [trace.MaxSrc]source
	excessInt []int
	excessFP  []int

	// Progress callback state: progFn fires every progEvery cycles
	// (progNext is the next firing cycle). The check is two loads and a
	// compare per cycle and the snapshot is a stack value, so enabling
	// progress keeps the hot loop at zero heap allocations.
	progFn    func(Progress)
	progEvery int64
	progNext  int64

	// Coarse phase attribution for tracing: every cycle is exactly one
	// of warmup (nothing committed yet), drain (trace exhausted,
	// pipeline emptying) or steady (everything between). Plain uint64
	// increments in step keep the hot loop allocation-free; readers use
	// PhaseCycles after Run. Deliberately NOT part of stats.Results —
	// golden regression outputs stay byte-identical.
	phaseWarmup uint64
	phaseSteady uint64
	phaseDrain  uint64

	out stats.Results
}

// Progress is a cheap point-in-time snapshot of a running simulation,
// delivered to the callback registered with SetProgress.
type Progress struct {
	// Cycle is the current simulated cycle.
	Cycle int64
	// Instructions is the committed program-instruction count so far.
	Instructions uint64
}

// IPC is the instantaneous instructions-per-cycle figure of the
// snapshot (0 at cycle 0).
func (p Progress) IPC() float64 {
	if p.Cycle == 0 {
		return 0
	}
	return float64(p.Instructions) / float64(p.Cycle)
}

// SetProgress registers fn to be invoked every `every` cycles while the
// simulation runs (from the simulation goroutine, so fn must be fast
// and must not call back into the Sim). A non-positive interval or nil
// fn disables progress. Call before Run; the callback itself must not
// allocate if the caller relies on the 0 allocs/op steady-state
// guarantee.
func (s *Sim) SetProgress(every int64, fn func(Progress)) {
	if every <= 0 || fn == nil {
		s.progFn = nil
		s.progEvery = 0
		return
	}
	s.progFn = fn
	s.progEvery = every
	s.progNext = every
}

// New builds a simulator for the given configuration and program. It
// returns an error for invalid configurations.
func New(cfg config.Config, prog *program.Program) (*Sim, error) {
	return NewFromSource(cfg, trace.NewExecutor(prog), prog.Name)
}

// NewFromSource builds a simulator that consumes an arbitrary dynamic
// instruction stream — an in-process executor, a .cvt trace file
// reader, or anything else satisfying trace.Source. benchmark labels
// the stream in the results.
func NewFromSource(cfg config.Config, src trace.Source, benchmark string) (*Sim, error) {
	s := &Sim{}
	if err := s.Reset(cfg, src, benchmark); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rebinds the simulator to a new configuration and instruction
// stream, rewinding every piece of run state — ROB ring, rename table,
// scheduler bitmaps and chunk pools, caches, value-prediction tables,
// fetch queue, statistics — while reusing the large allocations from
// the previous run. A worker can therefore run job after job on one Sim
// at memclr cost instead of reconstruction cost; results are identical
// to a freshly constructed Sim by construction (every field is restored
// to its New state).
//
// Reset works on a zero Sim too — NewFromSource is just Reset on a
// fresh struct. On error the Sim may be partially rewound and must be
// discarded, not reused.
func (s *Sim) Reset(cfg config.Config, src trace.Source, benchmark string) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.ROBSize > ringCap {
		return fmt.Errorf("core: ROB size %d exceeds the ring capacity %d", cfg.ROBSize, ringCap)
	}
	nc := cfg.NumClusters()

	s.cfg = cfg
	s.src = src
	s.havePeek = false
	s.trDone = false

	// Peripherals that are a handful of small allocations are rebuilt
	// fresh — cheap, and trivially identical to a new Sim. The bulk
	// state (rename table, scheduler pools, cache arrays, value-prediction
	// tables, the ring) is rewound in place.
	s.bp = bpred.NewUnit(bpred.NewPaperCombined())
	s.bal = steer.NewWeightedBalancer(cfg.IssueWeights())

	if s.table != nil && s.table.Clusters() == nc {
		s.table.Reset(cfg.PhysRegsPerCluster())
	} else {
		s.table = rename.New[eref](cfg.PhysRegsPerCluster())
	}
	// In-flight writers are bounded by ROB occupancy; stocking the
	// rename table's count-slice pool to that bound up front keeps
	// steady-state renaming at zero allocations (the pool otherwise
	// converges only as rename bursts set new high-water marks).
	// Prewarm tops up, which also replenishes slices a previous
	// aborted run left attached to in-flight ring entries.
	s.table.Prewarm(cfg.ROBSize)

	if len(s.iqCount) != nc {
		s.iqCount = make([]int, nc)
		s.iqSize = make([]int, nc)
		s.bypass = make([]int64, nc)
		s.excessInt = make([]int, nc)
		s.excessFP = make([]int, nc)
	} else {
		for c := 0; c < nc; c++ {
			s.iqCount[c] = 0
			s.excessInt[c], s.excessFP[c] = 0, 0
		}
	}
	s.resetSched(nc)

	for i := range s.ring {
		s.ring[i] = entry{depHead: noChunk, depTail: noChunk}
	}
	s.headSeq, s.nextSeq, s.robCount = 0, 0, 0
	s.refSelect = false

	for i := range s.fetchQ {
		s.fetchQ[i] = fetched{}
	}
	s.fqHead, s.fqLen = 0, 0
	s.fetchReadyTime = 0
	s.lastFetchLine = -1
	s.blockingBranch = eref{}
	s.fetchBlockedPreDisp = false
	s.pendingVerifs = s.pendingVerifs[:0]
	s.activeStores = s.activeStores[:0]
	s.lastCommitCycle = 0

	s.views = [trace.MaxSrc]opView{}
	s.steerOps = [trace.MaxSrc]steer.Operand{}
	s.verifs = [trace.MaxSrc]verification{}
	s.consSrcs = [trace.MaxSrc]source{}

	s.progFn = nil
	s.progEvery, s.progNext = 0, 0
	s.phaseWarmup, s.phaseSteady, s.phaseDrain = 0, 0, 0

	switch cfg.Steering {
	case config.SteerRoundRobin:
		s.str = steer.NewRoundRobin(cfg, s.bal)
	case config.SteerLoadOnly:
		s.str = steer.NewLoadOnly(cfg, s.bal)
	case config.SteerDepFIFO:
		s.str = steer.NewDepFIFO(cfg, s.bal)
	default:
		s.str = steer.New(cfg, s.bal)
	}
	switch cfg.VP {
	case config.VPNone:
		s.vp = vpred.None{}
	case config.VPStride:
		if s.strideMem != nil && s.strideMem.Entries() == cfg.VPTableEntries {
			s.strideMem.Reset()
		} else {
			s.strideMem = vpred.NewStride(cfg.VPTableEntries)
		}
		s.strideMem.CoverFP = cfg.VPCoverFP
		s.vp = s.strideMem
	case config.VPPerfect:
		pp := vpred.NewPerfect()
		pp.CoverFP = cfg.VPCoverFP
		s.vp = pp
	case config.VPTwoDelta:
		if s.twoDeltaMem != nil && s.twoDeltaMem.Entries() == cfg.VPTableEntries {
			s.twoDeltaMem.Reset()
		} else {
			s.twoDeltaMem = vpred.NewTwoDelta(cfg.VPTableEntries)
		}
		s.vp = s.twoDeltaMem
	default:
		return fmt.Errorf("core: unknown VP kind %v", cfg.VP)
	}
	if cfg.PerfectCaches {
		s.hier = nil
		s.caches = cache.Perfect{Lat: 1}
	} else {
		if s.hierMem == nil {
			s.hierMem = cache.DefaultHierarchy()
		} else {
			s.hierMem.Reset()
		}
		s.hier = s.hierMem
		s.caches = s.hier
	}
	s.net = interconnect.New(cfg.Interconnect())
	if len(s.res) != nc {
		s.res = make([]*cluster.Resources, nc)
	}
	// PerCluster is freshly allocated every run: Run returns s.out, so
	// the previous run's Results share the old backing array and must
	// never be mutated by a reuse.
	s.out = stats.Results{PerCluster: make([]stats.ClusterStats, nc)}
	for c := range s.res {
		spec := cfg.Clusters[c]
		s.res[c] = cluster.New(spec)
		s.iqSize[c] = spec.IQSize
		s.bypass[c] = int64(spec.BypassLatency)
		s.out.PerCluster[c].Spec = spec.SpecString()
	}
	s.out.Config = cfg.Name
	s.out.Benchmark = benchmark
	return nil
}

// step advances the machine by one cycle: verification, commit, issue,
// dispatch and fetch, in the reverse-pipeline order the paper's
// simulator uses so each stage sees the previous cycle's state.
func (s *Sim) step(cycle int64) {
	s.processVerifications(cycle)
	s.commit(cycle)
	if s.refSelect {
		s.issueRef(cycle)
	} else {
		s.issue(cycle)
	}
	s.dispatch(cycle)
	s.fetch(cycle)
	switch {
	case s.trDone:
		s.phaseDrain++
	case s.out.Instructions == 0:
		s.phaseWarmup++
	default:
		s.phaseSteady++
	}
	if s.progFn != nil && cycle >= s.progNext {
		s.progNext = cycle + s.progEvery
		s.progFn(Progress{Cycle: cycle, Instructions: s.out.Instructions})
	}
}

// drained reports whether the trace is exhausted and the pipeline empty.
func (s *Sim) drained() bool {
	return s.trDone && !s.havePeek && s.robCount == 0 && s.fqLen == 0
}

// Run simulates until the trace drains and the pipeline empties, then
// returns the collected statistics.
func (s *Sim) Run() (stats.Results, error) {
	maxCyc := s.cfg.MaxCycles
	if maxCyc == 0 {
		maxCyc = defaultMaxCyc
	}
	var cycle int64
	for cycle = 0; ; cycle++ {
		if cycle > maxCyc {
			return s.out, fmt.Errorf("core: exceeded %d cycles", maxCyc)
		}
		s.step(cycle)
		if s.drained() {
			cycle++
			break
		}
		if s.robCount > 0 && cycle-s.lastCommitCycle > watchdogWindow {
			return s.out, fmt.Errorf("core: deadlock at cycle %d: %s", cycle, s.describeHead(cycle))
		}
	}
	if err := s.src.Err(); err != nil {
		return s.out, err
	}
	s.out.Cycles = cycle
	s.out.VP = s.vp.Stats()
	s.out.BranchSeen = s.bp.CondSeen + s.bp.TargetSeen
	s.out.BranchHit = s.bp.CondHit + s.bp.TargetHit
	ist := s.net.Stats()
	s.out.Topology = s.cfg.Topology.String()
	s.out.BusTransfers = ist.Transfers
	s.out.HopHistogram = ist.Hops
	for c, r := range s.res {
		s.out.PerCluster[c].Issued = r.IssuedTotal
	}
	if s.hier != nil {
		s.out.L1IMisses = s.hier.L1I.Misses
		s.out.L1DMisses = s.hier.L1D.Misses
		s.out.L2Misses = s.hier.L2.Misses
	}
	return s.out, nil
}

// PhaseCycles reports how the simulated cycles split across the three
// coarse phases: warmup (before the first commit), steady (committing
// with trace input remaining) and drain (trace exhausted, pipeline
// emptying). The three always sum to Results.Cycles after Run. The
// split feeds trace spans and is intentionally kept out of
// stats.Results so golden outputs never change.
func (s *Sim) PhaseCycles() (warmup, steady, drain uint64) {
	return s.phaseWarmup, s.phaseSteady, s.phaseDrain
}

func (s *Sim) describeHead(now int64) string {
	if s.robCount == 0 {
		return "rob empty"
	}
	e := &s.ring[s.headSeq%ringCap]
	msg := fmt.Sprintf("head seq=%d pc=%d op=%v st=%d cluster=%d unverified=%d",
		e.seq, e.pc, e.op, e.st, e.cluster, e.unverified)
	for i := 0; i < e.nsrc; i++ {
		msg += fmt.Sprintf(" src%d(ready=%v pred=%v)", i, e.srcReady(i, now), e.src[i].predicted)
	}
	return msg
}

// fetch models the front end: up to FetchWidth instructions per cycle
// from the correct path, gated by the I-cache and by unresolved
// mispredicted branches.
func (s *Sim) fetch(now int64) {
	if s.fetchBlockedPreDisp {
		return
	}
	if b := s.blockingBranch.get(); b != nil {
		if !b.resolved(now) {
			return
		}
		s.blockingBranch = eref{}
		if t := b.doneTime + 1; t > s.fetchReadyTime {
			s.fetchReadyTime = t
		}
		// Redirect restarts fetch on a fresh line.
		s.lastFetchLine = -1
	} else if !s.blockingBranch.zero() {
		// The branch committed while we were blocked (resolved earlier).
		s.blockingBranch = eref{}
		s.lastFetchLine = -1
	}
	if now < s.fetchReadyTime {
		return
	}
	for n := 0; n < s.cfg.FetchWidth && s.fqLen < fetchQCap; n++ {
		f := &s.fetchQ[(s.fqHead+s.fqLen)%fetchQCap]
		if !s.havePeek {
			if s.trDone || !s.src.Next(&f.dyn) {
				s.trDone = true
				return
			}
			s.havePeek = true
		}
		d := &f.dyn
		// Instruction-cache access once per 32-byte line.
		line := int64(d.PC) * 4 / 32
		if line != s.lastFetchLine {
			lat := s.caches.InstAccess(uint64(d.PC) * 4)
			s.lastFetchLine = line
			if lat > 1 {
				// Line arrives later; retry then (it will hit).
				s.fetchReadyTime = now + int64(lat)
				return
			}
		}
		f.fetchTime = now
		f.mispred = false
		f.vpDone = false
		f.vpConf, f.vpCorrect = [2]bool{}, [2]bool{}
		if d.Info().IsBranch {
			predNext, _ := s.bp.PredictNext(d.PC, d.Inst)
			f.mispred = !s.bp.Resolve(d.PC, d.Inst, d.NextPC, d.Taken, predNext)
		}
		s.havePeek = false
		s.fqLen++
		if f.mispred {
			// Fetch cannot proceed past a mispredicted branch until it
			// resolves; the block transfers to blockingBranch at
			// dispatch.
			s.fetchBlockedPreDisp = true
			return
		}
	}
}

// alloc claims the next ROB ring slot, returning the previous
// occupant's dependence-edge chunks to the shared pool and clearing the
// slot's consumer mask. The pool's high-water mark is global, so after
// warmup recycling never heap-allocates.
func (s *Sim) alloc() *entry {
	slot := s.nextSeq % ringCap
	e := &s.ring[slot]
	s.releaseDeps(e, slot)
	*e = entry{seq: s.nextSeq, doneTime: 1 << 62, depHead: noChunk, depTail: noChunk}
	s.nextSeq++
	s.robCount++
	return e
}

// dispatch is the decode/rename/steer stage: up to DecodeWidth
// instructions per cycle, each possibly expanding into copy or
// verification-copy instructions, all consuming ROB/IQ/register
// resources.
func (s *Sim) dispatch(now int64) {
	for n := 0; n < s.cfg.DecodeWidth && s.fqLen > 0; n++ {
		f := &s.fetchQ[s.fqHead]
		if now < f.fetchTime+int64(s.cfg.RenameCycles) {
			return
		}
		if !s.dispatchOne(now, f) {
			return
		}
		s.fqHead = (s.fqHead + 1) % fetchQCap
		s.fqLen--
	}
}

// opView captures the per-operand analysis shared by steering, copy
// planning and rename.
type opView struct {
	reg      isa.RegID
	isFP     bool
	constant bool // R0: always ready, never renamed
	mapped   uint32
	home     int
	homeProv eref // provider of the home-cluster mapping (snapshot)
	conf     bool // confident prediction available
	correct  bool
}

// dispatchOne renames, steers and inserts one instruction (plus its
// generated copies); it returns false when a structural resource is
// exhausted and dispatch must retry next cycle. All intermediate
// per-instruction state lives in Sim-owned scratch buffers.
func (s *Sim) dispatchOne(now int64, f *fetched) bool {
	info := f.dyn.Info()
	views := s.views[:info.NumSrc]
	if !f.vpDone {
		// Decode-time predictor lookup and training, once per dynamic
		// instruction (§2.2: predictions available and tables updated at
		// decode).
		for i := range views {
			r := f.dyn.Inst.Source(i)
			if r == isa.R0 {
				continue
			}
			_, conf, correct := s.vp.PredictAndTrain(f.dyn.PC, i, r.IsFP(), f.dyn.SrcVal[i])
			f.vpConf[i] = conf && s.cfg.VP != config.VPNone
			f.vpCorrect[i] = correct
		}
		f.vpDone = true
	}

	// Operand analysis and steering inputs, in one pass.
	ops := s.steerOps[:0]
	for i := range views {
		r := f.dyn.Inst.Source(i)
		v := &views[i]
		*v = opView{reg: r, isFP: r.IsFP()}
		if r == isa.R0 {
			v.constant = true
			continue
		}
		v.home = s.table.Home(r)
		v.mapped = s.table.MappedMask(r)
		v.homeProv = s.table.Lookup(r, v.home).Provider
		v.conf = f.vpConf[i]
		v.correct = f.vpCorrect[i]
		p := v.homeProv.get()
		ops = append(ops, steer.Operand{
			Available:       p == nil || p.done(now),
			MappedIn:        v.mapped,
			ProducerCluster: v.home,
			Predicted:       v.conf,
		})
	}
	cl := s.str.Choose(ops)

	// Plan resource needs: every operand unmapped in the target cluster
	// costs a copy or verification-copy issued from its home cluster, and
	// a plain copy also allocates the value's register in cl.
	hasDest := false
	var destLog isa.RegID
	regNeed := 0
	if info.HasDest && f.dyn.Inst.Rd != isa.R0 {
		hasDest = true
		destLog = f.dyn.Inst.Rd
		regNeed++
	}
	var copyHome [trace.MaxSrc]int
	ncopies := 0
	for i := range views {
		v := &views[i]
		if v.constant || v.mapped&(1<<uint(cl)) != 0 {
			continue
		}
		copyHome[ncopies] = v.home
		ncopies++
		if !v.conf {
			regNeed++
		}
	}

	// Structural checks: ROB, IQ and registers for the instruction and
	// every generated copy. Every cluster is checked, not only the ones
	// this dispatch touches: a reissue re-enters the IQ without a
	// capacity check and may leave another cluster's IQ over-full.
	if s.robCount+1+ncopies > s.cfg.ROBSize {
		s.out.DispatchStallROB++
		return false
	}
	for c := range s.iqCount {
		iqNeed := 0
		if c == cl {
			iqNeed++
		}
		for _, h := range copyHome[:ncopies] {
			if h == c {
				iqNeed++
			}
		}
		if s.iqCount[c]+iqNeed > s.iqSize[c] {
			s.out.DispatchStallIQ++
			return false
		}
		if c == cl && !s.table.CanAlloc(c, regNeed) {
			s.out.DispatchStallRegs++
			return false
		}
	}

	// Create copies and verification-copies (they precede the consumer
	// in ROB order).
	consumerSrcs := s.consSrcs[:len(views)]
	verifs := s.verifs[:0]
	for i := range views {
		v := &views[i]
		consumerSrcs[i] = source{reg: v.reg, isFP: v.isFP}
		if v.constant {
			continue
		}
		mapping := s.table.Lookup(v.reg, cl)
		if mapping.Valid {
			prov := mapping.Provider
			p := prov.get()
			if p == nil || p.done(now) {
				// Ready locally.
				continue
			}
			if v.conf {
				// Local predicted speculation: verified at the
				// provider's writeback (§2.2).
				consumerSrcs[i].predicted = true
				consumerSrcs[i].predCorrect = v.correct
				verifs = append(verifs, verification{opIdx: i, provider: prov, correct: v.correct})
				p.hasVerif = true
				if p.st == stIssued && p.doneTime+1 < s.nextVerifMin {
					s.nextVerifMin = p.doneTime + 1
				}
				s.out.PredictedOperandsUsed++
			} else {
				consumerSrcs[i].provider = prov
			}
			continue
		}
		// Unmapped in the target cluster: copy or verification-copy.
		// The home-cluster mapping is untouched since the operand
		// analysis (earlier operands only AddCopy into the target
		// cluster), so the snapshotted provider is still current.
		home := v.home
		homeProv := v.homeProv
		if v.conf {
			vc := s.alloc()
			vc.isVC = true
			vc.class = isa.ClassNone
			vc.lat = 1
			vc.pipe = true
			vc.cluster = home
			vc.dstCluster = cl
			vc.nsrc = 1
			vc.src[0] = source{reg: v.reg, isFP: v.isFP, provider: homeProv}
			vc.dispatchTime = now
			vc.vcCorrect = v.correct
			vc.hasVerif = true
			s.iqEnter(vc)
			// Inline readiness: a freshly dispatched entry has no minReady
			// bound, so it is ready exactly when its provider's result is
			// visible. A pending issued provider needs no recheck event —
			// every issued-not-done entry keeps one completion event armed
			// on the wheel (re-armed on horizon chaining), which fires the
			// consumer-mask wakeup this addDep just registered for.
			if hp := homeProv.get(); hp != nil {
				s.addDep(hp, ref(vc))
				if hp.done(now) {
					s.setReady(vc.seq % ringCap)
				}
			} else {
				s.setReady(vc.seq % ringCap)
			}
			s.out.VerifyCopies++
			s.out.PerCluster[home].CopiesOut++
			consumerSrcs[i].predicted = true
			consumerSrcs[i].predCorrect = v.correct
			verifs = append(verifs, verification{opIdx: i, provider: ref(vc), remote: true, correct: v.correct})
			s.out.PredictedOperandsUsed++
		} else {
			cp := s.alloc()
			cp.isCopy = true
			cp.class = isa.ClassNone
			cp.lat = 1
			cp.pipe = true
			cp.cluster = home
			cp.dstCluster = cl
			cp.hasDest = true
			cp.destLog = v.reg
			cp.nsrc = 1
			cp.src[0] = source{reg: v.reg, isFP: v.isFP, provider: homeProv}
			cp.dispatchTime = now
			if !s.table.AddCopy(v.reg, cl, ref(cp)) {
				panic("core: copy register allocation failed after CanAlloc")
			}
			s.iqEnter(cp)
			if hp := homeProv.get(); hp != nil {
				s.addDep(hp, ref(cp))
				if hp.done(now) {
					s.setReady(cp.seq % ringCap)
				}
			} else {
				s.setReady(cp.seq % ringCap)
			}
			s.out.Copies++
			s.out.PerCluster[home].CopiesOut++
			consumerSrcs[i].provider = ref(cp)
		}
	}

	// The consumer itself.
	e := s.alloc()
	e.pc = f.dyn.PC
	e.op = f.dyn.Inst.Op
	e.class = info.Class
	e.lat = info.Latency
	e.pipe = info.Pipelined
	e.cluster = cl
	e.nsrc = len(views)
	for i := range consumerSrcs {
		e.src[i] = consumerSrcs[i]
	}
	e.dispatchTime = now
	e.isBranch = info.IsBranch
	e.mispred = f.mispred
	e.isLoad = info.IsLoad
	e.isStore = info.IsStore
	e.addr = f.dyn.Addr

	// Register dependence edges for the reissue cascade and bitmap
	// wakeup, computing initial readiness in the same pass (predicted
	// operands are covered, and pending issued providers carry the
	// armed completion event that will wake this entry).
	ready := true
	for i := 0; i < e.nsrc; i++ {
		src := &e.src[i]
		if src.predicted {
			continue
		}
		if p := src.provider.get(); p != nil {
			s.addDep(p, ref(e))
			if !p.done(now) {
				ready = false
			}
		}
	}
	// Pending verifications now that the consumer exists.
	for _, v := range verifs {
		v.consumer = ref(e)
		s.pendingVerifs = append(s.pendingVerifs, v)
		e.unverified++
	}

	if hasDest {
		free, ok := s.table.Rename(destLog, cl, ref(e))
		if !ok {
			panic("core: destination register allocation failed after CanAlloc")
		}
		e.hasDest = true
		e.destLog = destLog
		e.freeAtCommit = free
	}
	if e.isStore {
		s.activeStores = append(s.activeStores, ref(e))
	}
	s.iqEnter(e)
	if ready {
		s.setReady(e.seq % ringCap)
	}
	s.bal.Dispatched(cl)
	s.out.PerCluster[cl].Dispatched++

	if f.mispred {
		s.blockingBranch = ref(e)
		s.fetchBlockedPreDisp = false
	}
	return true
}
