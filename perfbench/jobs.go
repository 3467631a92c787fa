package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"clustervp"
)

// machine is one of the paper's four machines, in the two forms the
// benchmark drives it: a public-API Config for in-process runs and the
// wire MachineSpec for clusterd jobs. Both must build the same machine;
// the byte-identity check on sampled serve jobs holds them together.
type machine struct {
	label string
	cfg   clustervp.Config
	spec  wireMachine
}

// wireMachine mirrors the clusterd JSON machine description.
type wireMachine struct {
	Clusters string `json:"clusters,omitempty"`
	VP       string `json:"vp,omitempty"`
	Steering string `json:"steering,omitempty"`
}

const asymSpec = "4w16q:2w8q:2w8q"

// machines is the paper's four-machine set: the centralized reference,
// the clustered baseline that pays wire delay, the stride-VP machine
// with VPB steering that wins it back, and its asymmetric variant.
var machines = func() []machine {
	vpb := func(c clustervp.Config) clustervp.Config {
		return c.WithVP(clustervp.VPStride).WithSteering(clustervp.SteerVPB)
	}
	specs, err := clustervp.ParseClusterSpecs(asymSpec)
	if err != nil {
		panic(err)
	}
	return []machine{
		{"1c", clustervp.Preset(1), wireMachine{Clusters: "1"}},
		{"4c", clustervp.Preset(4), wireMachine{Clusters: "4"}},
		{"4c-vpb", vpb(clustervp.Preset(4)), wireMachine{Clusters: "4", VP: "stride", Steering: "vpb"}},
		{"asym-vpb", vpb(clustervp.FromSpecs(specs...)), wireMachine{Clusters: asymSpec, VP: "stride", Steering: "vpb"}},
	}
}()

var kernels = clustervp.Kernels()

// gridSize is the number of jobs in one pass: every machine on every
// Table 2 kernel.
var gridSize = len(machines) * len(kernels)

// Kernel-seed families. A kernel seed is the workload seed, a family
// and an index packed together, so different workload seeds never
// share an input and the default seed's first grid pass (family 0,
// index 0) is the canonical inputs the golden grid was captured on.
const (
	famGrid   = 0 // grid pass p, and the kernel jobs of the serve traffic
	famReplay = 1 // serve-box replay trace r
	famWarm   = 2 // warm-up jobs inside set-up
)

func kernelSeed(seed uint64, family, i int) uint64 {
	return seed<<20 | uint64(family)<<16 | uint64(i&0xffff)
}

// jobKey names one simulation: machine index, kernel and kernel seed.
type jobKey struct {
	m      int
	kernel string
	kseed  uint64
}

func (k jobKey) String() string {
	return fmt.Sprintf("%s/%s/%d", machines[k.m].label, k.kernel, k.kseed)
}

// gridKey is job i of grid pass p: machines outer, kernels inner.
func gridKey(seed uint64, pass, i int) jobKey {
	return jobKey{m: i / len(kernels), kernel: kernels[i%len(kernels)], kseed: kernelSeed(seed, famGrid, pass)}
}

// gridJobs expands one grid pass into public-API jobs.
func gridJobs(seed uint64, pass int) []clustervp.Job {
	jobs := make([]clustervp.Job, gridSize)
	for i := range jobs {
		k := gridKey(seed, pass, i)
		jobs[i] = clustervp.Job{Config: machines[k.m].cfg, Kernel: k.kernel, Scale: 1, Seed: k.kseed}
	}
	return jobs
}

// replayKernels are the kernels a replay may upload: every kernel whose
// inputs depend on the seed. mpeg2enc's do not, so its trace is the
// same content under every seed and could never be a new upload.
var replayKernels = func() []string {
	var out []string
	for _, k := range kernels {
		if k != "mpeg2enc" {
			out = append(out, k)
		}
	}
	return out
}()

// replayKey is serve-box replay r: every replay kernel in turn, each
// round shifted one machine on, on inputs no other operation uses.
func replayKey(seed uint64, r int) jobKey {
	n := len(replayKernels)
	return jobKey{m: (r%n + r/n) % len(machines), kernel: replayKernels[r%n], kseed: kernelSeed(seed, famReplay, r)}
}

// resultDigest is the digest the benchmark compares results by: the
// first 8 bytes of SHA-256 over the compact JSON encoding, which is
// exactly what clusterd puts on the wire once whitespace is dropped.
func resultDigest(compactJSON []byte) string {
	sum := sha256.Sum256(compactJSON)
	return hex.EncodeToString(sum[:8])
}

func digestOf(r clustervp.Results) string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // Results is plain data; Marshal cannot fail
	}
	return resultDigest(b)
}

// digestFile is the committed record of every result the default
// seed (0) can produce, captured with -capture-digests.
type digestFile struct {
	Seed   uint64     `json:"seed"`
	Grid   [][]string `json:"grid"`   // [pass][job index]
	Replay []string   `json:"replay"` // [replay index]
}

//go:embed digests.json
var digestsJSON []byte

var committed = func() digestFile {
	var d digestFile
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		panic(fmt.Sprintf("digests.json: %v", err))
	}
	return d
}()

// Default-seed coverage of the committed digests. A grid pass or serve
// operation beyond them is still checked every other way.
const (
	capturePasses  = 20
	captureReplays = 240
)

// expectedDigest returns the committed digest for a job at the default
// seed, or "" when the job lies outside what was captured.
func expectedDigest(seed uint64, family, index, job int) string {
	if seed != committed.Seed {
		return ""
	}
	switch family {
	case famGrid:
		if index < len(committed.Grid) && job < len(committed.Grid[index]) {
			return committed.Grid[index][job]
		}
	case famReplay:
		if index < len(committed.Replay) {
			return committed.Replay[index]
		}
	}
	return ""
}

// captureDigestFile simulates every default-seed job through the
// public API and writes the digest file.
func captureDigestFile(path string) error {
	d := digestFile{Seed: 0}
	eng := clustervp.NewEngine(0)
	for p := 0; p < capturePasses; p++ {
		rs := eng.Run(gridJobs(0, p))
		if err := clustervp.FirstErr(rs); err != nil {
			return err
		}
		row := make([]string, len(rs))
		for i, r := range rs {
			row[i] = digestOf(r.Res)
		}
		d.Grid = append(d.Grid, row)
		fmt.Fprintf(os.Stderr, "captured grid pass %d\n", p)
	}
	var jobs []clustervp.Job
	for r := 0; r < captureReplays; r++ {
		k := replayKey(0, r)
		jobs = append(jobs, clustervp.Job{Config: machines[k.m].cfg, Kernel: k.kernel, Scale: 1, Seed: k.kseed})
	}
	rs := eng.Run(jobs)
	if err := clustervp.FirstErr(rs); err != nil {
		return err
	}
	for _, r := range rs {
		d.Replay = append(d.Replay, digestOf(r.Res))
	}
	b, err := json.Marshal(d)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// recordCounter knows how many dynamic instructions each (kernel,
// kernel seed) executes, from the record count of its .cvt trace
// written through the public API. Every simulation of that input must
// commit exactly that many instructions.
type recordCounter struct {
	dir string
	mu  sync.Mutex
	n   map[string]uint64
}

func newRecordCounter(dir string) *recordCounter {
	return &recordCounter{dir: dir, n: map[string]uint64{}}
}

func (rc *recordCounter) count(kernel string, kseed uint64) (uint64, error) {
	key := fmt.Sprintf("%s-%d", kernel, kseed)
	rc.mu.Lock()
	n, ok := rc.n[key]
	rc.mu.Unlock()
	if ok {
		return n, nil
	}
	path := filepath.Join(rc.dir, key+".cvt")
	n, err := clustervp.WriteKernelTrace(path, kernel, 1, kseed)
	if err != nil {
		return 0, err
	}
	os.Remove(path)
	rc.mu.Lock()
	rc.n[key] = n
	rc.mu.Unlock()
	return n, nil
}
