package runner

// Trace-file support for the grid engine: content fingerprinting for
// the memoization key, and pre-materialization of the traces a grid
// shares so each workload is synthesized and encoded exactly once no
// matter how many configurations replay it.

import (
	"bufio"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"sync"

	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// digestCache memoizes trace-file digests keyed by path, revalidated by
// (size, mtime) so an overwritten file re-hashes instead of serving a
// stale digest.
var digestCache sync.Map // path -> digestEntry

type digestEntry struct {
	size   int64
	mtime  int64
	digest string
}

// traceDigest returns a content-derived fingerprint component for the
// trace file at path. Failures fold the error into the fingerprint, so
// a missing file still memoizes deterministically (and re-checks once
// it appears, via the stat revalidation).
func traceDigest(path string) string {
	st, err := os.Stat(path)
	if err != nil {
		return fmt.Sprintf("%s!%v", path, err)
	}
	if e, ok := digestCache.Load(path); ok {
		ent := e.(digestEntry)
		if ent.size == st.Size() && ent.mtime == st.ModTime().UnixNano() {
			return ent.digest
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Sprintf("%s!%v", path, err)
	}
	defer f.Close()
	h := crc64.New(crcTable)
	n, err := io.Copy(h, bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return fmt.Sprintf("%s!%v", path, err)
	}
	d := fmt.Sprintf("crc64:%016x:%d", h.Sum64(), n)
	digestCache.Store(path, digestEntry{size: st.Size(), mtime: st.ModTime().UnixNano(), digest: d})
	return d
}

// TracePath names the .cvt file MaterializeTraces writes for a
// workload instance inside dir.
func TracePath(dir, kernel string, scale int, seed uint64) string {
	name := fmt.Sprintf("%s-s%d", kernel, scale)
	if seed != 0 {
		name = fmt.Sprintf("%s-seed%d", name, seed)
	}
	return filepath.Join(dir, name+".cvt")
}

// verifyCache memoizes successful trace verifications keyed by path,
// revalidated by (size, mtime) like the digest cache, so repeated grid
// runs against a warm trace directory pay one full decode per file
// per change, not per run.
var verifyCache sync.Map // path -> verifyEntry

type verifyEntry struct {
	size  int64
	mtime int64
}

// verifyTrace reports whether the .cvt file at path decodes cleanly end
// to end — header, every block CRC, and the record-count trailer — i.e.
// whether its content digest is intact. Any failure (missing file, bad
// magic, corruption, truncation) reports false; the caller regenerates.
func verifyTrace(path string) bool {
	st, err := os.Stat(path)
	if err != nil {
		return false
	}
	if e, ok := verifyCache.Load(path); ok {
		ent := e.(verifyEntry)
		if ent.size == st.Size() && ent.mtime == st.ModTime().UnixNano() {
			return true
		}
	}
	if _, err := trace.VerifyFile(path); err != nil {
		return false
	}
	verifyCache.Store(path, verifyEntry{size: st.Size(), mtime: st.ModTime().UnixNano()})
	return true
}

// WriteKernelTrace functionally executes a suite kernel and streams its
// dynamic instruction trace into a .cvt file at path (written
// atomically), returning the number of records written.
func WriteKernelTrace(path, kernel string, scale int, seed uint64) (uint64, error) {
	prog, err := workload.Build(kernel, scale, seed)
	if err != nil {
		return 0, err
	}
	return trace.WriteFile(path, prog.Name, prog.Code, trace.NewExecutor(prog))
}

// MaterializeTraces writes each distinct (kernel, scale, seed) workload
// among the jobs to a .cvt file under dir — once, however many
// configurations share it — and returns a copy of the jobs rewritten
// to replay those files. Jobs that already name a trace pass through
// untouched. An existing file is reused only after verifying it decodes
// cleanly (CRC-checked end to end); a corrupt or truncated leftover is
// regenerated in place rather than poisoning every job that replays it.
// Successive grid runs against an intact directory skip generation
// entirely.
func MaterializeTraces(dir string, jobs []Job) ([]Job, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	out := make([]Job, len(jobs))
	written := map[string]bool{}
	for i, j := range jobs {
		out[i] = j
		if j.Trace != "" {
			continue
		}
		path := TracePath(dir, j.Kernel, j.EffectiveScale(), j.Seed)
		if !written[path] {
			if !verifyTrace(path) {
				if _, err := WriteKernelTrace(path, j.Kernel, j.EffectiveScale(), j.Seed); err != nil {
					return nil, fmt.Errorf("runner: materialize %s: %w", path, err)
				}
			}
			written[path] = true
		}
		out[i].Trace = path
	}
	return out, nil
}
