package trace

import "sync"

// Arena is a bounded, content-keyed cache of decoded MemTraces shared
// read-only across all jobs in a grid: each distinct trace digest is
// decoded once, then every job replays it through its own Cursor. The
// byte budget is a hard admission bound, not an eviction policy —
// traces that do not fit simply stay on the streaming path, which keeps
// the arena's behavior trivially deterministic (results never depend on
// what happens to be cached).
type Arena struct {
	mu     sync.Mutex
	budget int64
	used   int64
	m      map[string]*MemTrace
}

// NewArena returns an arena admitting up to budget bytes of decoded
// trace (as measured by MemTrace.SizeBytes). A non-positive budget
// admits nothing, which degrades every consumer to streaming.
func NewArena(budget int64) *Arena {
	return &Arena{budget: budget, m: make(map[string]*MemTrace)}
}

// Get returns the decoded trace for key, or nil when absent.
func (a *Arena) Get(key string) *MemTrace {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.m[key]
}

// Add admits t under key, reporting whether key is now resident. A
// losing racer's decode is wasted work but never wrong — both decodes
// of one digest are identical, and the survivor is shared. Over-budget
// traces are refused.
func (a *Arena) Add(key string, t *MemTrace) bool {
	sz := t.SizeBytes()
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.m[key]; ok {
		return true
	}
	if a.used+sz > a.budget {
		return false
	}
	a.m[key] = t
	a.used += sz
	return true
}

// Remaining returns the unallocated budget (never negative).
func (a *Arena) Remaining() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.used >= a.budget {
		return 0
	}
	return a.budget - a.used
}
