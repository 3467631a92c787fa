package trace_test

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"

	"clustervp/internal/trace"
)

func newReader(t *testing.T, data []byte) *trace.Reader {
	t.Helper()
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestMemTraceCursorMatchesReader decodes a kernel trace into the
// columnar form and requires replay to be record-for-record identical
// to the streaming Reader, including from two concurrent cursors.
func TestMemTraceCursorMatchesReader(t *testing.T) {
	data, want := encodeKernel(t, "cjpeg", 1)
	mt, err := trace.ReadMem(newReader(t, data))
	if err != nil {
		t.Fatal(err)
	}
	if mt.Name() != "cjpeg" {
		t.Errorf("Name() = %q, want cjpeg", mt.Name())
	}
	if mt.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", mt.Len(), len(want))
	}
	got := collect(t, mt.NewCursor())
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cursor replay differs from the streaming Reader")
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := mt.NewCursor()
			var d trace.DynInst
			var n int
			for c.Next(&d) {
				if d.Seq != uint64(n) {
					t.Errorf("record %d: Seq = %d", n, d.Seq)
					return
				}
				n++
			}
			if n != len(want) {
				t.Errorf("concurrent cursor yielded %d records, want %d", n, len(want))
			}
		}()
	}
	wg.Wait()
}

// TestMemTraceCursorZeroAlloc pins the Source contract the columnar
// form exists for: Next never heap-allocates.
func TestMemTraceCursorZeroAlloc(t *testing.T) {
	data, _ := encodeKernel(t, "cjpeg", 1)
	mt, err := trace.ReadMem(newReader(t, data))
	if err != nil {
		t.Fatal(err)
	}
	c := mt.NewCursor()
	var d trace.DynInst
	if avg := testing.AllocsPerRun(2000, func() { c.Next(&d) }); avg != 0 {
		t.Errorf("Cursor.Next allocates %v per call, want 0", avg)
	}
}

// TestMemTraceBudgetFallback: a budget smaller than the decoded trace
// yields ErrNoMemForm (the stream-instead sentinel), not a hard error.
func TestMemTraceBudgetFallback(t *testing.T) {
	data, _ := encodeKernel(t, "cjpeg", 1)
	if _, err := trace.ReadMemCapped(newReader(t, data), 1024); !errors.Is(err, trace.ErrNoMemForm) {
		t.Fatalf("tiny budget: got %v, want ErrNoMemForm", err)
	}
	mt, err := trace.ReadMemCapped(newReader(t, data), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if mt.SizeBytes() <= 0 {
		t.Error("SizeBytes must be positive for a non-empty trace")
	}
}

// TestArenaAdmission covers the arena contract: decode-once sharing,
// hard budget admission, duplicate adds, and the stream-instead answer
// for misses.
func TestArenaAdmission(t *testing.T) {
	data, _ := encodeKernel(t, "cjpeg", 1)
	mt, err := trace.ReadMem(newReader(t, data))
	if err != nil {
		t.Fatal(err)
	}

	a := trace.NewArena(mt.SizeBytes())
	if got := a.Get("k1"); got != nil {
		t.Fatal("Get on empty arena must miss")
	}
	if !a.Add("k1", mt) {
		t.Fatal("first Add within budget must admit")
	}
	if got := a.Get("k1"); got != mt {
		t.Fatal("Get after Add must return the same MemTrace")
	}
	if !a.Add("k1", mt) {
		t.Error("duplicate Add of a resident key must report resident")
	}
	if a.Add("k2", mt) {
		t.Error("Add past the budget must refuse")
	}
	if a.Remaining() != 0 {
		t.Errorf("Remaining = %d after filling the budget", a.Remaining())
	}
	if a.Get("k2") != nil {
		t.Error("a refused Add must leave the key absent")
	}
	if a.Get("k1") != mt {
		t.Error("a refused Add must not evict the resident key")
	}

	// Admitting nothing is a valid configuration (arena disabled).
	off := trace.NewArena(0)
	if off.Add("k", mt) {
		t.Error("zero-budget arena must admit nothing")
	}
}

// TestArenaConcurrentAddGet exercises the admission race: many
// goroutines decode and add the same key while others read it. Run
// under -race this pins the locking discipline.
func TestArenaConcurrentAddGet(t *testing.T) {
	data, _ := encodeKernel(t, "cjpeg", 1)
	mt, err := trace.ReadMem(newReader(t, data))
	if err != nil {
		t.Fatal(err)
	}
	a := trace.NewArena(10 * mt.SizeBytes())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if got := a.Get("k"); got == nil {
					a.Add("k", mt)
				} else if got != mt {
					t.Error("arena returned a foreign MemTrace")
					return
				}
			}
		}()
	}
	wg.Wait()
	// One key resident however many racers added it: exactly one
	// trace's bytes are charged against the budget.
	if got, want := a.Remaining(), 9*mt.SizeBytes(); got != want {
		t.Errorf("Remaining = %d after racing adds of one key, want %d", got, want)
	}
	if a.Get("k") != mt {
		t.Error("racing adds left the key absent")
	}
}
