package fleet

// The chaos acceptance test for fleet mode (ISSUE satellite): run a
// real grid through a 3-replica in-process fleet, kill one replica
// while it holds a shard in flight, and prove the three load-bearing
// properties at once:
//
//  1. every job still completes, with results byte-identical to a
//     local runner.Simulate of the same grid,
//  2. duplicate work is bounded by the killed replica's in-flight
//     shards (here: the one held simulation, which is lost, so the
//     expected duplicate count is zero and the ceiling is one),
//  3. the coordinator's event stream still emits exactly one terminal
//     line per job — failover never leaks a premature terminal.
//
// The kill is a network kill (listener closed first, then
// CloseClientConnections + Close), the nearest in-process analogue to
// SIGKILL: new dials are refused and established streams break
// mid-line. The victim is not fixed — it is
// whichever replica starts the fleet's first simulation — so the test
// exercises the failover ring from an arbitrary home slot.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clustervp/internal/config"
	"clustervp/internal/runner"
	"clustervp/internal/service"
	"clustervp/internal/stats"
)

func TestChaosKillReplicaMidGrid(t *testing.T) {
	var (
		firstClaim atomic.Bool           // CAS: exactly one run becomes the held shard
		victim     atomic.Int32          // index of the replica to kill; -1 until chosen
		victimCh   = make(chan int, 1)   // delivers the victim index to the test
		proceed    = make(chan struct{}) // releases the held run once the kill landed
		killed     = make(chan struct{}) // closed after the kill: victim runs are lost
		gate       = make(chan struct{}) // closed at cleanup: drains the dead replica
	)
	victim.Store(-1)

	tf := newTestFleet(t, 3, func(i int) func(runner.Job) (stats.Results, error) {
		return func(j runner.Job) (stats.Results, error) {
			if firstClaim.CompareAndSwap(false, true) {
				// This run defines the victim and stays in flight while
				// the test kills its replica's listener — a guaranteed
				// orphaned shard, no timing luck needed.
				victimCh <- i
				<-proceed
			}
			if int(victim.Load()) == i {
				select {
				case <-killed:
					// The "process" is dead: whatever is still on its
					// queue is lost work, never a result.
					<-gate
					return stats.Results{}, errors.New("chaos: replica killed")
				default:
				}
			}
			return runner.Simulate(j)
		}
	}, nil)
	var onGate, onProceed, onKilled sync.Once
	t.Cleanup(func() { onGate.Do(func() { close(gate) }) })
	t.Cleanup(func() { onProceed.Do(func() { close(proceed) }) })
	t.Cleanup(func() { onKilled.Do(func() { close(killed) }) })

	grid := service.GridRequest{
		Machines: []config.MachineSpec{{Clusters: "2"}, {Clusters: "4", VP: "stride", Steering: "vpb"}},
		Kernels:  []string{"rawcaudio", "gsmdec", "gsmenc"},
		Scales:   []int{1, 2},
	}
	ids, err := tf.co.SubmitGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 12 {
		t.Fatalf("grid expanded to %d jobs, want 12", len(ids))
	}

	// Watch one job's NDJSON stream across the kill: however many times
	// its shard is re-dispatched, the coordinator must emit exactly one
	// terminal line.
	ts := httptest.NewServer(tf.co.Handler())
	defer ts.Close()
	type streamResult struct {
		terminals int
		last      service.Event
		err       error
	}
	streamDone := make(chan streamResult, 1)
	go func() {
		var sr streamResult
		resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[0] + "/events")
		if err != nil {
			sr.err = err
			streamDone <- sr
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev service.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				sr.err = err
				break
			}
			sr.last = ev
			if ev.State == service.StateDone || ev.State == service.StateFailed {
				sr.terminals++
			}
		}
		if sr.err == nil {
			sr.err = sc.Err()
		}
		streamDone <- sr
	}()

	// Wait for some replica to start simulating, then kill it while the
	// shard is held in flight.
	var v int
	select {
	case v = <-victimCh:
	case <-time.After(30 * time.Second):
		t.Fatal("no replica started a simulation")
	}
	victim.Store(int32(v))
	victimName := tf.co.replicas[v].name
	t.Logf("killing %s mid-shard", victimName)
	tf.servers[v].Listener.Close()
	tf.servers[v].CloseClientConnections()
	tf.servers[v].Close()
	onKilled.Do(func() { close(killed) })
	onProceed.Do(func() { close(proceed) })

	// Every job must still finish, on a surviving replica, with results
	// byte-identical to a local simulation of the same grid (row-major
	// expansion order, exactly as SubmitGrid performs it).
	i := 0
	for _, m := range grid.Machines {
		for _, k := range grid.Kernels {
			for _, sc := range grid.Scales {
				st := waitJob(t, tf.co, ids[i])
				if st.State != service.StateDone {
					t.Fatalf("job %s (%s x%d) = %s: %s", ids[i], k, sc, st.State, st.Error)
				}
				if st.Replica == victimName {
					t.Errorf("job %s attributed to the killed replica %s", ids[i], victimName)
				}
				want, err := runner.Simulate(runner.Job{Config: mustBuild(t, m), Kernel: k, Scale: sc})
				if err != nil {
					t.Fatal(err)
				}
				gotJSON, _ := json.Marshal(st.Results)
				wantJSON, _ := json.Marshal(want)
				if !bytes.Equal(gotJSON, wantJSON) {
					t.Errorf("job %s results diverge from local:\n fleet: %s\n local: %s", ids[i], gotJSON, wantJSON)
				}
				i++
			}
		}
	}

	// Executed() accounting: the victim's only worker spent the whole
	// test holding the doomed shard, so it completed nothing; every
	// unique job simulated exactly once elsewhere, and any duplicate is
	// bounded by the victim's in-flight shards at kill time (= 1).
	if n := tf.executed[v].Load(); n != 0 {
		t.Errorf("killed replica completed %d simulations, want 0 (its worker held the doomed shard)", n)
	}
	var total int64
	for _, c := range tf.executed {
		total += c.Load()
	}
	extra := total - int64(len(ids))
	if extra < 0 || extra > 1 {
		t.Errorf("total simulations = %d for %d unique jobs (duplicates = %d, ceiling 1)", total, len(ids), extra)
	}

	// The held shard was orphaned, so the coordinator had to resubmit
	// it, and the victim's books show the scar: dispatched but not
	// delivered. The probe loop must also have demoted it to down.
	if n := tf.co.resubmits.Load(); n < 1 {
		t.Errorf("resubmits = %d, want >= 1 (the held shard was orphaned)", n)
	}
	deadline := time.Now().Add(10 * time.Second)
	var vs ReplicaStatus
	for {
		vs = tf.co.Stats().Replicas[v]
		if vs.State == "down" || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if vs.State != "down" {
		t.Errorf("killed replica state = %q, want down", vs.State)
	}
	orphans := vs.Dispatched - vs.Completed
	if orphans < 1 {
		t.Errorf("victim dispatched=%d completed=%d: no orphaned shard recorded", vs.Dispatched, vs.Completed)
	}
	if extra > orphans {
		t.Errorf("duplicates %d exceed the victim's orphaned shards %d", extra, orphans)
	}

	// The watched stream saw exactly one terminal line, and it was done.
	select {
	case sr := <-streamDone:
		if sr.err != nil {
			t.Fatalf("event stream: %v", sr.err)
		}
		if sr.terminals != 1 || sr.last.State != service.StateDone {
			t.Errorf("event stream terminals = %d, last = %+v; want exactly one done line", sr.terminals, sr.last)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("event stream never terminated")
	}
}
