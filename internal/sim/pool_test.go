package sim

import "testing"

// The event pool's safety contract: a Handle taken on an event that has
// since fired and been recycled for a different purpose must be inert.
func TestStaleHandleCancelIsNoOp(t *testing.T) {
	e := New()
	fired1 := false
	h1 := e.After(10, "first", func() { fired1 = true })
	e.Run(20)
	if !fired1 {
		t.Fatal("first event did not fire")
	}
	if h1.Scheduled() {
		t.Fatal("fired event still reports Scheduled")
	}
	// The pool reuses the recycled Event object for the next schedule.
	fired2 := false
	h2 := e.After(10, "second", func() { fired2 = true })
	// Cancelling the stale handle must not disturb the new event.
	h1.Cancel()
	if !h2.Scheduled() {
		t.Fatal("stale Cancel cancelled a recycled event")
	}
	e.Run(100)
	if !fired2 {
		t.Fatal("recycled event did not fire")
	}
}

func TestStaleHandleAfterCancelAndReuse(t *testing.T) {
	e := New()
	h1 := e.After(10, "victim", func() { t.Fatal("cancelled event fired") })
	h1.Cancel()
	fired := false
	h2 := e.After(10, "fresh", func() { fired = true })
	h1.Cancel() // stale: same Event object, older generation
	if !h2.Scheduled() {
		t.Fatal("stale Cancel hit the recycled event")
	}
	e.Run(100)
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

func TestEventPoolRecycles(t *testing.T) {
	e := New()
	fn := func() {}
	for i := 0; i < 1000; i++ {
		e.After(1, "ev", fn)
		e.Step()
	}
	if len(e.free) == 0 || len(e.free) > 2 {
		t.Fatalf("free list holds %d events after a fire loop, want 1-2", len(e.free))
	}
}

func TestZeroHandleIsInert(t *testing.T) {
	var h Handle
	if h.Scheduled() {
		t.Fatal("zero Handle reports Scheduled")
	}
	h.Cancel() // must not panic
	if h.When() != 0 {
		t.Fatal("zero Handle has a When")
	}
}

// The tentpole regression: schedule→fire→recycle must not allocate once
// the pool is warm.
func TestScheduleFireRecycleZeroAllocs(t *testing.T) {
	e := New()
	fn := func() {}
	e.After(1, "warm", fn)
	e.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(1, "ev", fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule→fire→recycle allocates %.1f/op, want 0", allocs)
	}
}

func TestCancelPathZeroAllocs(t *testing.T) {
	e := New()
	fn := func() {}
	e.After(1, "warm", fn)
	e.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		h := e.After(1, "ev", fn)
		h.Cancel()
	})
	if allocs != 0 {
		t.Fatalf("schedule→cancel→recycle allocates %.1f/op, want 0", allocs)
	}
}

func TestTimerRearmZeroAllocs(t *testing.T) {
	e := New()
	var tm *Timer
	tm = e.NewTimer("tick", func() { tm.ArmAfter(10) })
	tm.ArmAfter(10)
	allocs := testing.AllocsPerRun(1000, func() {
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("timer re-arm allocates %.1f/op, want 0", allocs)
	}
}

func TestTimerFires(t *testing.T) {
	e := New()
	count := 0
	tm := e.NewTimer("t", func() { count++ })
	tm.ArmAfter(10)
	if !tm.Armed() || tm.When() != 10 {
		t.Fatalf("Armed=%v When=%v", tm.Armed(), tm.When())
	}
	e.Run(100)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}
}

func TestTimerRearmMovesFiring(t *testing.T) {
	e := New()
	var at Time
	tm := e.NewTimer("t", func() { at = e.Now() })
	tm.ArmAfter(10)
	tm.ArmAfter(50) // supersedes: must fire once, at 50
	e.Run(100)
	if at != 50 {
		t.Fatalf("fired at %v, want 50", at)
	}
	if e.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1", e.Fired())
	}
}

func TestTimerStop(t *testing.T) {
	e := New()
	tm := e.NewTimer("t", func() { t.Fatal("stopped timer fired") })
	tm.ArmAfter(10)
	tm.Stop()
	if tm.Armed() {
		t.Fatal("Armed after Stop")
	}
	tm.Stop() // idempotent
	e.Run(100)
	// Re-arm after Stop still works.
	fired := false
	tm2 := e.NewTimer("t2", func() { fired = true })
	tm2.ArmAfter(10)
	tm2.Stop()
	tm2.ArmAfter(20)
	e.Run(200)
	if !fired {
		t.Fatal("re-armed timer did not fire")
	}
}

func TestTimerSelfRearmInCallback(t *testing.T) {
	e := New()
	count := 0
	var tm *Timer
	tm = e.NewTimer("tick", func() {
		count++
		if count < 5 {
			tm.ArmAfter(10)
		}
	})
	tm.ArmAfter(10)
	e.Run(Second)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

// TestTimerThinkLoopRearm is the RPC think-time pattern: a timer whose
// callback does work, then re-arms itself with a jittered delay, racing
// other traffic events. The firing count must be deterministic across
// reruns, the timer must stay armed between firings, and a Stop from
// inside the callback must end the loop cleanly (re-armable later).
func TestTimerThinkLoopRearm(t *testing.T) {
	run := func() (int, Time) {
		e := New()
		rng := NewRNG(7)
		fired := 0
		var last Time
		var tm *Timer
		tm = e.NewTimer("think", func() {
			fired++
			last = e.Now()
			if fired >= 20 {
				tm.Stop() // inside own callback: already dequeued, must not panic
				return
			}
			tm.ArmAfter(rng.Jitter(Millisecond, 0.5))
		})
		// Background traffic contending for tied timestamps.
		var bg *Timer
		bg = e.NewTimer("bg", func() { bg.ArmAfter(Millisecond) })
		bg.ArmAfter(Millisecond)
		tm.ArmAfter(Millisecond)
		e.Run(Second)
		if tm.Armed() {
			t.Fatal("think timer armed after its loop stopped")
		}
		// The stopped timer is re-armable: one more firing.
		tm.ArmAfter(Millisecond)
		e.Run(e.Now() + 2*Millisecond)
		return fired, last
	}
	f1, l1 := run()
	f2, l2 := run()
	if f1 != 21 {
		t.Fatalf("fired %d times, want 20 loop firings + 1 re-arm", f1)
	}
	if f1 != f2 || l1 != l2 {
		t.Fatalf("think loop nondeterministic: (%d,%v) vs (%d,%v)", f1, l1, f2, l2)
	}
}

// A timer re-armed at a tied timestamp behaves like a freshly scheduled
// event: it consumes a new sequence number, so it fires after events
// already queued at that time — the same semantics as the
// cancel-and-reschedule pattern the Timer replaces.
func TestTimerRearmSequencesLikeFreshEvent(t *testing.T) {
	e := New()
	var order []string
	tm := e.NewTimer("timer", func() { order = append(order, "timer") })
	tm.ArmAfter(50)
	e.At(50, "a", func() { order = append(order, "a") })
	tm.ArmAfter(50) // re-arm: now sequences after "a"
	e.Run(100)
	if len(order) != 2 || order[0] != "a" || order[1] != "timer" {
		t.Fatalf("order = %v, want [a timer]", order)
	}
}

func TestPendingCountsTimers(t *testing.T) {
	e := New()
	tm := e.NewTimer("t", func() {})
	tm.ArmAfter(10)
	e.After(20, "ev", func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	tm.Stop()
	if e.Pending() != 1 {
		t.Fatalf("Pending after Stop = %d, want 1", e.Pending())
	}
}

// Queue stress: interleaved schedules, cancels, and timer re-arms must
// preserve (time, seq) execution order exactly.
func TestHeapStressWithCancels(t *testing.T) {
	e := New()
	rng := NewRNG(1234)
	var fireTimes []Time
	record := func() { fireTimes = append(fireTimes, e.Now()) }
	var handles []Handle
	for i := 0; i < 2000; i++ {
		switch rng.Intn(3) {
		case 0, 1:
			handles = append(handles, e.At(e.Now()+Time(rng.Intn(500)), "s", record))
		case 2:
			if len(handles) > 0 {
				j := rng.Intn(len(handles))
				handles[j].Cancel()
				handles = append(handles[:j], handles[j+1:]...)
			}
		}
		if rng.Intn(4) == 0 {
			e.Step()
		}
	}
	e.Run(Second)
	for i := 1; i < len(fireTimes); i++ {
		if fireTimes[i] < fireTimes[i-1] {
			t.Fatalf("out-of-order firing at %d: %v after %v", i, fireTimes[i], fireTimes[i-1])
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", e.Pending())
	}
}
