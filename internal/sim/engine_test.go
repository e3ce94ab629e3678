package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{4 * Second, "4.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeSeconds(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds() = %v, want 1.5", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := New()
	var order []int
	e.After(30, "c", func() { order = append(order, 3) })
	e.After(10, "a", func() { order = append(order, 1) })
	e.After(20, "b", func() { order = append(order, 2) })
	e.Run(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(50, "tie", func() { order = append(order, i) })
	}
	e.Run(100)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineRunBoundaryExclusive(t *testing.T) {
	e := New()
	fired := false
	e.At(100, "edge", func() { fired = true })
	e.Run(100)
	if fired {
		t.Fatal("event at the until-boundary must not fire")
	}
	e.Run(101)
	if !fired {
		t.Fatal("event should fire once the window passes it")
	}
}

func TestEngineCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.After(10, "x", func() { fired = true })
	if !ev.Scheduled() {
		t.Fatal("Scheduled() should be true before Cancel")
	}
	ev.Cancel()
	if ev.Scheduled() {
		t.Fatal("Scheduled() should be false after Cancel")
	}
	ev.Cancel() // double-cancel is a no-op
	e.Run(100)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired() = %d, want 0", e.Fired())
	}
}

func TestEngineCancelMiddleOfQueue(t *testing.T) {
	e := New()
	var order []int
	handles := make([]Handle, 0, 10)
	for i := 0; i < 10; i++ {
		i := i
		handles = append(handles, e.At(Time(10*(i+1)), "ev", func() { order = append(order, i) }))
	}
	handles[3].Cancel()
	handles[7].Cancel()
	handles[0].Cancel()
	if e.Pending() != 7 {
		t.Fatalf("Pending = %d, want 7", e.Pending())
	}
	e.Run(Second)
	want := []int{1, 2, 4, 5, 6, 8, 9}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func TestEngineReschedulingFromCallback(t *testing.T) {
	e := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.After(10, "tick", tick)
		}
	}
	e.After(10, "tick", tick)
	e.Run(Second)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != Second {
		t.Fatalf("clock = %v, want 1s", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := New()
	e.After(100, "later", func() {})
	e.Run(200)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past must panic")
		}
	}()
	e.At(50, "past", func() {})
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay must panic")
		}
	}()
	e.After(-1, "neg", func() {})
}

func TestEngineStep(t *testing.T) {
	e := New()
	n := 0
	e.After(10, "a", func() { n++ })
	e.After(20, "b", func() { n++ })
	if !e.Step() || n != 1 || e.Now() != 10 {
		t.Fatalf("first Step: n=%d now=%v", n, e.Now())
	}
	if !e.Step() || n != 2 || e.Now() != 20 {
		t.Fatalf("second Step: n=%d now=%v", n, e.Now())
	}
	if e.Step() {
		t.Fatal("Step on empty queue must return false")
	}
}

func TestEnginePending(t *testing.T) {
	e := New()
	a := e.After(10, "a", func() {})
	e.After(20, "b", func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	a.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Pending after cancel = %d, want 1", e.Pending())
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []Time {
		e := New()
		var stamps []Time
		rng := NewRNG(42)
		var gen func()
		gen = func() {
			stamps = append(stamps, e.Now())
			if len(stamps) < 50 {
				e.After(Time(rng.Intn(1000)+1), "gen", gen)
			}
		}
		e.After(1, "gen", gen)
		e.Run(Second)
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("timestamp %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(3)
	if err := quick.Check(func(n uint8) bool {
		m := int(n%100) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGJitterBounds(t *testing.T) {
	r := NewRNG(11)
	d := 1000 * Microsecond
	for i := 0; i < 1000; i++ {
		j := r.Jitter(d, 0.1)
		if j < Time(float64(d)*0.9) || j > Time(float64(d)*1.1) {
			t.Fatalf("jitter out of bounds: %v", j)
		}
	}
}

func TestRNGExpAndPareto(t *testing.T) {
	r := NewRNG(5)
	const n = 20000
	var expSum, parSum float64
	for i := 0; i < n; i++ {
		x := r.Exp(10)
		if x < 0 {
			t.Fatalf("Exp drew %v < 0", x)
		}
		expSum += x
		p := r.Pareto(3, 2)
		if p < 2 {
			t.Fatalf("Pareto drew %v below its minimum 2", p)
		}
		parSum += p
	}
	if m := expSum / n; m < 9.5 || m > 10.5 {
		t.Fatalf("Exp(10) sample mean %v", m)
	}
	if m := parSum / n; m < 2.8 || m > 3.2 { // alpha*xm/(alpha-1) = 3
		t.Fatalf("Pareto(3, 2) sample mean %v", m)
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestEngineNextAt(t *testing.T) {
	e := New()
	if _, ok := e.NextAt(); ok {
		t.Fatal("empty engine reports a next event")
	}
	e.After(40, "b", func() {})
	h := e.After(25, "a", func() {})
	if at, ok := e.NextAt(); !ok || at != 25 {
		t.Fatalf("NextAt = %v, %v; want 25", at, ok)
	}
	if h.When() != 25 {
		t.Fatalf("When = %v", h.When())
	}
	h.Cancel()
	if h.When() != 0 {
		t.Fatal("cancelled handle still reports a firing time")
	}
	if at, _ := e.NextAt(); at != 40 {
		t.Fatalf("NextAt after cancel = %v; want 40", at)
	}
	if e.Traced() {
		t.Fatal("untraced engine reports a tracer")
	}
	e.Attach(4)
	if !e.Traced() {
		t.Fatal("Attach did not install a tracer")
	}
}

// TestAtKeyedOrdering: keyed events order by key among themselves and
// after every counter-sequenced event at the same instant, whatever
// the scheduling order; keyed timers follow the same rule.
func TestAtKeyedOrdering(t *testing.T) {
	e := New()
	var order []string
	rec := func(s string) func() { return func() { order = append(order, s) } }
	e.AtKeyed(10, "k2", rec("k2"), SeqBand|2)
	e.AtKeyed(10, "k1", rec("k1"), SeqBand|1)
	tm := e.NewTimer("kt", rec("kt"))
	tm.ArmKeyed(10, SeqBand|3)
	e.At(10, "plain", rec("plain"))
	e.Run(20)
	if got, want := fmt.Sprint(order), "[plain k1 k2 kt]"; got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}

	// Re-arming a queued keyed timer moves it.
	tm.ArmKeyed(30, SeqBand|9)
	tm.ArmKeyed(25, SeqBand|9)
	if tm.When() != 25 {
		t.Fatalf("re-armed keyed timer fires at %v, want 25", tm.When())
	}

	for name, f := range map[string]func(){
		"keyless":        func() { e.AtKeyed(40, "x", nil, 7) },
		"past":           func() { e.AtKeyed(5, "x", nil, SeqBand|1) },
		"timer keyless":  func() { tm.ArmKeyed(40, 7) },
		"timer past":     func() { tm.ArmKeyed(5, SeqBand|1) },
		"timer arm past": func() { tm.Arm(5) },
		"timer negative": func() { tm.ArmAfter(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
