package event

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestOrdering(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(3, func() { got = append(got, 3) })
	s.Schedule(1, func() { got = append(got, 1) })
	s.Schedule(2, func() { got = append(got, 2) })
	s.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3 {
		t.Errorf("Now = %v, want 3", s.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(1, func() { got = append(got, i) })
	}
	s.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("ties fired out of scheduling order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(1, func() { fired = true })
	s.Cancel(e)
	s.RunAll()
	if fired {
		t.Error("canceled event fired")
	}
	// Double cancel and cancel-after-fire are no-ops.
	s.Cancel(e)
	e2 := s.Schedule(2, func() {})
	s.RunAll()
	s.Cancel(e2)
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var got []int
	events := make([]*Event, 0, 10)
	for i := 0; i < 10; i++ {
		i := i
		events = append(events, s.Schedule(float64(i), func() { got = append(got, i) }))
	}
	s.Cancel(events[4])
	s.Cancel(events[7])
	s.RunAll()
	if len(got) != 8 {
		t.Fatalf("got %d events, want 8: %v", len(got), got)
	}
	for _, v := range got {
		if v == 4 || v == 7 {
			t.Fatalf("canceled event %d fired", v)
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var got []float64
	for _, ti := range []float64{1, 2, 3, 4} {
		ti := ti
		s.Schedule(ti, func() { got = append(got, ti) })
	}
	s.Run(2.5)
	if len(got) != 2 {
		t.Fatalf("Run(2.5) fired %v, want events at 1 and 2", got)
	}
	if s.Now() != 2.5 {
		t.Errorf("Now = %v, want clock advanced to 2.5", s.Now())
	}
	s.Run(10)
	if len(got) != 4 {
		t.Fatalf("second Run fired %v", got)
	}
}

func TestStopInsideHandler(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 5; i++ {
		s.Schedule(float64(i), func() {
			count++
			if count == 2 {
				s.Stop()
			}
		})
	}
	s.RunAll()
	if count != 2 {
		t.Fatalf("Stop did not halt the loop: %d events fired", count)
	}
	s.RunAll()
	if count != 5 {
		t.Fatalf("resume after Stop fired %d total, want 5", count)
	}
}

func TestScheduleInsideHandler(t *testing.T) {
	s := New()
	var got []float64
	s.Schedule(1, func() {
		s.After(1, func() { got = append(got, s.Now()) })
	})
	s.RunAll()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("After inside handler: got %v, want [2]", got)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(5, func() {})
	s.RunAll()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.Schedule(1, func() {})
}

// TestScheduleRejectsBadTimes checks every guard of Schedule and
// ScheduleStamped on a clock at t=1: a NaN fire or schedule time must
// panic with its own message instead of firing at an arbitrary point
// of the order, and nothing may be queued by a rejected call.
func TestScheduleRejectsBadTimes(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name, want string
		call       func(s *Simulator)
	}{
		{"nan", "event: NaN fire time", func(s *Simulator) { s.Schedule(nan, func() {}) }},
		{"past", "event: scheduled in the past", func(s *Simulator) { s.Schedule(0.5, func() {}) }},
		{"after-nan", "event: NaN fire time", func(s *Simulator) { s.After(nan, func() {}) }},
		{"stamped-nan-fire", "event: NaN fire time", func(s *Simulator) { s.ScheduleStamped(nan, 1, 1<<63, func() {}) }},
		{"stamped-past", "event: scheduled in the past", func(s *Simulator) { s.ScheduleStamped(0.5, 0, 1<<63, func() {}) }},
		{"stamped-nan-sched", "event: NaN stamped schedule time", func(s *Simulator) { s.ScheduleStamped(2, nan, 1<<63, func() {}) }},
		{"stamped-sched-late", "event: stamped schedule time after fire time", func(s *Simulator) { s.ScheduleStamped(2, 3, 1<<63, func() {}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New()
			s.Schedule(1, func() {})
			s.RunAll()
			defer func() {
				if r := recover(); r != c.want {
					t.Errorf("panic %v, want %q", r, c.want)
				}
				if s.Pending() != 0 {
					t.Errorf("%d events pending after a rejected call", s.Pending())
				}
			}()
			c.call(s)
		})
	}
}

func TestPending(t *testing.T) {
	s := New()
	e := s.Schedule(1, func() {})
	s.Schedule(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.Cancel(e)
	if s.Pending() != 1 {
		t.Fatalf("Pending after cancel = %d, want 1", s.Pending())
	}
}

// TestPropertyFiringOrder checks, over random schedules, that events
// fire in nondecreasing time order and that equal times respect
// scheduling order.
func TestPropertyFiringOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		s := New()
		type fired struct {
			t   float64
			seq int
		}
		var got []fired
		for i, r := range raw {
			ti := float64(r % 50) // many collisions
			i := i
			s.Schedule(ti, func() { got = append(got, fired{ti, i}) })
		}
		s.RunAll()
		if len(got) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].t != got[j].t {
				return got[i].t < got[j].t
			}
			return got[i].seq < got[j].seq
		}) {
			return false
		}
		// Sorted-ness must be strict equality with a stable sort of
		// the input.
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRunOnEmptyQueue(t *testing.T) {
	s := New()
	s.Run(10)
	if s.Now() != 10 {
		t.Errorf("Run on empty queue left Now = %v, want 10", s.Now())
	}
	if s.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestEventTime(t *testing.T) {
	s := New()
	e := s.Schedule(1.5, func() {})
	if e.Time() != 1.5 {
		t.Errorf("Time = %v", e.Time())
	}
	if math.IsNaN(e.Time()) {
		t.Error("NaN time")
	}
}
