package main

import (
	"sort"
	"time"

	"leaveintime/internal/core"
	"leaveintime/internal/packet"
	"leaveintime/internal/traffic"
)

// spanCap bounds the per-timer sample of single-call durations; the
// count and total of a timer are exact regardless.
const spanCap = 1 << 12

// timer is the ledger entry of one layer boundary: an exact call count
// and total duration, plus a bounded reservoir sample of single-call
// durations for percentiles. A timer belongs to one goroutine.
type timer struct {
	n     int64
	total time.Duration
	spans []time.Duration
	state uint64 // xorshift state of the reservoir
}

func (t *timer) add(d time.Duration) {
	t.n++
	t.total += d
	if len(t.spans) < spanCap {
		t.spans = append(t.spans, d)
		return
	}
	t.state ^= t.state << 13
	t.state ^= t.state >> 7
	t.state ^= t.state << 17
	if j := t.state % uint64(t.n); j < spanCap {
		t.spans[j] = d
	}
}

// merge folds o into t: counts and totals add, samples concatenate.
func (t *timer) merge(o *timer) {
	t.n += o.n
	t.total += o.total
	t.spans = append(t.spans, o.spans...)
}

// meanNs is the exact mean call duration in nanoseconds, less the
// clock's own bias.
func (t *timer) meanNs(c clockCost) float64 {
	if t.n == 0 {
		return 0
	}
	return max(0, float64(t.total.Nanoseconds())/float64(t.n)-c.bias)
}

// quantileNs is the q-quantile of the sampled call durations, less the
// clock's own bias.
func (t *timer) quantileNs(q float64, c clockCost) float64 {
	if len(t.spans) == 0 {
		return 0
	}
	s := make([]float64, len(t.spans))
	for i, d := range t.spans {
		s[i] = float64(d.Nanoseconds())
	}
	sort.Float64s(s)
	return max(0, quantileSorted(s, q)-c.bias)
}

// selfNs is the time spent inside the timed calls, less the clock's
// bias on each.
func (t *timer) selfNs(c clockCost) float64 {
	return float64(t.total.Nanoseconds()) - float64(t.n)*c.bias
}

// clockCost is the timing wrapper's own cost in nanoseconds: bias is
// what an empty span reports (so it is inside every measured span) and
// perCall what one timed call adds to a run in all.
type clockCost struct{ bias, perCall float64 }

// measureClock times n empty spans.
func measureClock() clockCost {
	const n = 1 << 18
	t := newTimer(1)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s := time.Now()
		t.add(time.Since(s))
	}
	return clockCost{
		bias:    float64(t.total.Nanoseconds()) / n,
		perCall: float64(time.Since(t0).Nanoseconds()) / n,
	}
}

func newTimer(seed uint64) timer {
	return timer{state: seed | 1}
}

// timedLiT times every Discipline call a port makes into a
// Leave-in-Time server. Embedding the concrete *core.LiT forwards every
// optional interface the port consults (SessionChecker, SessionRemover,
// SessionPurger and the metrics setter) untouched; only the per-packet
// calls are overridden.
type timedLiT struct {
	*core.LiT
	enq, deq, other timer
}

func newTimedLiT(l *core.LiT, seed uint64) *timedLiT {
	return &timedLiT{LiT: l, enq: newTimer(seed), deq: newTimer(seed + 1), other: newTimer(seed + 2)}
}

func (w *timedLiT) Enqueue(p *packet.Packet, now float64) {
	t0 := time.Now()
	w.LiT.Enqueue(p, now)
	w.enq.add(time.Since(t0))
}

func (w *timedLiT) Dequeue(now float64) (*packet.Packet, bool) {
	t0 := time.Now()
	p, ok := w.LiT.Dequeue(now)
	w.deq.add(time.Since(t0))
	return p, ok
}

func (w *timedLiT) NextEligible(now float64) (float64, bool) {
	t0 := time.Now()
	t, ok := w.LiT.NextEligible(now)
	w.other.add(time.Since(t0))
	return t, ok
}

func (w *timedLiT) OnTransmit(p *packet.Packet, finish float64) {
	t0 := time.Now()
	w.LiT.OnTransmit(p, finish)
	w.other.add(time.Since(t0))
}

// timedSource times a session source's Next.
type timedSource struct {
	src  traffic.Source
	next timer
}

func (s *timedSource) Next() (float64, float64) {
	t0 := time.Now()
	gap, l := s.src.Next()
	s.next.add(time.Since(t0))
	return gap, l
}

// simLedger collects the wrapped disciplines and sources of one traced
// simulation.
type simLedger struct {
	discs   []*timedLiT
	sources []*timedSource
}

func (lg *simLedger) lit(l *core.LiT) *timedLiT {
	w := newTimedLiT(l, uint64(3*len(lg.discs)+1))
	lg.discs = append(lg.discs, w)
	return w
}

func (lg *simLedger) source(src traffic.Source) traffic.Source {
	s := &timedSource{src: src, next: newTimer(uint64(len(lg.sources) + 7))}
	lg.sources = append(lg.sources, s)
	return s
}

// totals folds the per-port and per-session timers into one per call
// kind.
func (lg *simLedger) totals() (enq, deq, other, next timer) {
	for _, d := range lg.discs {
		enq.merge(&d.enq)
		deq.merge(&d.deq)
		other.merge(&d.other)
	}
	for _, s := range lg.sources {
		next.merge(&s.next)
	}
	return
}
