package main

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"sort"
	"time"

	"leaveintime/internal/admission"
	"leaveintime/internal/calculus"
	"leaveintime/internal/metrics"
	"leaveintime/internal/serve"
)

// perLayer lists every per-layer metric with its unit, in report order.
// A traced run reports all of them; a layer the workload does not use
// reports 0.
var perLayer = []struct{ name, unit string }{
	{"event.fired_per_pkt_hop", "event/pkt-hop"},
	{"event.pending_hw", "events"},
	{"event.self_ns_per_pkt_hop", "ns/pkt-hop"},
	{"core.enqueue_ns", "ns"},
	{"core.enqueue_p99_ns", "ns"},
	{"core.dequeue_ns", "ns"},
	{"core.dequeue_p99_ns", "ns"},
	{"core.calls_per_pkt_hop", "call/pkt-hop"},
	{"core.self_ns_per_pkt_hop", "ns/pkt-hop"},
	{"core.regulated_ratio", "fraction"},
	{"traffic.next_ns", "ns"},
	{"traffic.self_ns_per_pkt_hop", "ns/pkt-hop"},
	{"network.pool_taken", "count"},
	{"network.pool_released", "count"},
	{"network.queue_hw", "packets"},
	{"network.drops", "count"},
	{"alloc.bytes_per_pkt_hop", "B/pkt-hop"},
	{"gc.pause_ms", "ms"},
	{"shard.cpu_per_wall", "cpu-s/s"},
	{"shard.crossings_per_pkt", "count/pkt"},
	{"shard.events_per_window", "event/window"},
	{"admission.setup_ns_per_session", "ns"},
	{"admission.admit_ns", "ns"},
	{"admission.release_ns", "ns"},
	{"admission.accept_ratio", "fraction"},
	{"admission.blocking_z", "stderr"},
	{"serve.decode_ns", "ns"},
	{"serve.encode_ns", "ns"},
	{"serve.http_self_us", "us"},
	{"serve.allocs_per_req", "alloc/req"},
	{"serve.cpu_per_wall", "cpu-s/s"},
	{"serve.shed_429", "count"},
	{"serve.deadline_expired", "count"},
	{"serve.malformed", "count"},
	{"serve.setup_p50_ms", "ms"},
	{"serve.setup_p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.ledger_gap_pct", "%"},
}

// setLayers reports a traced run's ledger: the per-key median over the
// run's repetitions, 0 for keys no repetition set.
func (r *run) setLayers(rows []map[string]float64) {
	for _, m := range perLayer {
		var xs []float64
		for _, row := range rows {
			if v, ok := row[m.name]; ok {
				xs = append(xs, v)
			}
		}
		v := 0.0
		if len(xs) > 0 {
			v = median(xs)
		}
		r.set(m.name, v, m.unit)
		r.record("  %-32s %14.6g %s", m.name, v, m.unit)
	}
	r.record("ledger: medians over %d traced repetitions", len(rows))
}

// simSample is one untraced/traced pair of a simulator workload.
type simSample struct {
	// The untraced run: wall and CPU time, bytes allocated and GC pause.
	wall, cpu time.Duration
	alloc     uint64
	gcPause   time.Duration
	// The traced run's CPU time, ledger, clock cost and registry
	// counters.
	tcpu      time.Duration
	lg        *simLedger
	clock     clockCost
	eng       metrics.Engine
	pendingHW int64
	pool      metrics.Pool
	ports     []metrics.Port
	// Simulator set-up: time in admission calls, their number, and the
	// sessions admitted.
	admit            time.Duration
	admits, sessions int
	// Sharding: packets emitted, cross-shard handoffs, simulated span
	// and conservative window (0 when unsharded).
	emitted         int64
	crossings       int64
	span, lookahead float64
}

// measure runs fn and returns its wall time, CPU time, bytes allocated
// and GC pause.
func measure(fn func()) (wall, cpu time.Duration, alloc uint64, pause time.Duration) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	fn()
	wall = time.Since(t0)
	cpu = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	return wall, cpu, m1.TotalAlloc - m0.TotalAlloc, time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
}

// row derives the per-layer ledger of one simulator pair. Busy time is
// the traced run's process CPU time (the sharded run spreads over
// workers) less the timing wrapper's own cost; the event loop's self
// time is what the wrapped discipline and source calls leave of it, so
// the three self times add up to the traced run's work per pkt-hop.
func (s *simSample) row() map[string]float64 {
	var hops, arrivals, regulated, drops, qhw int64
	for _, p := range s.ports {
		hops += p.Transmissions
		arrivals += p.Arrivals
		regulated += p.Sched.Regulated
		drops += p.DroppedPackets + p.FaultDrops
		qhw = max(qhw, p.QueueHighWater)
	}
	h := float64(hops)
	enq, deq, other, next := s.lg.totals()
	c := s.clock
	coreNs := enq.selfNs(c) + deq.selfNs(c) + other.selfNs(c)
	nextNs := next.selfNs(c)
	calls := float64(enq.n + deq.n + other.n + next.n)
	busyNs := float64(s.tcpu.Nanoseconds()) - calls*c.perCall - coreNs - nextNs
	row := map[string]float64{
		"event.fired_per_pkt_hop":     float64(s.eng.Fired) / h,
		"event.pending_hw":            float64(s.pendingHW),
		"event.self_ns_per_pkt_hop":   busyNs / h,
		"core.enqueue_ns":             enq.meanNs(c),
		"core.enqueue_p99_ns":         enq.quantileNs(0.99, c),
		"core.dequeue_ns":             deq.meanNs(c),
		"core.dequeue_p99_ns":         deq.quantileNs(0.99, c),
		"core.calls_per_pkt_hop":      float64(enq.n+deq.n+other.n) / h,
		"core.self_ns_per_pkt_hop":    coreNs / h,
		"core.regulated_ratio":        float64(regulated) / float64(arrivals),
		"traffic.next_ns":             next.meanNs(c),
		"traffic.self_ns_per_pkt_hop": nextNs / h,
		"network.pool_taken":          float64(s.pool.Taken),
		"network.pool_released":       float64(s.pool.Released),
		"network.queue_hw":            float64(qhw),
		"network.drops":               float64(drops),
		"alloc.bytes_per_pkt_hop":     float64(s.alloc) / h,
		"gc.pause_ms":                 float64(s.gcPause.Nanoseconds()) / 1e6,
		"shard.cpu_per_wall":          s.cpu.Seconds() / s.wall.Seconds(),
		"trace.overhead_pct":          100 * (float64(s.tcpu)/float64(s.cpu) - 1),
		// The ledger's own closure: the three self times against the
		// untraced run's CPU per pkt-hop, in percent.
		"trace.ledger_gap_pct": 100 * ((busyNs+coreNs+nextNs)/float64(s.cpu.Nanoseconds()) - 1),
	}
	if s.sessions > 0 {
		admitNs := float64(s.admit.Nanoseconds()) - float64(s.admits)*c.bias
		row["admission.setup_ns_per_session"] = admitNs / float64(s.sessions)
		row["admission.admit_ns"] = admitNs / float64(s.admits)
		row["admission.accept_ratio"] = 1 // every session of the workload is admissible by construction
	}
	if s.lookahead > 0 {
		row["shard.crossings_per_pkt"] = float64(s.crossings) / float64(s.emitted)
		row["shard.events_per_window"] = float64(s.eng.Fired) / (s.span / s.lookahead)
	}
	return row
}

func fig7Traced(r *run) error {
	clock := measureClock()
	start := time.Now()
	var rows []map[string]float64
	for len(rows) == 0 || time.Since(start).Seconds() < r.seconds {
		plain := buildFig7(r.seed, nil, nil)
		var s simSample
		s.wall, s.cpu, s.alloc, s.gcPause = measure(func() { plain.run(fig7SimSeconds) })
		s.lg, s.clock = &simLedger{}, clock
		reg := metrics.NewRegistry()
		traced := buildFig7(r.seed, s.lg, reg)
		_, s.tcpu, _, _ = measure(func() { traced.run(fig7SimSeconds) })
		if len(rows) == 0 {
			r.checkTandem(plain, "untraced")
			r.checkTandem(traced, "traced")
		}
		pd, td := plain.digest(), traced.digest()
		r.check(pd == td, "traced digest %s == untraced digest %s", td, pd)
		emitted, _ := plain.emitted()
		r.res.Attempted += emitted
		s.eng, s.pool, s.ports = reg.EngineCounters(), reg.PoolCounters(), reg.PortCounters()
		s.pendingHW = s.eng.HeapHighWater
		s.admit, s.admits, s.sessions = traced.admit, traced.admits, len(traced.sessions)
		rows = append(rows, s.row())
	}
	r.setLayers(rows)
	return nil
}

func metroTraced(r *run) error {
	clock := measureClock()
	start := time.Now()
	var rows []map[string]float64
	for len(rows) == 0 || time.Since(start).Seconds() < r.seconds {
		plain, err := buildMetro(r.seed, metroShards, metroWorkers, nil, false)
		if err != nil {
			return err
		}
		var s simSample
		s.wall, s.cpu, s.alloc, s.gcPause = measure(func() { plain.run(metroSimSeconds) })
		s.lg, s.clock = &simLedger{}, clock
		traced, err := buildMetro(r.seed, metroShards, metroWorkers, s.lg, true)
		if err != nil {
			return err
		}
		_, s.tcpu, _, _ = measure(func() { traced.run(metroSimSeconds) })
		if len(rows) == 0 {
			r.checkMetro(plain, "untraced")
			r.checkMetro(traced, "traced")
		}
		pd, td := plain.digest(), traced.digest()
		r.check(pd == td, "traced digest %s == untraced digest %s", td, pd)
		s.emitted, _ = plain.emitted()
		r.res.Attempted += s.emitted
		merged := traced.rt.MergedRegistry()
		s.eng, s.pool, s.ports = merged.EngineCounters(), merged.PoolCounters(), merged.PortCounters()
		for _, sh := range traced.rt.Shards {
			s.pendingHW = max(s.pendingHW, sh.Reg.EngineCounters().HeapHighWater)
			s.span = math.Max(s.span, sh.Sim.Now())
		}
		s.crossings, s.lookahead = traced.rt.Crossed(), traced.lookahead()
		rows = append(rows, s.row())
	}
	r.setLayers(rows)
	return nil
}

// replayLedger times the daemon's per-request work replayed in-process:
// JSON decode and encode on the serve wire types, and the admission
// fast path with the system's curve gate.
type replayLedger struct {
	decode, encode, admit, release timer
	res                            *stepResult
}

// replay offers the step's SETUP/RELEASE sequence to a procedure-1
// controller and curve gate sized like the daemon's system, in
// schedule order without waiting: the Erlang loss system with the
// daemon's admission code and no transport.
func replay(calls []call, rate float64) *replayLedger {
	lg := &replayLedger{decode: newTimer(11), encode: newTimer(12), admit: newTimer(13), release: newTimer(14),
		res: &stepResult{rate: rate, calls: calls, out: make([]outcome, len(calls))}}
	proc, err := admission.NewProcedure1(admitCapacity, []admission.Class{{R: admitCapacity, Sigma: 1}})
	if err != nil {
		panic(err) // constant, valid class set
	}
	gate := admission.NewCurveGate(calculus.FCFSServer{C: admitCapacity, LMax: admitLMax}, 0)
	type event struct {
		t       float64
		release bool
		call    int
	}
	events := make([]event, 0, 2*len(calls))
	for i, c := range calls {
		events = append(events, event{c.due, false, i}, event{c.due + c.hold, true, i})
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].t != events[b].t {
			return events[a].t < events[b].t
		}
		return !events[a].release && events[b].release
	})
	var buf bytes.Buffer
	for _, ev := range events {
		id := ev.call + 1
		if ev.release {
			if lg.res.out[ev.call] != outAccepted {
				continue
			}
			body, _ := json.Marshal(serve.ReleaseRequest{ID: id})
			var req serve.ReleaseRequest
			lg.decode.add(timed(func() { decodeStrict(body, &req) }))
			lg.release.add(timed(func() {
				proc.Remove(req.ID)
				gate.Release(admitCallRate, admitLMax)
			}))
			buf.Reset()
			lg.encode.add(timed(func() { json.NewEncoder(&buf).Encode(map[string]bool{"released": true}) })) //nolint:errcheck
			continue
		}
		body, _ := json.Marshal(serve.SetupRequest{ID: id, Rate: admitCallRate, LMax: admitLMax})
		var req serve.SetupRequest
		lg.decode.add(timed(func() { decodeStrict(body, &req) }))
		var assigns []admission.Assignment
		ok := false
		lg.admit.add(timed(func() {
			spec := admission.SessionSpec{ID: req.ID, Rate: req.Rate, LMax: req.LMax, LMin: req.LMax}
			assigns, ok = proc.AdmitClass(gate, []admission.SessionSpec{spec}, 1, admission.Options{PerPacket: true})
		}))
		resp := serve.SetupResponse{Accepted: ok}
		lg.res.out[ev.call] = outRejected
		if ok {
			lg.res.out[ev.call] = outAccepted
			resp.DMax, resp.DelayBound = assigns[0].DMax, gate.Delay()
		}
		buf.Reset()
		lg.encode.add(timed(func() { json.NewEncoder(&buf).Encode(resp) })) //nolint:errcheck
	}
	return lg
}

// decodeStrict decodes like the daemon: unknown fields are malformed.
func decodeStrict(body []byte, v any) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		panic(err) // the replay marshals its own well-formed bodies
	}
}

func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

func admitTraced(r *run) error {
	s, err := newAdmitSession(r)
	if err != nil {
		return err
	}
	defer s.close()
	dur := r.seconds / 2
	calls := schedule(s.r.Split(), admitNominal, dur)

	c := measureClock()
	lg := replay(calls, admitNominal)
	a, _, _ := lg.res.counts()
	r.checkErlang("replay", lg.res, s.n)

	// Two identical live runs of the step: the ledger above is a replay
	// outside the daemon, so the live path carries no tracing, and the
	// A/A difference bounds what tracing could have cost.
	first := s.lc.runStep(calls, admitNominal, s.nextID+1)
	s.nextID += len(calls)
	second := s.lc.runStep(calls, admitNominal, s.nextID+1)
	s.nextID += len(calls)
	var accepted, failed, releaseFailed int64
	for _, st := range []*stepResult{first, second} {
		acc, _, f := st.counts()
		accepted += int64(acc)
		failed += int64(f)
		releaseFailed += st.releaseFailed
		r.res.Attempted += int64(len(st.calls))
	}
	r.res.Failed = failed
	stats, err := r.finalChecks(s, accepted, releaseFailed)
	if err != nil {
		return err
	}
	z := r.checkErlang("live", second, s.n)
	r.checkGenerator(second.late)
	r.check(failed == 0, "no SETUP failed (%d failed)", failed)

	rtt := quantile(second.rtt, 0.5) * 1e3 // us
	work := (lg.decode.meanNs(c) + lg.admit.meanNs(c) + lg.encode.meanNs(c)) / 1e3
	p50a, p50b := quantile(first.answered(), 0.5), quantile(second.answered(), 0.5)
	row := map[string]float64{
		"gc.pause_ms":            float64(second.gcPause.Nanoseconds()) / 1e6,
		"admission.admit_ns":     lg.admit.meanNs(c),
		"admission.release_ns":   lg.release.meanNs(c),
		"admission.accept_ratio": float64(a) / float64(len(calls)),
		"admission.blocking_z":   z,
		"serve.decode_ns":        lg.decode.meanNs(c),
		"serve.encode_ns":        lg.encode.meanNs(c),
		"serve.http_self_us":     rtt - work,
		"serve.allocs_per_req":   float64(second.mallocs) / float64(second.requests),
		"serve.cpu_per_wall":     second.cpu.Seconds() / second.genWall,
		"serve.shed_429":         float64(first.status429 + second.status429),
		"serve.deadline_expired": float64(stats.Serve.DeadlineExpired),
		"serve.malformed":        float64(stats.Serve.Malformed),
		"serve.setup_p50_ms":     quantile(second.answered(), 0.5),
		"serve.setup_p99_ms":     second.p99(),
		"loadgen.late_p99_ms":    quantile(second.late, 0.99),
		"trace.overhead_pct":     100 * (p50b/p50a - 1),
	}
	r.record("replay: %d SETUPs, %d decode / %d admit / %d encode / %d release spans kept; live: %d latency samples per run, loopback, %d connections",
		len(calls), len(lg.decode.spans), len(lg.admit.spans), len(lg.encode.spans), len(lg.release.spans), len(second.answered()), len(s.lc.clients))
	r.setLayers([]map[string]float64{row})
	return nil
}
