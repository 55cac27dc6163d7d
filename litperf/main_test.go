package main

import (
	"io"
	"math"
	"testing"

	"leaveintime/internal/core"
	"leaveintime/internal/event"
	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/rng"
	"leaveintime/internal/scenarios"
	"leaveintime/internal/traffic"
)

func newTestRun() *run {
	return &run{seed: 1, out: io.Discard, res: result{Metrics: map[string]metric{}}}
}

// The port consults optional interfaces on its discipline; the timing
// wrapper must expose every one of them, or a traced run silently loses
// registration checks, teardown or scheduler counters.
func TestTimedLiTForwardsOptionalInterfaces(t *testing.T) {
	var d network.Discipline = newTimedLiT(core.New(core.Config{Capacity: 1e6, LMax: 424}), 1)
	if _, ok := d.(network.SessionChecker); !ok {
		t.Error("wrapper hides SessionChecker")
	}
	if _, ok := d.(network.SessionRemover); !ok {
		t.Error("wrapper hides SessionRemover")
	}
	if _, ok := d.(network.SessionPurger); !ok {
		t.Error("wrapper hides SessionPurger")
	}
	if _, ok := d.(interface {
		SetMetrics(*metrics.Arena, metrics.Handle)
	}); !ok {
		t.Error("wrapper hides the scheduler metrics setter")
	}
}

// jitterTandem runs two jitter-controlled hops, so the second hop's
// regulator holds packets, and returns its registry.
func jitterTandem(lg *simLedger) *metrics.Registry {
	sim := event.New()
	net := network.New(sim, scenarios.CellBits)
	var route []*network.Port
	for _, name := range []string{"a", "b"} {
		lit := core.New(core.Config{Capacity: scenarios.T1Rate, LMax: scenarios.CellBits})
		var disc network.Discipline = lit
		if lg != nil {
			disc = lg.lit(lit)
		}
		route = append(route, net.NewPort(name, scenarios.T1Rate, scenarios.PropDelay, disc))
	}
	reg := metrics.NewRegistry()
	net.EnableMetrics(reg)
	r := rng.New(3)
	for id := 1; id <= 40; id++ {
		var src traffic.Source = scenarios.NewOnOff(0.0065, r.Split())
		if lg != nil {
			src = lg.source(src)
		}
		s := net.AddSession(id, scenarios.VoiceRate, true, route, make([]network.SessionPort, len(route)), src)
		s.Start(0, 2)
	}
	sim.RunAll()
	return reg
}

// The scheduler counters reach the registry through the wrapper exactly
// as they do without it.
func TestTimedLiTKeepsSchedulerCounters(t *testing.T) {
	plain := jitterTandem(nil).PortCounters()
	lg := &simLedger{}
	traced := jitterTandem(lg).PortCounters()
	for i := range plain {
		if plain[i] != traced[i] {
			t.Errorf("port %s: untraced %+v, traced %+v", plain[i].Name, plain[i], traced[i])
		}
	}
	if plain[1].Sched.Regulated == 0 {
		t.Fatal("the second hop regulated nothing; the test does not exercise SetMetrics")
	}
	if enq, _, _, next := lg.totals(); enq.n == 0 || next.n == 0 {
		t.Fatalf("wrappers timed nothing: %d enqueues, %d source calls", enq.n, next.n)
	}
}

func TestFig7TracedDigestMatchesUntraced(t *testing.T) {
	plain := buildFig7(5, nil, nil)
	plain.run(4)
	traced := buildFig7(5, &simLedger{}, metrics.NewRegistry())
	traced.run(4)
	if pd, td := plain.digest(), traced.digest(); pd != td {
		t.Fatalf("traced digest %s, untraced %s", td, pd)
	}
	if n, first := plain.boundViolations(); n != 0 {
		t.Fatalf("%d bound violations: %s", n, first)
	}
}

// The rebuilt fig7-mix network is Fig07's highest-load point: the
// measured a-j session matches the library run packet for packet.
func TestFig7MatchesLibrary(t *testing.T) {
	const dur, seed = 3, 7
	tr := buildFig7(seed, nil, nil)
	for _, s := range tr.sessions {
		s.Start(0, dur)
	}
	tr.sim.Run(dur)
	want := scenarios.RunFig7(dur, seed).Rows[0]
	got := tr.sessions[0].Delays // MixRoutes starts with the a-j sessions
	if want.AOff != fig7AOff || got.Count() != want.Packets || got.Max() != want.MaxDelay || got.Jitter() != want.Jitter {
		t.Fatalf("a-j session: got %d packets, max %g, jitter %g; Fig07 row %+v", got.Count(), got.Max(), got.Jitter(), want)
	}
}

// The rebuilt metro network is scenarios.PlanMetro's, and a traced run
// and a serial run reproduce the sharded digest.
func TestMetroMatchesLibraryAndShardCounts(t *testing.T) {
	const dur, seed = 2, 9
	want, err := scenarios.RunMetro(scenarios.MetroOptions{Duration: dur, Seed: seed, Shards: metroShards, Workers: metroWorkers})
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]string{}
	for _, c := range []struct {
		name            string
		shards, workers int
		traced          bool
	}{{"shards=2", 2, 2, false}, {"shards=2 traced", 2, 2, true}, {"shards=1", 1, 1, false}} {
		var lg *simLedger
		if c.traced {
			lg = &simLedger{}
		}
		m, err := buildMetro(seed, c.shards, c.workers, lg, c.traced)
		if err != nil {
			t.Fatal(err)
		}
		m.run(dur)
		emitted, lost := m.emitted()
		var maxD float64
		for _, v := range m.views {
			maxD = math.Max(maxD, v.Last().Delays.Max())
		}
		if emitted != want.Emitted || lost != 0 || maxD != want.MaxDelay || m.rt.Tripped() != "" {
			t.Errorf("%s: emitted %d lost %d max %g tripped %q; library %+v", c.name, emitted, lost, maxD, m.rt.Tripped(), want)
		}
		digests[c.name] = m.digest()
	}
	if digests["shards=2"] != digests["shards=1"] || digests["shards=2"] != digests["shards=2 traced"] {
		t.Fatalf("digests differ: %v", digests)
	}
}

// The Erlang B check passes with the daemon's trunk count and fails with
// a wrong one, on the in-process replay of a long nominal step.
func TestErlangCheckRejectsWrongTrunks(t *testing.T) {
	calls := schedule(rng.New(4), admitNominal, 40)
	res := replay(calls, admitNominal).res
	r := newTestRun()
	r.checkErlang("replay", res, 249)
	if len(r.failed) != 0 {
		t.Fatalf("right trunk count failed: %v", r.failed)
	}
	for _, n := range []int{219, 279} {
		r := newTestRun()
		r.checkErlang("replay", res, n)
		if len(r.failed) == 0 {
			t.Errorf("the check accepted %d trunks", n)
		}
	}
}

// One short live step against a real daemon: the daemon's own rule
// gives 249 trunks, every accepted call is released, and the measured
// blocking passes at the right trunk count and fails at a wrong one.
// Under the race detector the daemon cannot sustain the nominal rate,
// so the step runs at a tenth of it and only the bookkeeping is
// checked.
func TestAdmitLiveStep(t *testing.T) {
	if testing.Short() {
		t.Skip("live daemon step")
	}
	r := newTestRun()
	s, err := newAdmitSession(r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if s.n != 249 {
		t.Fatalf("trunks %d, want 249", s.n)
	}
	rate := admitNominal
	if raceEnabled {
		rate /= 10
	}
	st := s.step(rate, 3)
	acc, _, failed := st.counts()
	if failed != 0 {
		t.Fatalf("%d SETUPs failed", failed)
	}
	if _, err := r.finalChecks(s, int64(acc), st.releaseFailed); err != nil {
		t.Fatal(err)
	}
	if len(r.failed) != 0 {
		t.Fatalf("checks failed: %v", r.failed)
	}
	if raceEnabled {
		return
	}
	r.checkErlang("live", st, s.n)
	if len(r.failed) != 0 {
		t.Fatalf("checks failed: %v", r.failed)
	}
	r.checkErlang("live", st, s.n-40)
	if len(r.failed) == 0 {
		t.Fatal("the Erlang check accepted a wrong trunk count on live data")
	}
}

func TestStaircaseSettlesAtKnee(t *testing.T) {
	// Every rate up to 11000 meets the SLO: the walk climbs from 6000
	// and then alternates between 11000 and 11600.
	knee, passes := staircase(1, 40, func(rate float64) bool { return rate <= 11000 })
	if knee < 11000 || knee > 11600 || passes < 20 {
		t.Fatalf("knee %g with %d passes, want within [11000, 11600] and at least 20", knee, passes)
	}
	// A stall that sinks every fifth trial moves the knee by less than
	// one rung.
	trial := 0
	stalled, _ := staircase(1, 40, func(rate float64) bool {
		trial++
		return rate <= 11000 && trial%5 != 0
	})
	if math.Abs(stalled-knee) > 0.05*knee {
		t.Fatalf("stalled knee %g, clean %g: more than a rung apart", stalled, knee)
	}
	// The walk stays on the ladder above the nominal rate, and reports
	// the top rung when no trial misses.
	if knee, passes := staircase(1, 10, func(float64) bool { return false }); knee != admitLadder[1] || passes != 0 {
		t.Fatalf("nothing meets the SLO: knee %g, passes %d", knee, passes)
	}
	top := admitLadder[len(admitLadder)-1]
	if knee, _ := staircase(1, 3*len(admitLadder), func(float64) bool { return true }); knee != top {
		t.Fatalf("everything meets the SLO: knee %g, want %g", knee, top)
	}
}
