package main

import (
	"math"
	"runtime"
	"time"

	"leaveintime/internal/core"
	"leaveintime/internal/event"
	"leaveintime/internal/network"
	"leaveintime/internal/rng"
	"leaveintime/internal/scenarios"
	"leaveintime/internal/shard"
	"leaveintime/internal/topo"
)

// The metro workload is scenarios.PlanMetro at its defaults (16 rings
// of 12 access switches, 2 local and 2 cross-metro sessions per ring:
// 208 switches, 64 sessions), rebuilt here from the topo and shard
// APIs so the traced run can wrap every port's discipline and every
// session's source.
const (
	metroRings, metroRingSize = 16, 12
	metroLocal, metroCross    = 2, 2
	metroShards, metroWorkers = 2, 2

	// metroSimSeconds is the emission window of one repetition (about
	// a second of wall time at shards=2).
	metroSimSeconds = 60
	// metroBuilds is how many times each repetition plans and builds
	// the network, for set-up samples.
	metroBuilds = 3
)

// metroRun is one built metro simulation.
type metroRun struct {
	rt    *shard.Runtime
	views []*shard.SessionView
	// estab is the wall time to establish each session (route split
	// and per-shard registration).
	estab []time.Duration
}

// planMetro routes the default metro session set, as scenarios.PlanMetro
// does, returning the graph config and each session's link indices.
func planMetro() (topo.MetroConfig, [][]int, error) {
	cfg := topo.DefaultMetro(metroRings, metroRingSize)
	g, err := topo.Metro(cfg)
	if err != nil {
		return cfg, nil, err
	}
	idx := make(map[*topo.Link]int, len(g.Links()))
	for i, l := range g.Links() {
		idx[l] = i
	}
	var routes [][]int
	add := func(from, to string) error {
		links, err := g.RouteLinks(from, to)
		if err != nil {
			return err
		}
		route := make([]int, len(links))
		for i, l := range links {
			route[i] = idx[l]
		}
		routes = append(routes, route)
		return nil
	}
	for i := 0; i < metroRings; i++ {
		for s := 0; s < metroLocal; s++ {
			if err := add(topo.MetroHub(i), topo.MetroNode(i, metroRingSize-1)); err != nil {
				return cfg, nil, err
			}
		}
		for s := 0; s < metroCross; s++ {
			dst := (i + 1 + s) % metroRings
			if err := add(topo.MetroNode(i, 0), topo.MetroNode(dst, metroRingSize/2)); err != nil {
				return cfg, nil, err
			}
		}
	}
	return cfg, routes, nil
}

// buildMetro plans and builds the metro network with the given shard
// and worker counts. A non-nil ledger wraps disciplines and sources;
// metrics attaches per-shard registries.
func buildMetro(seed uint64, shards, workers int, lg *simLedger, metrics bool) (*metroRun, error) {
	cfg, routes, err := planMetro()
	if err != nil {
		return nil, err
	}
	g, err := topo.Metro(cfg)
	if err != nil {
		return nil, err
	}
	rt, err := shard.New(shard.Config{
		Shards: shards,
		LMax:   scenarios.CellBits,
		Graph:  g,
		Disc: func(l *topo.Link) network.Discipline {
			lit := core.New(core.Config{Capacity: l.Capacity, LMax: scenarios.CellBits})
			if lg != nil {
				return lg.lit(lit)
			}
			return lit
		},
		Workers: workers,
		Metrics: metrics,
		// A run that does not drain within the simulated horizon or a
		// minute of wall time trips the watchdog, and the run fails.
		Watchdog: event.Watchdog{MaxSim: metroSimSeconds + 10, MaxWall: time.Minute},
	})
	if err != nil {
		return nil, err
	}
	m := &metroRun{rt: rt}
	links := g.Links()
	r := rng.New(seed)
	for i, route := range routes {
		t0 := time.Now()
		rl := make([]*topo.Link, len(route))
		for j, li := range route {
			rl[j] = links[li]
		}
		var src = scenarios.NewOnOff(scenarios.AOffValues[i%len(scenarios.AOffValues)], r.Split())
		plan := shard.SessionPlan{ID: i + 1, Rate: scenarios.VoiceRate, Links: rl, Cfgs: make([]network.SessionPort, len(rl)), Source: src}
		if lg != nil {
			plan.Source = lg.source(src)
		}
		v, err := rt.AddSession(plan)
		if err != nil {
			return nil, err
		}
		m.views = append(m.views, v)
		m.estab = append(m.estab, time.Since(t0))
	}
	return m, nil
}

// run emits for simSeconds and runs the network to full drain.
func (m *metroRun) run(simSeconds float64) {
	for _, v := range m.views {
		v.Start(0, simSeconds)
	}
	m.rt.Run()
}

func (m *metroRun) digest() string {
	n := len(m.views)
	ids, del := make([]int, n), make([]int64, n)
	maxD, minD := make([]float64, n), make([]float64, n)
	for i, v := range m.views {
		last := v.Last()
		ids[i], del[i], maxD[i], minD[i] = v.ID, last.Delivered, last.Delays.Max(), last.Delays.Min()
	}
	return sessionDigest(ids, del, maxD, minD)
}

func (m *metroRun) emitted() (emitted, lost int64) {
	for _, v := range m.views {
		emitted += v.First().Emitted
		lost += v.First().Emitted - v.Last().Delivered
	}
	return
}

// checkMetro runs the per-repetition output checks.
func (r *run) checkMetro(m *metroRun, label string) {
	tripped := m.rt.Tripped()
	r.check(tripped == "", "%s: watchdog never trips %q", label, tripped)
	emitted, lost := m.emitted()
	r.check(lost == 0, "%s: no packet lost (%d emitted, %d lost)", label, emitted, lost)
	var live int64
	for _, sh := range m.rt.Shards {
		live += sh.Net.PoolStats().Live
	}
	r.check(live == 0, "%s: every shard's packet pool drained (%d live)", label, live)
	r.res.Failed += lost
}

func metroPlain(r *run) error {
	start := time.Now()
	var setups, speeds, estab []float64
	digest := ""
	reps := 0
	for reps == 0 || time.Since(start).Seconds() < r.seconds {
		var m *metroRun
		for b := 0; b < metroBuilds; b++ {
			runtime.GC() // each timing starts from the same heap state
			t0 := time.Now()
			var err error
			if m, err = buildMetro(r.seed, metroShards, metroWorkers, nil, false); err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
			for _, d := range m.estab {
				estab = append(estab, d.Seconds())
			}
		}
		runtime.GC()
		t0 := time.Now()
		m.run(metroSimSeconds)
		speeds = append(speeds, metroSimSeconds/time.Since(t0).Seconds())
		reps++
		emitted, _ := m.emitted()
		r.res.Attempted += emitted
		d := m.digest()
		if digest == "" {
			digest = d
			r.checkMetro(m, "metro shards=2")
		} else if d != digest {
			r.check(false, "repetition %d digest %s != first repetition %s", reps, d, digest)
		}
	}
	serial, err := buildMetro(r.seed, 1, 1, nil, false)
	if err != nil {
		return err
	}
	serial.run(metroSimSeconds)
	r.checkMetro(serial, "metro shards=1")
	sd := serial.digest()
	r.check(sd == digest, "metro digest at shards=2 (%s) equals shards=1 (%s)", digest, sd)
	r.record("metro: %d repetitions of %d sim-s at shards=%d workers=%d, %d builds, lookahead %.3g s",
		reps, metroSimSeconds, metroShards, metroWorkers, len(setups), serial.rt.Part.Lookahead)
	r.simE2E(speeds, setups, estab)
	return nil
}

// lookahead returns the conservative window of a sharded run (0 when
// nothing is cut).
func (m *metroRun) lookahead() float64 {
	if l := m.rt.Part.Lookahead; !math.IsInf(l, 1) {
		return l
	}
	return 0
}
