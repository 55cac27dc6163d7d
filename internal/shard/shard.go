// Package shard runs one simulated network as several cooperating
// event engines — conservative-parallel discrete-event simulation over
// a partition of the topology.
//
// # Model
//
// Graph.Partition (internal/topo) assigns every node to a shard; each
// shard owns a full simulation stack — event engine, network, slab
// packet pool, and (optionally) a metrics registry and tracer — so
// shards share no mutable state. A port lives in the shard of its
// transmitting node. A session whose route crosses shards is split
// into contiguous per-shard segments: each segment is an ordinary
// network.Session in its shard (same ID, Session.HopOffset preserving
// global hop numbers), the first segment holds the source, the last
// one the delivery statistics, and every non-final segment forwards
// finished packets through Session.Forward into the runtime's outbox.
//
// # Synchronization
//
// Shards advance in lockstep windows of length L = the partition's
// lookahead, the minimum propagation delay over cut links. Within a
// window [W, W+L) every shard runs its local events independently
// (Simulator.RunBefore); at the barrier the runtime drains the
// outboxes and schedules each crossing on its destination engine. A
// packet handed off at transmission-finish f in [W, W+L) arrives at
// f + gamma >= W+L — always at or after the next window boundary — so
// no shard ever receives an event for its past: the classic
// conservative (null-message-free, barrier-synchronized) guarantee.
//
// # Determinism
//
// Same seed, same shard count — byte-identical results, regardless of
// worker count or goroutine scheduling: each shard's engine is
// deterministic and crossings carry explicit ordering stamps. Stronger,
// results are identical across shard *counts*, including one, because
// every event's engine key is a pure function of the simulated
// history: link deliveries (and their cross-shard replacements) are
// stamped (arrival time, finish time, global port ID | transmit
// count) — see network.Port.SetTieBase — and local events inherit
// their serial relative order. The only partition-dependent
// observables are per-engine capacity gauges (heap high-water) and
// the per-pool split of packet counters; MergedRegistry folds those
// into a canonical cross-shard view.
//
// Injected faults and mid-run churn (internal/faults, signaling) are
// not supported under sharding: fault plans address one engine and
// one network. Gate them to the serial path.
package shard

import (
	"fmt"
	"math"

	"leaveintime/internal/event"
	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/topo"
	"leaveintime/internal/trace"
	"leaveintime/internal/traffic"
)

// Config describes a sharded simulation to build.
type Config struct {
	// Shards is the shard count; 1 is valid (one engine, no barriers).
	Shards int
	// LMax is the network-wide maximum packet length in bits.
	LMax float64
	// Graph is the topology; the runtime materializes its ports across
	// the shards (the graph must not have been Built).
	Graph *topo.Graph
	// Disc creates the service discipline for one link, exactly as
	// topo.Graph.Build takes it.
	Disc topo.DisciplineFactory

	// Metrics attaches one registry per shard (see Shard.Reg and
	// Runtime.MergedRegistry).
	Metrics bool
	// PoolDebug enables per-packet ownership tracking in every shard's
	// pool.
	PoolDebug bool
	// Tracer, when non-nil, supplies a per-shard tracer (it must not
	// share mutable state across shards — one recorder per shard).
	Tracer func(shard int) trace.Tracer
	// Watchdog, when non-zero, arms each shard's engine with these
	// budgets. MaxEvents is per shard under sharding.
	Watchdog event.Watchdog
	// Workers caps the goroutines driving shards: 0 picks
	// min(Shards, GOMAXPROCS), 1 runs every shard inline on the
	// caller's goroutine (no synchronization overhead — the right
	// choice on one core), larger values shard the shards round-robin.
	// It is a cap, not a demand: with a pool running, Run still runs
	// windows inline on the caller's goroutine whenever it measures
	// that handing them to the pool costs more than it saves (see
	// Runtime.Run). Results never depend on it.
	Workers int
}

// Shard is one partition's simulation stack.
type Shard struct {
	Index int
	Sim   *event.Simulator
	Net   *network.Network
	// Reg is the shard's metrics registry when Config.Metrics was set.
	Reg *metrics.Registry
}

// crossing is one packet in transit between shards, parked in the
// producing shard's outbox until the window barrier.
type crossing struct {
	h      network.Handoff
	arrive float64
	port   *network.Port // the downstream port the packet arrives at
	cut    *cutLink
}

// cutLink is the delivery side of one link whose endpoints lie in
// different shards. Crossings over it all leave one upstream port,
// which finishes transmissions at strictly increasing instants, and
// all see the link's propagation delay, so they arrive in the order
// they were handed off: a FIFO plus one handler bound at New replaces
// a closure per crossing, as network.Port's in-flight queue does for
// its link deliveries.
type cutLink struct {
	dst *Shard
	q   []crossing // pending arrivals from q[head] on, in arrival order
	// head indexes the oldest pending arrival; the slice is reused from
	// the front once it drains.
	head    int
	deliver event.Handler
}

// push queues a crossing scheduled on the destination engine. It runs
// at the barrier, while no worker touches the destination shard.
func (c *cutLink) push(x crossing) {
	if c.head > 0 && len(c.q) == cap(c.q) {
		// About to grow: slide the pending entries to the front so a
		// long run reuses the array instead of appending behind an
		// ever-advancing head.
		c.q = c.q[:copy(c.q, c.q[c.head:])]
		c.head = 0
	}
	c.q = append(c.q, x)
}

// land injects the oldest pending crossing into the destination
// network at its arrival instant.
func (c *cutLink) land() {
	x := c.q[c.head]
	if c.head++; c.head == len(c.q) {
		c.q, c.head = c.q[:0], 0
	}
	c.dst.Net.InjectArrival(x.port, x.h, x.arrive)
}

// Runtime is a built sharded simulation.
type Runtime struct {
	cfg  Config
	Part *topo.Partition
	// Shards holds every shard's stack, indexed by shard.
	Shards []*Shard

	// outbox[s] collects shard s's crossings during a window; only
	// shard s's worker appends, and only the coordinator (between
	// barriers) drains. crossed totals the crossings over the run.
	outbox  [][]crossing
	crossed int64
	// cuts maps every cut link to its delivery FIFO.
	cuts map[*topo.Link]*cutLink
	// exec picks inline or pool execution for each window of Run.
	exec chooser

	sessions []*SessionView
}

// New builds the sharded simulation: partitions the graph, creates
// one stack per shard, and materializes every link's port in the
// shard of its transmitting node (in global link order, with the
// port's canonical tie base pinned to its global link index).
func New(cfg Config) (*Runtime, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: shard count must be at least 1, got %d", cfg.Shards)
	}
	if cfg.Graph == nil {
		return nil, fmt.Errorf("shard: config needs a graph")
	}
	part, err := cfg.Graph.Partition(cfg.Shards)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{cfg: cfg, Part: part, outbox: make([][]crossing, cfg.Shards), cuts: make(map[*topo.Link]*cutLink)}
	for i := 0; i < cfg.Shards; i++ {
		sh := &Shard{Index: i, Sim: event.New()}
		sh.Net = network.New(sh.Sim, cfg.LMax)
		if cfg.PoolDebug {
			sh.Net.SetPoolDebug(true)
		}
		if cfg.Metrics {
			sh.Reg = metrics.NewRegistry()
			sh.Net.EnableMetrics(sh.Reg)
		}
		if cfg.Tracer != nil {
			sh.Net.Tracer = cfg.Tracer(i)
		}
		if cfg.Watchdog != (event.Watchdog{}) {
			sh.Sim.SetWatchdog(cfg.Watchdog)
		}
		rt.Shards = append(rt.Shards, sh)
	}
	for i, l := range cfg.Graph.Links() {
		if l.Port != nil {
			return nil, fmt.Errorf("shard: graph already built")
		}
		sh := rt.Shards[part.Assign[l.From]]
		l.Port = sh.Net.NewPort(fmt.Sprintf("%s->%s", l.From, l.To), l.Capacity, l.Gamma, cfg.Disc(l))
		l.Port.SetTieBase(i)
		if to := part.Assign[l.To]; to != part.Assign[l.From] {
			c := &cutLink{dst: rt.Shards[to]}
			c.deliver = c.land
			rt.cuts[l] = c
		}
	}
	return rt, nil
}

// SessionPlan is one session's global description, mirroring
// network.AddSession but in terms of the route's links.
type SessionPlan struct {
	ID            int
	Rate          float64
	JitterControl bool
	// Links is the global route; Cfgs the per-hop configuration
	// (len(Cfgs) == len(Links)), as admission produced it.
	Links []*topo.Link
	Cfgs  []network.SessionPort
	// Source feeds the first segment; nil sessions inject only via
	// the first segment's InjectAt.
	Source traffic.Source
}

// SessionView is a session established across shards: its per-shard
// segments in route order. The first segment emits, the last delivers.
type SessionView struct {
	ID       int
	Segments []*network.Session
}

// First returns the emitting segment (source, Emitted counter).
func (v *SessionView) First() *network.Session { return v.Segments[0] }

// Last returns the delivering segment (Delivered, Delays, Hist,
// OnDeliver).
func (v *SessionView) Last() *network.Session { return v.Segments[len(v.Segments)-1] }

// Start schedules the session's source, exactly like Session.Start.
func (v *SessionView) Start(t0, stopEmit float64) { v.First().Start(t0, stopEmit) }

// AddSession establishes the session: splits its route into per-shard
// segments, registers each as a network.Session in its shard, and
// wires the cross-shard forwarding hooks.
func (rt *Runtime) AddSession(plan SessionPlan) (*SessionView, error) {
	if len(plan.Links) == 0 {
		return nil, fmt.Errorf("shard: session %d has an empty route", plan.ID)
	}
	if len(plan.Cfgs) != len(plan.Links) {
		return nil, fmt.Errorf("shard: session %d has %d cfgs for %d hops", plan.ID, len(plan.Cfgs), len(plan.Links))
	}
	shardOf := func(l *topo.Link) int { return rt.Part.Assign[l.From] }
	v := &SessionView{ID: plan.ID}
	for start := 0; start < len(plan.Links); {
		s := shardOf(plan.Links[start])
		end := start + 1
		for end < len(plan.Links) && shardOf(plan.Links[end]) == s {
			end++
		}
		ports := make([]*network.Port, end-start)
		for i, l := range plan.Links[start:end] {
			if l.Port == nil {
				return nil, fmt.Errorf("shard: session %d routed over unbuilt link %s->%s", plan.ID, l.From, l.To)
			}
			ports[i] = l.Port
		}
		var src traffic.Source
		if start == 0 {
			src = plan.Source
		}
		seg := rt.Shards[s].Net.AddSession(plan.ID, plan.Rate, plan.JitterControl, ports, plan.Cfgs[start:end], src)
		seg.HopOffset = start
		if end < len(plan.Links) {
			cut := rt.cuts[plan.Links[end-1]]
			if cut == nil || cut.dst.Index != shardOf(plan.Links[end]) {
				return nil, fmt.Errorf("shard: session %d route is not contiguous at hop %d", plan.ID, end)
			}
			tp, from := plan.Links[end].Port, s
			seg.Forward = func(h network.Handoff, finish, arrive float64) {
				rt.outbox[from] = append(rt.outbox[from], crossing{h: h, arrive: arrive, port: tp, cut: cut})
			}
		}
		v.Segments = append(v.Segments, seg)
		start = end
	}
	rt.sessions = append(rt.sessions, v)
	return v, nil
}

// Sessions returns every established session view, in creation order.
func (rt *Runtime) Sessions() []*SessionView { return rt.sessions }

// Crossed returns the number of cross-shard packet handoffs performed
// so far (the adjustment MergedRegistry applies to the pool counters).
func (rt *Runtime) Crossed() int64 { return rt.crossed }

// Tripped returns the first (lowest shard index) watchdog trip reason,
// or "" when no shard tripped.
func (rt *Runtime) Tripped() string {
	for _, sh := range rt.Shards {
		if r := sh.Sim.Tripped(); r != "" {
			return r
		}
	}
	return ""
}

// Run executes the simulation to full drain: conservative windows of
// the partition's lookahead, a barrier plus outbox exchange at every
// boundary, terminating when every engine is empty and no crossing is
// in flight. With one shard (or no cut links) it degenerates to
// RunAll per shard with no synchronization at all.
//
// With a worker pool running, Run times one epoch of windows on the
// pool and one inline on the caller's goroutine, then runs the rest in
// whichever cost less wall time (see chooser). A sparse window does
// less work than the two goroutine handoffs of a pool barrier, so
// inline wins there. The choice moves only which goroutine advances
// each engine, never what an engine does, so results are identical
// either way.
func (rt *Runtime) Run() {
	L := rt.Part.Lookahead
	if len(rt.Shards) == 1 || math.IsInf(L, 1) {
		rt.each(nil, math.Inf(1))
		return
	}
	pool := rt.startWorkers()
	defer pool.stop()
	rt.exec.reset(pool)

	W := 0.0
	for rt.Tripped() == "" {
		end := W + L
		rt.each(rt.exec.next(), end)
		moved := rt.exchange()
		if moved == 0 {
			// Nothing crossed: if the engines are drained we are done;
			// otherwise fast-forward over the idle gap to the window
			// containing the next event (safe exactly because nothing
			// is in flight between shards).
			tmin := math.Inf(1)
			for _, sh := range rt.Shards {
				if t, ok := sh.Sim.NextTime(); ok && t < tmin {
					tmin = t
				}
			}
			if math.IsInf(tmin, 1) {
				return
			}
			if tmin >= end+L {
				end += math.Floor((tmin-end)/L) * L
			}
		}
		W = end
	}
}

// each runs every shard up to the window boundary (or, with until
// +Inf, to full drain): through the worker pool when one is running,
// inline otherwise.
func (rt *Runtime) each(pool *workerPool, until float64) {
	if pool == nil {
		for _, sh := range rt.Shards {
			runShard(sh, until)
		}
		return
	}
	pool.run(until)
}

func runShard(sh *Shard, until float64) {
	if math.IsInf(until, 1) {
		sh.Sim.RunAll()
		return
	}
	sh.Sim.RunBefore(until)
}

// exchange drains every outbox, scheduling each crossing on its
// destination engine with the upstream ordering stamps. It runs
// between barriers, when every worker is parked.
func (rt *Runtime) exchange() int {
	moved := 0
	for s := range rt.outbox {
		for _, c := range rt.outbox[s] {
			c.cut.push(c)
			c.cut.dst.Sim.ScheduleStamped(c.arrive, c.h.Sched, c.h.Tie, c.cut.deliver)
			moved++
		}
		rt.outbox[s] = rt.outbox[s][:0]
	}
	rt.crossed += int64(moved)
	return moved
}
