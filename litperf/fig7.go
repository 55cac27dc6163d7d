package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"time"

	"leaveintime/internal/admission"
	"leaveintime/internal/core"
	"leaveintime/internal/event"
	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/rng"
	"leaveintime/internal/scenarios"
)

// fig7AOff is the highest-load mean OFF time of the Figure 7 sweep
// (the first of scenarios.AOffValues): the MIX links run near 98% busy.
const fig7AOff = 0.0065

// fig7SimSeconds is the simulated emission window of one fig7-mix
// repetition: long enough that one repetition takes about a second of
// wall time, short enough that a run holds many repetitions.
const fig7SimSeconds = 120

// fig7Builds is how many times each repetition builds the network; the
// extra builds only feed the set-up samples (set-up is sub-millisecond,
// so a single sample per repetition would be mostly timer noise).
const fig7Builds = 8

// tandem is one built fig7-mix simulation: the Figure 6 tandem with an
// exact Leave-in-Time server per port and procedure-1 admission per
// node, carrying the 116 MIX sessions.
type tandem struct {
	sim      *event.Simulator
	net      *network.Network
	sessions []*network.Session
	// delayBound and jitterBound are each session's eq. 12 delay bound
	// and ineq. 17 jitter bound (no jitter control), indexed like
	// sessions.
	delayBound, jitterBound []float64
	// estab is the wall time to establish each session (admission at
	// every hop plus network registration); admit the part spent in
	// Admit calls, admits their number.
	estab  []time.Duration
	admit  time.Duration
	admits int
}

// buildFig7 builds the fig7-mix network exactly as Fig07 builds its
// highest-load point. A non-nil ledger wraps every port's discipline
// and every session's source; a non-nil registry instruments the
// network and the admission controllers.
func buildFig7(seed uint64, lg *simLedger, reg *metrics.Registry) *tandem {
	sim := event.New()
	net := network.New(sim, scenarios.CellBits)
	t := &tandem{sim: sim, net: net}
	var ports []*network.Port
	var acs []*admission.Procedure1
	for n := 1; n <= scenarios.NumNodes; n++ {
		lit := core.New(core.Config{Capacity: scenarios.T1Rate, LMax: scenarios.CellBits})
		var disc network.Discipline = lit
		if lg != nil {
			disc = lg.lit(lit)
		}
		ports = append(ports, net.NewPort(fmt.Sprintf("node%d", n), scenarios.T1Rate, scenarios.PropDelay, disc))
		ac, err := admission.NewProcedure1(scenarios.T1Rate, []admission.Class{{R: scenarios.T1Rate, Sigma: 1}})
		if err != nil {
			panic(err) // constant, valid class set
		}
		acs = append(acs, ac)
	}
	if reg != nil {
		net.EnableMetrics(reg)
		for _, ac := range acs {
			ac.SetMetrics(reg.Arena(), metrics.HAdmissionAC1)
		}
	}
	r := rng.New(seed)
	id := 0
	for _, mr := range scenarios.MixRoutes {
		for i := 0; i < mr.Count; i++ {
			id++
			t0 := time.Now()
			var src = scenarios.NewOnOff(fig7AOff, r.Split())
			spec := admission.SessionSpec{ID: id, Rate: scenarios.VoiceRate, LMax: scenarios.CellBits, LMin: scenarios.CellBits}
			route := ports[mr.Entrance-1 : mr.Exit]
			cfgs := make([]network.SessionPort, len(route))
			hops := make([]admission.Hop, len(route))
			var last admission.Assignment
			for h := range route {
				ta := time.Now()
				a, err := acs[mr.Entrance-1+h].Admit(spec, 1, admission.Options{PerPacket: true})
				t.admit += time.Since(ta)
				t.admits++
				if err != nil {
					panic(fmt.Sprintf("MIX session %d rejected: %v", id, err)) // MIX books every link exactly
				}
				cfgs[h] = network.SessionPort{D: a.D, DMax: a.DMax}
				hops[h] = admission.Hop{C: scenarios.T1Rate, Gamma: scenarios.PropDelay, DMax: a.DMax}
				last = a
			}
			if lg != nil {
				t.sessions = append(t.sessions, net.AddSession(id, scenarios.VoiceRate, false, route, cfgs, lg.source(src)))
			} else {
				t.sessions = append(t.sessions, net.AddSession(id, scenarios.VoiceRate, false, route, cfgs, src))
			}
			t.estab = append(t.estab, time.Since(t0))
			// The ON-OFF source never exceeds its reserved rate, so it
			// conforms to a token bucket (r, one packet): D_ref_max = L/r.
			rt := admission.Route{Hops: hops, LMax: scenarios.CellBits, Alpha: last.Alpha(spec)}
			dRef := scenarios.CellBits / scenarios.VoiceRate
			t.delayBound = append(t.delayBound, rt.DelayBound(dRef))
			t.jitterBound = append(t.jitterBound, rt.JitterBoundNoControl(dRef, scenarios.CellBits))
		}
	}
	return t
}

// run emits for simSeconds and drains the network.
func (t *tandem) run(simSeconds float64) {
	for _, s := range t.sessions {
		s.Start(0, simSeconds)
	}
	t.sim.Run(simSeconds)
	t.sim.RunAll()
}

// boundViolations counts sessions over their delay or jitter bound and
// describes the first.
func (t *tandem) boundViolations() (int, string) {
	n, first := 0, ""
	for i, s := range t.sessions {
		const tol = 1e-9
		if s.Delays.Max() > t.delayBound[i]+tol || s.Delays.Jitter() > t.jitterBound[i]+tol {
			if n == 0 {
				first = fmt.Sprintf("session %d: max delay %.6g s (bound %.6g), jitter %.6g s (bound %.6g)",
					s.ID, s.Delays.Max(), t.delayBound[i], s.Delays.Jitter(), t.jitterBound[i])
			}
			n++
		}
	}
	return n, first
}

// sessionDigest hashes every session's delivered count and exact
// maximum and minimum end-to-end delay: the result two runs of the
// same inputs must share bit for bit.
func sessionDigest(ids []int, delivered []int64, maxD, minD []float64) string {
	h := sha256.New()
	for i := range ids {
		fmt.Fprintf(h, "%d %d %x %x\n", ids[i], delivered[i], math.Float64bits(maxD[i]), math.Float64bits(minD[i]))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func (t *tandem) digest() string {
	n := len(t.sessions)
	ids, del := make([]int, n), make([]int64, n)
	maxD, minD := make([]float64, n), make([]float64, n)
	for i, s := range t.sessions {
		ids[i], del[i], maxD[i], minD[i] = s.ID, s.Delivered, s.Delays.Max(), s.Delays.Min()
	}
	return sessionDigest(ids, del, maxD, minD)
}

// emitted and lost total the packets emitted and not delivered.
func (t *tandem) emitted() (emitted, lost int64) {
	for _, s := range t.sessions {
		emitted += s.Emitted
		lost += s.Emitted - s.Delivered
	}
	return
}

// checkTandem runs the per-repetition output checks shared by the plain
// and traced runs.
func (r *run) checkTandem(t *tandem, label string) {
	n, first := t.boundViolations()
	r.check(n == 0, "%s: every session within its eq. 12 delay and ineq. 17 jitter bound (%d violations) %s", label, n, first)
	emitted, lost := t.emitted()
	r.check(lost == 0, "%s: no packet lost (%d emitted, %d lost)", label, emitted, lost)
	ps := t.net.PoolStats()
	r.check(ps.Taken == ps.Released, "%s: packet pool taken %d == released %d", label, ps.Taken, ps.Released)
	r.res.Failed += lost
}

func fig7Plain(r *run) error {
	start := time.Now()
	var setups, speeds, estab []float64
	digest := ""
	reps := 0
	for reps == 0 || time.Since(start).Seconds() < r.seconds {
		var t *tandem
		for b := 0; b < fig7Builds; b++ {
			runtime.GC() // each timing starts from the same heap state
			t0 := time.Now()
			t = buildFig7(r.seed, nil, nil)
			setups = append(setups, time.Since(t0).Seconds())
			for _, d := range t.estab {
				estab = append(estab, d.Seconds())
			}
		}
		runtime.GC()
		t0 := time.Now()
		t.run(fig7SimSeconds)
		speeds = append(speeds, fig7SimSeconds/time.Since(t0).Seconds())
		reps++
		emitted, _ := t.emitted()
		r.res.Attempted += emitted
		d := t.digest()
		if digest == "" {
			digest = d
			r.checkTandem(t, "fig7-mix")
		} else if d != digest {
			r.check(false, "repetition %d digest %s != first repetition %s", reps, d, digest)
		}
	}
	r.record("fig7-mix: %d repetitions of %d sim-s, %d builds, digest %s", reps, fig7SimSeconds, len(setups), digest)
	r.simE2E(speeds, setups, estab)
	return nil
}

// simE2E sets the end-to-end metrics of a simulator workload.
// admit_max_rps_at_slo here is the rate of session establishment
// inside the simulator (in-process admission and registration), the
// simulator's counterpart of a SETUP.
func (r *run) simE2E(speeds, setups, estab []float64) {
	r.set("sim_s_per_wall_s", median(speeds), "sim-s/s")
	r.set("setup_s", median(setups), "s")
	r.set("max_rss_mb", maxRSSMiB(), "MiB")
	r.record("establishment admit_p50_ms %.6f, admit_p99_ms %.6f", quantile(estab, 0.50)*1e3, quantile(estab, 0.99)*1e3)
	var total float64
	for _, e := range estab {
		total += e
	}
	r.set("admit_max_rps_at_slo", float64(len(estab))/total, "SETUP/s")
	r.record("samples: sim speed %d repetitions, setup %d builds, establishment %d sessions (p99 needs >= 1000)",
		len(speeds), len(setups), len(estab))
}
