package shard_test

import (
	"runtime"
	"testing"

	"leaveintime/internal/scenarios"
	"leaveintime/internal/shard"
	"leaveintime/internal/simcheck"
)

// TestShardedWindowModesGenerated runs generated multi-shard scenarios
// (the litcheck -shards battery) with the measured choice and with
// every window forced inline, onto the pool, and alternating. In each
// setting per-session statistics, violation sets, canonical traces and
// merged telemetry must equal shards=1. GOMAXPROCS is raised to two at
// least, so the pool exists on any host.
func TestShardedWindowModesGenerated(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	defer runtime.GOMAXPROCS(prev)
	for _, m := range shard.WindowModes {
		t.Run(m.Name, func(t *testing.T) {
			defer shard.SetWindowMode(m.Mode)()
			for seed := uint64(1); seed <= 6; seed++ {
				if rep := simcheck.CheckShardInvariance(seed, 4, simcheck.Options{}); !rep.OK() {
					t.Fatalf("seed %d:\n%s", seed, rep.Format())
				}
			}
		})
	}
}

// BenchmarkMetroWindowModes runs metro at shards=2 and workers=2 in
// each window mode and reports the wall time per conservative window,
// counting the emission span over the lookahead as the windows and the
// per-run build (a few percent) as part of the cost. "default" is the
// default metro workload (208 switches, 64 sessions, as litperf's metro
// run: 7-8 events per window); "dense" asks for 128 local and 128
// cross sessions per ring (3968 sessions, since a cross session never
// targets its own ring; about 600 events per window), so a window holds
// far more work than the pool's goroutine handoffs cost.
func BenchmarkMetroWindowModes(b *testing.B) {
	for _, w := range []struct {
		name         string
		dur          float64
		local, cross int
	}{{"default", 60, 0, 0}, {"dense", 1, 128, 128}} {
		plan, err := scenarios.PlanMetro(scenarios.MetroOptions{
			Duration: w.dur, Shards: 2, Workers: 2,
			LocalPerRing: w.local, CrossPerRing: w.cross,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range shard.WindowModes {
			b.Run(w.name+"/"+m.Name, func(b *testing.B) {
				defer shard.SetWindowMode(m.Mode)()
				var windows float64
				for i := 0; i < b.N; i++ {
					res, err := plan.Run()
					if err != nil {
						b.Fatal(err)
					}
					if res.Tripped != "" {
						b.Fatal(res.Tripped)
					}
					windows += w.dur / res.Lookahead
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/windows, "ns/window")
			})
		}
	}
}
