package shard

import (
	"runtime"
	"sync"
	"time"
)

// workerPool drives the shards through the windows the chooser hands
// it. Every worker goroutine owns a fixed subset of the shards
// (round-robin by shard index), so within a pool window each shard's
// engine is advanced by its own fixed worker; a window the chooser runs
// inline advances every engine on the coordinator instead.
//
// The coordinator (Runtime.Run) alternates with the workers: it blocks
// in run() until every worker finishes the window, then performs the
// exchange alone. Shard state is therefore never accessed concurrently;
// the channels provide the happens-before edges the race detector
// wants across window boundaries. An inline window touches shard state
// from the coordinator after the WaitGroup edge of the last pool window
// and before the channel edge of the next.
type workerPool struct {
	groups [][]*Shard
	start  []chan float64
	wg     sync.WaitGroup
}

// startWorkers spins up the pool, or returns nil when one worker
// would drive everything — then the caller runs shards inline on its
// own goroutine with zero synchronization, the right degenerate case
// for a single-core host.
func (rt *Runtime) startWorkers() *workerPool {
	w := rt.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(rt.Shards) {
		w = len(rt.Shards)
	}
	if w <= 1 {
		return nil
	}
	p := &workerPool{groups: make([][]*Shard, w), start: make([]chan float64, w)}
	for i, sh := range rt.Shards {
		p.groups[i%w] = append(p.groups[i%w], sh)
	}
	for i := range p.groups {
		p.start[i] = make(chan float64)
		go p.worker(p.groups[i], p.start[i])
	}
	return p
}

func (p *workerPool) worker(shards []*Shard, start <-chan float64) {
	for until := range start {
		for _, sh := range shards {
			runShard(sh, until)
		}
		p.wg.Done()
	}
}

// run advances every shard to the window boundary and blocks until all
// workers are parked again.
func (p *workerPool) run(until float64) {
	p.wg.Add(len(p.start))
	for _, c := range p.start {
		c <- until
	}
	p.wg.Wait()
}

// stop releases the worker goroutines. Safe on the nil pool of an
// inline run.
func (p *workerPool) stop() {
	if p == nil {
		return
	}
	for _, c := range p.start {
		close(c)
	}
}

// Window execution modes.
const (
	modePool = iota
	modeInline
)

// epochWindows is how many windows each mode runs while the chooser
// probes it: the two clock reads per probe are noise against a thousand
// barriers.
const epochWindows = 1024

// windowMode is a test hook overriding the chooser. The zero value is
// the measured choice; the others force every window inline, every
// window onto the pool, or alternate the two window by window. It
// changes only which goroutine advances the engines, so every setting
// must give identical results.
var windowMode forceMode

type forceMode uint8

const (
	measured forceMode = iota
	forceInline
	forcePool
	forceAlternate
)

// chooser decides whether Run hands its windows to the worker pool or
// runs them inline on the coordinator. A pool window pays two goroutine
// handoffs per worker (a channel send that wakes it and a WaitGroup
// wake-up back), microseconds on a loaded host; a window of a few
// events does less work than that, and then inline is cheaper even
// though it uses one core. Which one wins depends on the host and on
// the workload, so the chooser measures rather than guesses: it runs
// the first epochWindows windows on the pool and the next epochWindows
// inline, reading the clock at each boundary, and runs the rest of the
// run in the cheaper mode.
type chooser struct {
	pool    *workerPool // nil: every window runs inline
	mode    int         // the mode of the current window
	probing bool        // still timing the first two epochs
	n       int         // windows run so far in the current probe epoch
	start   time.Time   // wall clock when the current probe epoch began
	poolDur time.Duration
	// forced counts the windows each mode ran under a forcing
	// windowMode. Only tests read it, to prove the mode they forced
	// ran; the measured path never touches it.
	forced [2]int64
}

// reset prepares the chooser for a run driven by pool (nil: inline
// only). The first probe epoch runs on the pool.
func (c *chooser) reset(pool *workerPool) {
	*c = chooser{pool: pool, mode: modePool, probing: true, start: time.Now()}
}

// next returns the pool to run the next window on, or nil to run it
// inline.
func (c *chooser) next() *workerPool {
	if c.pool == nil {
		return nil
	}
	if windowMode != measured {
		c.force()
	} else if c.probing {
		if c.n == epochWindows {
			c.endProbe()
		}
		c.n++
	}
	if c.mode == modeInline {
		return nil
	}
	return c.pool
}

// endProbe closes a probe epoch: after the pool's it starts timing
// inline windows; after the inline one it keeps the cheaper mode.
func (c *chooser) endProbe() {
	now := time.Now()
	d := now.Sub(c.start)
	c.start, c.n = now, 0
	if c.mode == modePool {
		c.poolDur, c.mode = d, modeInline
		return
	}
	c.probing = false
	if c.poolDur < d {
		c.mode = modePool
	}
}

// force sets the mode windowMode demands for the next window.
func (c *chooser) force() {
	switch windowMode {
	case forceInline:
		c.mode = modeInline
	case forcePool:
		c.mode = modePool
	case forceAlternate:
		c.mode = 1 - c.mode
	}
	c.forced[c.mode]++
}
