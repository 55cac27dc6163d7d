package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"leaveintime/internal/analytic"
	"leaveintime/internal/rng"
	"leaveintime/internal/scenarios"
	"leaveintime/internal/serve"
)

// The admit-http workload hosts one procedure-1 system in an
// in-process litserve daemon on loopback and offers it an open-loop
// Poisson stream of SETUPs with exponential holds, each accepted call
// RELEASEd at the end of its hold. Every call reserves the same rate,
// so the system is an Erlang loss system with N trunks, N taken from
// the daemon itself by filling a probe system until the first reject.
const (
	// admitCapacity is the system's capacity: 250 calls' worth, so the
	// daemon's rule admits 249 (the 250th would load the link exactly
	// to capacity, which the curve gate refuses as unstable).
	admitCapacity = 250 * admitCallRate // bits/s
	admitCallRate = scenarios.VoiceRate // per-call reserved rate, bits/s
	admitLMax     = scenarios.CellBits

	// admitNominal is the nominal SETUP rate, about a quarter of the
	// saturation of a shared 2-CPU host; the latency percentiles and the
	// Erlang B check are taken at this ladder step.
	admitNominal = 3000.0
	// admitErlangs is the offered load at the nominal step, chosen so
	// 249 trunks block a few percent of calls (Erlang B 2.9%).
	admitErlangs = 240.0
	// admitHold is the mean holding time (80 ms), seconds: long against
	// the round trip, so holding stays what the model assumes.
	admitHold = admitErlangs / admitNominal

	// admitSLO is the p99 limit, ms, on a SETUP's latency from the
	// moment the generator queued it (connection wait plus round
	// trip). Latency from the due time also carries the generator's
	// own wake-up lateness, whose p99 is 1-4 ms on a shared 2-CPU host
	// at any load, so a limit on it would be crossed by noise. Below
	// saturation the queued p99 stays under 3 ms; 5 ms is crossed at
	// the queueing knee, where p99 climbs steeply.
	admitSLO = 5.0
	// admitSetups is how many daemons are started (and drained) to
	// sample set-up time; the last one serves the load.
	admitSetups = 21
	// admitWarmup is the start of each step excluded from the Erlang
	// check, in mean holding times: the system starts empty.
	admitWarmup = 5
	// admitBatches is the number of batch means behind the blocking
	// standard error.
	admitBatches = 20
	// admitTrials is the number of staircase trials behind the knee.
	admitTrials = 40
	// admitZ is the half-width of the blocking confidence interval in
	// standard errors (two-sided t with 19 degrees of freedom: a false
	// failure has probability below 1e-4 per run).
	admitZ = 5.0
)

// admitLadder is the fixed ladder of offered SETUP rates, from the
// nominal rate up to ten times it, that the staircase walks. The rungs
// are 5% apart from 10000 to 19000 SETUP/s, where the knee falls on a
// shared 2-CPU host (11000-18000 SETUP/s), so the walk around it moves
// in small steps, and coarser elsewhere.
var admitLadder = func() []float64 {
	l := []float64{admitNominal, 6000, 9000}
	for r := 10000.0; r < 19000; r *= 1.05 {
		l = append(l, math.Round(r/100)*100)
	}
	return append(l, 20000, 22500, 25000, 30000)
}()

// call is one scheduled call of a ladder step, times in seconds from
// the step's start.
type call struct{ due, hold float64 }

// schedule draws a step's Poisson SETUP arrivals over [0, dur) at the
// given rate, each with an exponential hold cut off at dur: every call
// still held then is released at once, so a step lasts dur and not
// dur plus its longest hold (about 0.7 s at the knee). No SETUP
// outcome changes, since every SETUP is due before dur.
func schedule(r *rng.Rand, rate, dur float64) []call {
	var calls []call
	for t := r.Exp(1 / rate); t < dur; t += r.Exp(1 / rate) {
		calls = append(calls, call{due: t, hold: math.Min(r.Exp(admitHold), dur-t)})
	}
	return calls
}

// Call states shared by the generator and the connection workers.
const (
	statePending    int32 = iota // SETUP not answered yet
	stateAccepted                // accepted, hold running
	stateDone                    // rejected, failed or released
	stateReleaseDue              // hold ended before the SETUP answer came back
)

type jobKind int

const (
	jobSetup jobKind = iota
	jobRelease
)

type job struct {
	kind jobKind
	call int
	// due is when the schedule wanted the request sent, queued when the
	// generator handed it to the connection workers.
	due, queued time.Time
}

// jobQueue is the unbounded FIFO between the generator and the
// connection workers: the generator never blocks on the daemon, so its
// own lateness measures only itself.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	jobs   []job
	head   int
	closed bool
}

func newJobQueue() *jobQueue {
	q := &jobQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *jobQueue) push(j job) {
	q.mu.Lock()
	q.jobs = append(q.jobs, j)
	q.mu.Unlock()
	q.cond.Signal()
}

func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// pop returns the next job, or false once the queue is closed and
// empty.
func (q *jobQueue) pop() (job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.jobs) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.jobs) {
		return job{}, false
	}
	j := q.jobs[q.head]
	q.head++
	return j, true
}

// outcome is one SETUP's result.
type outcome int8

const (
	outPending outcome = iota
	outAccepted
	outRejected
	outFailed
)

// stepResult is the measurement of one ladder step.
type stepResult struct {
	rate  float64
	calls []call
	out   []outcome
	// latency is each answered SETUP's latency from its due time, ms
	// (NaN when the SETUP failed); served the same from when the
	// generator queued it (the client's connection wait plus the round
	// trip), and rtt the round trip alone.
	latency, served, rtt []float64
	// late is the generator's lateness for every event, ms.
	late []float64
	// span is the due time of the last event and genWall when the
	// generator dispatched it, seconds from the step's start.
	span, genWall float64
	// releaseFailed counts RELEASEs that did not return 200.
	releaseFailed int64
	status429     int64
	cpu           time.Duration
	mallocs       uint64
	requests      int64
	gcPause       time.Duration
}

// loadClient is the generator's side of the daemon: one HTTP client
// per connection, so at most conns connections are open.
type loadClient struct {
	base    string
	system  string
	clients []*http.Client
}

func newLoadClient(addr, system string, conns int) *loadClient {
	lc := &loadClient{base: "http://" + addr, system: system}
	for i := 0; i < conns; i++ {
		lc.clients = append(lc.clients, &http.Client{
			Timeout: 5 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			},
		})
	}
	return lc
}

func (lc *loadClient) close() {
	for _, c := range lc.clients {
		c.CloseIdleConnections()
	}
}

// setupReply is the daemon's SETUP answer: a SetupResponse on 200 and
// on an admission reject (409), an error body otherwise.
type setupReply struct {
	serve.SetupResponse
	Error string `json:"error"`
}

// post sends one JSON request and returns the status and body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// setup sends one SETUP: accepted, rejected by admission (a correct
// answer), or failed (transport error, timeout, 5xx, 429 or any other
// 4xx).
func (lc *loadClient) setup(c *http.Client, id int) (outcome, int) {
	body, _ := json.Marshal(serve.SetupRequest{ID: id, Rate: admitCallRate, LMax: admitLMax})
	code, b, err := post(c, lc.base+"/v1/systems/"+lc.system+"/setup", body)
	if err != nil {
		return outFailed, code
	}
	var rep setupReply
	if json.Unmarshal(b, &rep) != nil {
		return outFailed, code
	}
	switch {
	case code == http.StatusOK && rep.Accepted:
		return outAccepted, code
	case code == http.StatusConflict && !rep.Accepted && rep.Error == "":
		return outRejected, code
	}
	return outFailed, code
}

func (lc *loadClient) release(c *http.Client, id int) bool {
	body, _ := json.Marshal(serve.ReleaseRequest{ID: id})
	code, _, err := post(c, lc.base+"/v1/systems/"+lc.system+"/release", body)
	return err == nil && code == http.StatusOK
}

// runStep offers one ladder step: the generator (this goroutine) walks
// the merged SETUP/RELEASE schedule on an absolute clock and queues
// each event at its due time; one worker per connection sends them.
// Call IDs are firstID+index.
func (lc *loadClient) runStep(calls []call, rate float64, firstID int) *stepResult {
	n := len(calls)
	res := &stepResult{rate: rate, calls: calls, out: make([]outcome, n),
		latency: make([]float64, n), served: make([]float64, n), rtt: make([]float64, n)}
	type event struct {
		t    float64
		kind jobKind
		call int
	}
	events := make([]event, 0, 2*n)
	for i, c := range calls {
		events = append(events, event{c.due, jobSetup, i}, event{c.due + c.hold, jobRelease, i})
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].t != events[b].t {
			return events[a].t < events[b].t
		}
		return events[a].kind < events[b].kind
	})
	state := make([]atomic.Int32, n)
	q := newJobQueue()
	var wg sync.WaitGroup
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	for _, c := range lc.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				j, ok := q.pop()
				if !ok {
					return
				}
				id := firstID + j.call
				if j.kind == jobRelease {
					if !lc.release(c, id) {
						atomic.AddInt64(&res.releaseFailed, 1)
					}
					continue
				}
				t0 := time.Now()
				out, code := lc.setup(c, id)
				t1 := time.Now()
				res.out[j.call] = out
				res.latency[j.call] = float64(t1.Sub(j.due).Nanoseconds()) / 1e6
				res.served[j.call] = float64(t1.Sub(j.queued).Nanoseconds()) / 1e6
				res.rtt[j.call] = float64(t1.Sub(t0).Nanoseconds()) / 1e6
				if code == http.StatusTooManyRequests {
					atomic.AddInt64(&res.status429, 1)
				}
				if out != outAccepted {
					state[j.call].Store(stateDone)
					continue
				}
				if !state[j.call].CompareAndSwap(statePending, stateAccepted) {
					// The hold ended while the SETUP was in flight.
					state[j.call].Store(stateDone)
					if !lc.release(c, id) {
						atomic.AddInt64(&res.releaseFailed, 1)
					}
				}
			}
		}(c)
	}
	res.late = make([]float64, 0, len(events))
	for _, ev := range events {
		due := start.Add(time.Duration(ev.t * float64(time.Second)))
		waitUntil(due)
		res.late = append(res.late, float64(time.Since(due).Nanoseconds())/1e6)
		if ev.kind == jobSetup {
			q.push(job{kind: jobSetup, call: ev.call, due: due, queued: time.Now()})
			continue
		}
		if state[ev.call].CompareAndSwap(statePending, stateReleaseDue) {
			continue // the worker releases when the accept arrives
		}
		if state[ev.call].CompareAndSwap(stateAccepted, stateDone) {
			q.push(job{kind: jobRelease, call: ev.call, due: due, queued: time.Now()})
		}
	}
	genDone := time.Since(start)
	q.close()
	wg.Wait()
	res.cpu = cpuTime() - cpu0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	res.requests = int64(q.head)
	res.genWall = genDone.Seconds()
	if len(events) > 0 {
		res.span = events[len(events)-1].t
	}
	for i := range res.out {
		if res.out[i] == outFailed {
			res.latency[i], res.served[i] = math.NaN(), math.NaN()
		}
	}
	return res
}

// waitUntil blocks the generator until due in a nanosleep system call.
// The runtime's own timers wake an idle process with millisecond
// granularity (on an idle shared 2-CPU host: p50 0.5 ms, p99 2-3 ms
// late), which
// would make the generator, not the daemon, dominate the latencies; a
// thread blocked in nanosleep wakes within tens of microseconds. The
// call returns early on signals (the runtime preempts with SIGURG), so
// it loops until due.
func waitUntil(due time.Time) {
	for d := time.Until(due); d > 0; d = time.Until(due) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck — EINTR only shortens the sleep
	}
}

// counts totals the step's outcomes.
func (s *stepResult) counts() (accepted, rejected, failed int) {
	for _, o := range s.out {
		switch o {
		case outAccepted:
			accepted++
		case outRejected:
			rejected++
		default:
			failed++
		}
	}
	return
}

// answered returns the latencies of SETUPs that got an admission
// answer, sorted.
func (s *stepResult) answered() []float64 {
	var l []float64
	for _, x := range s.latency {
		if !math.IsNaN(x) {
			l = append(l, x)
		}
	}
	sort.Float64s(l)
	return l
}

// p99Window is the number of consecutive SETUPs behind one p99
// estimate: the smallest window with ten samples beyond its p99.
const p99Window = 1000

// p99 is the step's p99 SETUP latency from due time; sloP99 the same
// from when the generator queued each request, which the SLO judges.
func (s *stepResult) p99() float64    { return windowP99(s.latency) }
func (s *stepResult) sloP99() float64 { return windowP99(s.served) }

// windowP99 is the median over consecutive windows of p99Window SETUPs
// of each window's p99 (one window when there are fewer), with failed
// SETUPs (NaN) counted as missing any limit. On a shared host a
// millisecond-scale stall every few seconds moves a whole-step p99 by
// itself; the windowed median reports the typical p99 and still rises
// when latency grows in most windows.
func windowP99(lat []float64) float64 {
	l := make([]float64, len(lat))
	for i, x := range lat {
		if math.IsNaN(x) {
			x = math.Inf(1)
		}
		l[i] = x
	}
	var p99s []float64
	for i := 0; i+p99Window <= len(l) || i == 0; i += p99Window {
		w := append([]float64(nil), l[i:min(i+p99Window, len(l))]...)
		sort.Float64s(w)
		p99s = append(p99s, quantileSorted(w, 0.99))
	}
	return median(p99s)
}

// meetsSLO reports whether the step had no failed SETUP, p99 within
// the limit and no growing backlog.
func (s *stepResult) meetsSLO() (bool, string) {
	_, _, failed := s.counts()
	if failed > 0 {
		return false, fmt.Sprintf("%d failed SETUPs", failed)
	}
	if p := s.sloP99(); p > admitSLO {
		return false, fmt.Sprintf("p99 %.3f ms > %.1f ms", p, admitSLO)
	}
	if s.backlog() {
		return false, "growing backlog"
	}
	return true, ""
}

// backlog reports a growing backlog: the median queued latency of the
// step's last quarter exceeds its first quarter's by more than the SLO
// limit. It also enforces "answered at least 95% of the offered rate":
// a step that answers less accumulates at least 5% of the last three
// quarters of the step in queue (19 ms for a 0.5 s step), where a host
// stall of a few milliseconds does not reach the limit.
func (s *stepResult) backlog() bool {
	q := len(s.served) / 4
	return median(s.served[len(s.served)-q:]) > median(s.served[:q])+admitSLO
}

// staircase runs the up-down search for the knee: starting at the
// ladder's rung start, each trial offers the current rung and moves up
// one rung when the offer meets the SLO and down one when it misses,
// within the ladder above the nominal rate. The walk settles around the
// rate that meets the SLO in half its offers, the one where the typical
// p99 crosses the limit; a host stall sinks one trial and costs one
// rung for a trial or two. knee is the mean rate offered from the first
// miss on (the rate of the last trial when none missed), and passes
// counts the trials that met the SLO.
func staircase(start, trials int, meets func(rate float64) bool) (knee float64, passes int) {
	i := start
	var sum float64
	var n int
	for t := 0; t < trials; t++ {
		rate := admitLadder[i]
		ok := meets(rate)
		if !ok || n > 0 {
			sum += rate
			n++
		}
		if ok {
			passes++
			i = min(i+1, len(admitLadder)-1)
		} else {
			i = max(i-1, 1)
		}
		knee = rate
	}
	if n > 0 {
		knee = sum / float64(n)
	}
	return knee, passes
}

// erlang compares the step's blocking after warm-up with Erlang B for
// n trunks: it returns the measured blocking, the model's, the
// batch-means standard error and the deviation in standard errors.
func (s *stepResult) erlang(n int) (measured, model, se, z float64) {
	warm := admitWarmup * admitHold
	var batches [admitBatches]struct{ offered, blocked int }
	end := s.calls[len(s.calls)-1].due
	var offered, blocked int
	for i, c := range s.calls {
		if c.due < warm {
			continue
		}
		b := int(float64(admitBatches) * (c.due - warm) / (end - warm + 1e-12))
		batches[b].offered++
		offered++
		if s.out[i] == outRejected {
			batches[b].blocked++
			blocked++
		}
	}
	measured = float64(blocked) / float64(offered)
	model = analytic.ErlangB(n, admitErlangs*s.rate/admitNominal)
	var ss float64
	for _, b := range batches {
		d := float64(b.blocked)/float64(b.offered) - measured
		ss += d * d
	}
	se = math.Sqrt(ss / (admitBatches - 1) / admitBatches)
	// Floor the error at the binomial one so a lucky batch split cannot
	// shrink the interval below what the sample size supports.
	se = math.Max(se, math.Sqrt(model*(1-model)/float64(offered)))
	return measured, model, se, (measured - model) / se
}

// daemon is a started in-process litserve with one hosted system.
type daemon struct {
	d      *serve.Daemon
	system string
}

// startDaemon starts a daemon, creates the system and waits for the
// first healthz: what a user pays before the first SETUP.
func startDaemon() (*daemon, error) {
	d := serve.New(serve.Options{})
	if err := d.Start(); err != nil {
		return nil, err
	}
	dm := &daemon{d: d, system: "trunk"}
	base := "http://" + d.Addr()
	c := &http.Client{Timeout: 5 * time.Second}
	defer c.CloseIdleConnections()
	body, _ := json.Marshal(serve.CreateSystemRequest{Name: dm.system, Capacity: admitCapacity, LMax: admitLMax})
	code, _, err := post(c, base+"/v1/systems", body)
	if err == nil && code != http.StatusCreated {
		err = fmt.Errorf("create system: status %d", code)
	}
	if err == nil {
		var resp *http.Response
		if resp, err = c.Get(base + "/v1/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("healthz: status %d", resp.StatusCode)
			}
		}
	}
	if err != nil {
		dm.stop()
		return nil, err
	}
	return dm, nil
}

func (dm *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	dm.d.Drain(ctx) //nolint:errcheck — nothing to checkpoint: no scenario jobs, no checkpoint dir
}

// trunks fills a fresh probe system until the first reject and
// releases every accepted call: the trunk count of the daemon's own
// admission rule.
func (dm *daemon) trunks() (int, error) {
	lc := newLoadClient(dm.d.Addr(), "probe", 1)
	defer lc.close()
	c := lc.clients[0]
	body, _ := json.Marshal(serve.CreateSystemRequest{Name: "probe", Capacity: admitCapacity, LMax: admitLMax})
	if code, _, err := post(c, lc.base+"/v1/systems", body); err != nil || code != http.StatusCreated {
		return 0, fmt.Errorf("create probe system: status %d: %v", code, err)
	}
	n := 0
	for ; ; n++ {
		out, code := lc.setup(c, n+1)
		if out == outRejected {
			break
		}
		if out != outAccepted || n > 10*int(admitCapacity/admitCallRate) {
			return 0, fmt.Errorf("probe SETUP %d: status %d", n+1, code)
		}
	}
	for id := 1; id <= n; id++ {
		if !lc.release(c, id) {
			return 0, fmt.Errorf("probe RELEASE %d failed", id)
		}
	}
	return n, nil
}

// stats reads /v1/stats.
func (dm *daemon) stats() (serve.StatsSnapshot, error) {
	var s serve.StatsSnapshot
	resp, err := http.Get("http://" + dm.d.Addr() + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}

// admitSession is one admit-http run: set-up samples, the daemon that
// serves the load, and its trunk count.
type admitSession struct {
	dm     *daemon
	setups []float64
	n      int
	lc     *loadClient
	nextID int
	r      *rng.Rand
}

func newAdmitSession(r *run) (*admitSession, error) {
	s := &admitSession{r: rng.New(r.seed)}
	for i := 0; i < admitSetups; i++ {
		runtime.GC() // each timing starts from the same heap state
		t0 := time.Now()
		dm, err := startDaemon()
		if err != nil {
			return nil, err
		}
		s.setups = append(s.setups, time.Since(t0).Seconds())
		if i < admitSetups-1 {
			dm.stop()
			continue
		}
		s.dm = dm
	}
	n, err := s.dm.trunks()
	if err != nil {
		s.dm.stop()
		return nil, err
	}
	s.n = n
	conns := runtime.NumCPU()
	s.lc = newLoadClient(s.dm.d.Addr(), s.dm.system, conns)
	r.record("admit-http: daemon on loopback %s, %d connections, %d trunks (filled until the first reject)", s.dm.d.Addr(), conns, n)
	return s, nil
}

func (s *admitSession) close() {
	s.lc.close()
	s.dm.stop()
}

// step schedules and offers one ladder step of dur seconds.
func (s *admitSession) step(rate, dur float64) *stepResult {
	runtime.GC() // the previous step's arrays must not set this step's peak memory
	calls := schedule(s.r.Split(), rate, dur)
	res := s.lc.runStep(calls, rate, s.nextID+1)
	s.nextID += len(calls)
	return res
}

// finalChecks checks the daemon's own counters once the load is over:
// every accepted SETUP released, nothing malformed.
func (r *run) finalChecks(s *admitSession, accepted int64, releaseFailed int64) (serve.StatsSnapshot, error) {
	st, err := s.dm.stats()
	if err != nil {
		return st, err
	}
	// The probe's fill-and-release is in the daemon's counters too.
	want := accepted + int64(s.n)
	r.check(st.Serve.Setups == want && st.Serve.Releases == want && releaseFailed == 0,
		"/v1/stats setups %d == releases %d == accepted SETUPs %d (release failures %d)",
		st.Serve.Setups, st.Serve.Releases, want, releaseFailed)
	r.check(st.Serve.Malformed == 0, "serve.malformed %d == 0", st.Serve.Malformed)
	return st, nil
}

// checkGenerator fails the run when the generator, rather than the
// daemon, fell behind at the nominal step: its median lateness must
// stay under 1 ms. Its tail is reported, not judged: host stalls of a
// few ms reach 1-10% of events whatever the load, and the generator
// catches up after each (it runs on an absolute clock).
func (r *run) checkGenerator(late []float64) {
	p50 := quantile(late, 0.5)
	r.check(p50 < 1, "generator kept up at the nominal step: late p50 %.3f ms < 1 ms (p90 %.3f ms, p99 %.3f ms)",
		p50, quantile(late, 0.9), quantile(late, 0.99))
}

// checkErlang checks a step's blocking against Erlang B for n trunks.
func (r *run) checkErlang(label string, st *stepResult, n int) float64 {
	measured, model, se, z := st.erlang(n)
	r.check(math.Abs(z) <= admitZ,
		"%s blocking at %.0f SETUP/s: measured %.4f, Erlang B(%d, %.1f) %.4f, within %.0f standard errors (se %.4f, z %.2f)",
		label, st.rate, measured, n, admitErlangs*st.rate/admitNominal, model, admitZ, se, z)
	return z
}

func admitPlain(r *run) error {
	s, err := newAdmitSession(r)
	if err != nil {
		return err
	}
	defer s.close()
	// The nominal step gets a sixth of the run (its percentiles and the
	// Erlang check need many samples); admitTrials staircase trials of
	// 1/60 of the run each share the rest, about 9 of them climbing to
	// the knee on the reference host and the rest walking around it.
	var (
		accepted, releaseFailed, failed, attempted int64
		spanSum, wallSum                           float64
	)
	offer := func(rate, dur float64) *stepResult {
		st := s.step(rate, dur)
		a, rj, f := st.counts()
		accepted += int64(a)
		failed += int64(f)
		attempted += int64(len(st.calls))
		releaseFailed += st.releaseFailed
		spanSum += st.span
		wallSum += st.genWall
		ok, why := st.meetsSLO()
		r.record("step %5.0f SETUP/s: %d offered, %d accepted, %d rejected, %d failed, p50 %.3f ms, p99 %.3f ms (%d samples), p99 from queueing %.3f ms, generator late p50/p90/p99 %.3f/%.3f/%.3f ms, rtt p50/p99 %.3f/%.3f ms, SLO %t %s",
			rate, len(st.calls), a, rj, f, quantile(st.answered(), 0.5), st.p99(), len(st.answered()), st.sloP99(),
			quantile(st.late, 0.5), quantile(st.late, 0.9), quantile(st.late, 0.99), quantile(st.rtt, 0.5), quantile(st.rtt, 0.99), ok, why)
		return st
	}
	nominal := offer(admitNominal, r.seconds/6)
	late := nominal.late
	best, passes := staircase(1, admitTrials, func(rate float64) bool {
		ok, _ := offer(rate, r.seconds/60).meetsSLO()
		return ok
	})
	r.record("staircase: %d trials, %d met the SLO, mean rate from the first miss %.1f SETUP/s", admitTrials, passes, best)
	if _, err := r.finalChecks(s, accepted, releaseFailed); err != nil {
		return err
	}
	r.checkErlang("live", nominal, s.n)
	lateP99 := quantile(late, 0.99)
	r.checkGenerator(late)
	r.check(passes > 0, "some staircase trial met the SLO (%d of %d)", passes, admitTrials)
	ans := nominal.answered()
	r.record("nominal %.0f SETUP/s: %d latency samples behind p50/p99, loadgen.late_p99_ms %.3f", admitNominal, len(ans), lateP99)
	r.res.Attempted = attempted
	r.res.Failed = failed
	r.record("fail_ratio %.6f (%d of %d SETUPs)", float64(failed)/float64(attempted), failed, attempted)
	r.set("sim_s_per_wall_s", spanSum/wallSum, "sim-s/s")
	r.set("setup_s", median(s.setups), "s")
	r.set("max_rss_mb", maxRSSMiB(), "MiB")
	// The latency percentiles are printed, not gated: see NOTES.md.
	r.record("admit_p50_ms %.4f, admit_p99_ms %.4f (median of per-%d-SETUP window p99s), %d samples",
		quantileSorted(ans, 0.5), nominal.p99(), p99Window, len(ans))
	r.set("admit_max_rps_at_slo", best, "SETUP/s")
	return nil
}
