// Command litperf is the repository's end-to-end benchmark: it runs one
// named workload of the Leave-in-Time simulator or of the litserve
// daemon, checks the workload's outputs, and prints its metrics as one
// JSON line (the last line of standard output). See NOTES.md for the
// workloads, the metrics and the layer ledger.
//
//	go run . --workload fig7-mix --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it wraps each layer's public entry points in timers and reports the
// per-layer ledger instead. The exit status is 1 when any output check
// fails (no result line is printed then) and 2 on bad flags.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line JSON report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the shared state of one benchmark invocation: the parsed
// flags, the run record printed before the result, and the failed
// output checks.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool

	out    io.Writer
	failed []string
	res    result
}

// record prints one line of the run record.
func (r *run) record(format string, args ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", args...)
}

// check records an output check; a false ok fails the run.
func (r *run) check(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if ok {
		r.record("check ok: %s", msg)
		return
	}
	r.record("CHECK FAILED: %s", msg)
	r.failed = append(r.failed, msg)
}

func (r *run) set(name string, value float64, unit string) {
	r.res.Metrics[name] = metric{Value: value, Unit: unit}
}

// workloads maps each workload name to its untraced and traced runner.
var workloads = map[string]struct{ plain, traced func(*run) error }{
	"fig7-mix":   {fig7Plain, fig7Traced},
	"metro":      {metroPlain, metroTraced},
	"admit-http": {admitPlain, admitTraced},
}

func main() {
	fs := flag.NewFlagSet("litperf", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: fig7-mix, metro or admit-http")
	seed := fs.Uint64("seed", 1, "workload seed (inputs are generated from it)")
	seconds := fs.Float64("seconds", 20, "measured wall-clock seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer ledger")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "litperf: need --workload fig7-mix|metro|admit-http, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		out: os.Stdout, res: result{Metrics: map[string]metric{}},
	}
	r.hostRecord()
	runner := w.plain
	if r.trace {
		runner = w.traced
	}
	err := runner(r)
	if err == nil && len(r.failed) > 0 {
		err = errors.New(strings.Join(r.failed, "; "))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "litperf: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	r.res.Correct = true
	if r.res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "litperf: %s attempted nothing\n", r.workload)
		os.Exit(1)
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "litperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// hostRecord prints the host facts every run carries.
func (r *run) hostRecord() {
	r.record("workload %s seed %d seconds %g trace %t", r.workload, r.seed, r.seconds, r.trace)
	r.record("host nproc=%d GOMAXPROCS=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// maxRSSMiB is the peak resident set size of this program: VmHWM of
// /proc/self/status. (getrusage's maxrss is no substitute: it survives
// exec, so a launcher that spawns through vfork lends the benchmark its
// own peak.)
func maxRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kib); err == nil {
				return kib / 1024
			}
		}
	}
	return 0
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantileSorted is the q-quantile of sorted by linear interpolation
// between closest ranks.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// quantile is quantileSorted on an unsorted copy.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
