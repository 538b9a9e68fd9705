// Command perfbench is the repository benchmark. It runs one workload
// with a seed, measures it, checks that every answer is correct, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// With -trace 0 the metrics are the end-to-end ones (measured with the
// benchmark's own spans off); with -trace 1 a separate, instrumented
// run reports the per-layer ones. Run it through run.sh from the root
// of a checkout, which builds this program and rewire-serve first:
//
//	bash perfbench/run.sh --workload fig6-4x4r2 --seed 1 --seconds 45 --trace 0
//
// Workloads (see METRICS.md for why each was chosen and what each
// per-layer metric should move):
//
//	fig6-4x4r2   the 4x4r2 Fig6 kernel set through eval, in process
//	serve-mixed  fresh compiles, repeats and batches through rewire-serve
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// timePerII is every compile's per-II wall-clock budget. It is far
// above the longest II attempt of the workloads (about 0.6 s on a
// 2-core x86 box), so compiles end on their work bounds, not on it.
const timePerII = 10 * time.Second

// deadlineGuard is the longest a compile may take before it counts as
// failed: past it, the result risks depending on the deadline.
const deadlineGuard = timePerII / 2

// runConfig is one invocation's settings.
type runConfig struct {
	seed     int64
	seconds  int
	trace    bool
	serveBin string
}

// report accumulates one run's outcome.
type report struct {
	attempted int
	failed    int
	problems  []string // correctness failures; any makes the run incorrect
	metrics   []metric
}

type metric struct {
	name  string
	value float64
	unit  string
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// problem records a correctness failure. The first few are printed.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// op records one attempted operation and whether it failed.
func (r *report) op(failed bool) {
	r.attempted++
	if failed {
		r.failed++
	}
}

var workloads = map[string]func(runConfig) (*report, error){
	"fig6-4x4r2":  runFig6,
	"serve-mixed": runServeMixed,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: fig6-4x4r2 or serve-mixed")
		seed     = flag.Int64("seed", 1, "workload seed: request order and class draws")
		seconds  = flag.Int("seconds", 30, "nominal measurement length; sets the fixed work per run")
		traceOn  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an instrumented run")
		serveBin = flag.String("serve-bin", "", "path of the rewire-serve binary (serve workloads)")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	// The benchmark and every daemon it starts run on one core, with one
	// Go processor each (see startDaemon): compiles are serial anyway,
	// and the collector and the request handlers then share that core
	// rather than contend across cores.
	runtime.GOMAXPROCS(1)
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: binding to one CPU: %v\n", err)
		os.Exit(1)
	}
	rep, err := run(runConfig{seed: *seed, seconds: *seconds, trace: *traceOn == 1, serveBin: *serveBin})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := rep.print(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// print writes one line per metric, the correctness problems, and the
// result object as the last line.
func (r *report) print() error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not a number", m.name)
		}
		if _, dup := ms[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		ms[m.name] = value{m.value, m.unit}
		fmt.Printf("%-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for i, p := range r.problems {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "... and %d more problems\n", len(r.problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "problem:", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0 && r.attempted > 0, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd is one run's end-to-end figures.
type endToEnd struct {
	setupS                      float64
	compileS                    float64 // the whole compile set
	rewireS, pfS, saS           float64 // its Rewire, PF* and SA compiles
	sumII                       int
	reqPerS, latP50MS, latP90MS float64
	rssMB                       float64
}

// addEndToEnd emits the end-to-end metrics in BENCHMARK.json order.
func (r *report) addEndToEnd(e endToEnd) {
	r.add("setup_s", e.setupS, "s")
	r.add("compile_s", e.compileS, "s")
	r.add("compile_rewire_s", e.rewireS, "s")
	r.add("compile_pf_s", e.pfS, "s")
	r.add("compile_sa_s", e.saS, "s")
	r.add("sum_ii", float64(e.sumII), "count")
	r.add("req_per_s", e.reqPerS, "1/s")
	r.add("lat_p50_ms", e.latP50MS, "ms")
	r.add("lat_p90_ms", e.latP90MS, "ms")
	r.add("peak_rss_mb", e.rssMB, "MB")
}

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between closest ranks; xs need not be sorted. It suits
// repeats of one measurement, where an outlying repeat should not count.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// latencyQuantile returns the Harrell–Davis estimate of the q-quantile
// (0 < q < 1) of a latency sample: a mean of all the order statistics,
// weighted by a Beta((n+1)q, (n+1)(1-q)) distribution over their ranks.
// In a sample of a few dozen compiles, neighbouring values come from
// different compiles; the one or two order statistics an interpolated
// rank reads move with those compiles' noise, the weighted mean much
// less. On a skewed sample it lies above the sample median.
func latencyQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	a, b := (n+1)*q, (n+1)*(1-q)
	var sum, prev float64
	for i, v := range s {
		cur := betaInc(a, b, float64(i+1)/n)
		sum += (cur - prev) * v
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b), by its
// continued fraction (modified Lentz), for a, b > 0.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(a*math.Log(x) + b*math.Log1p(-x) + lab - la - lb)
	// The fraction converges fast for x below the mean; above it, use
	// I_x(a, b) = 1 - I_(1-x)(b, a).
	if x < (a+1)/(a+b+2) {
		return front * betaFraction(a, b, x) / a
	}
	return 1 - front*betaFraction(b, a, 1-x)/b
}

func betaFraction(a, b, x float64) float64 {
	const tiny = 1e-300
	nonzero := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/nonzero(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 300; m++ {
		even := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / nonzero(1+even*d)
		c = nonzero(1 + even/c)
		h *= d * c
		odd := -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / nonzero(1+odd*d)
		c = nonzero(1 + odd/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-14 {
			break
		}
	}
	return h
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// fastest is the smallest of repeated measurements of the same work. On
// a shared machine, interference from other tenants only ever slows a
// repeat down, so the fastest repeat is the estimate it disturbs least.
func fastest(xs []float64) float64 { return percentile(xs, 0) }

// durMedian is the median of ds in seconds.
func durMedian(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resetPeakRSS sets this process's peak resident set size back to its
// current size.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is this process's peak resident set size since it started or
// since resetPeakRSS.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
