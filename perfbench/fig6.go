package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"rewire"
	"rewire/internal/arch"
	"rewire/internal/eval"
	"rewire/internal/kernels"
)

// fig6PassSeconds is the nominal length of one pass over the Fig6 set
// on a 2-core x86 box; -seconds / fig6PassSeconds passes make a run.
// The pass count is fixed by -seconds alone, so every run of a commit
// does the same work.
const fig6PassSeconds = 10

// mapperSeed is the mapper Seed of every Fig6 compile. The per-mapper
// set totals move by 18–40% from one mapper seed to another, far past
// any usable bound, so the workload seed orders the compiles instead
// of choosing their mapper seeds.
const mapperSeed = 1

// setupReps is how often set-up is repeated; its median is setup_s.
const setupReps = 101

// verifyIterations is the loop-iteration count VerifyExecution
// simulates.
const verifyIterations = 4

// fig6Job is one (kernel, mapper) compile of the set.
type fig6Job struct {
	kernel string
	mapper string // eval display name: Rewire, PF* or SA
	g      *rewire.DFG
}

// fig6Out is one timed compile. The mapping itself is checked and
// dropped as soon as the compile ends: mappings kept alive would grow
// the live heap through the pass, and with it the heap size at which
// the collector runs during later compiles, which then depend on the
// order of the compiles.
type fig6Out struct {
	err error // the mapping's check failure, if any
	res rewire.Result
	cpu time.Duration // the process's CPU time over the compile
	gc  gcDelta       // garbage collections during the compile
}

// fig6Arch is the workload's fabric: the 4x4 preset with two registers
// per PE, on which every attempt ends on its work bound.
func fig6Arch() *arch.CGRA { return arch.New4x4(2) }

// fig6Kernels is the paper's Fig6 kernel list for the 4x4r2 preset.
func fig6Kernels() []string {
	name := fig6Arch().Name
	var out []string
	for _, cb := range eval.Combos() {
		if cb.Arch.Name == name {
			out = append(out, cb.Kernel)
		}
	}
	return out
}

// loadFig6 is the workload's set-up: lower every kernel and build the
// fabric.
func loadFig6() ([]fig6Job, *arch.CGRA, error) {
	a := fig6Arch()
	var jobs []fig6Job
	for _, k := range fig6Kernels() {
		g, err := kernels.Load(k)
		if err != nil {
			return nil, nil, err
		}
		for _, mp := range eval.Mappers {
			jobs = append(jobs, fig6Job{kernel: k, mapper: mp, g: g})
		}
	}
	return jobs, a, nil
}

// fig6Pass compiles every job once, in order, and times each compile.
// With traced set, each compile gets its own tracer and diagnostics
// collector, as rewire-serve gives each run, and its spans and counters
// are added to spans.
func fig6Pass(jobs []fig6Job, order []int, a *arch.CGRA, traced bool, spans *spanTotals) []fig6Out {
	out := make([]fig6Out, len(jobs))
	for _, i := range order {
		cfg := eval.Config{
			Seed: mapperSeed, TimePerII: timePerII, SweepParallelism: 1, Jobs: 1, Out: io.Discard,
		}
		if traced {
			cfg.Tracer = rewire.NewTracer()
			cfg.Diag = rewire.NewDiagCollector()
		}
		// Start every compile from a collected heap and empty pools (a
		// collection moves pooled objects to a victim cache, the next
		// frees them), so neither its time nor the peak heap depends on
		// what ran before it.
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c0 := selfCPU()
		m, res := eval.RunDFG(jobs[i].mapper, jobs[i].g, a, cfg)
		cpu := selfCPU() - c0
		runtime.ReadMemStats(&after)
		out[i] = fig6Out{err: checkMapping(m, res), res: res, cpu: cpu, gc: gcDelta{
			cycles:  float64(after.NumGC - before.NumGC),
			pauseMS: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		}}
		if traced {
			spans.addTracer(cfg.Tracer)
		}
	}
	return out
}

// checkMapping validates and functionally verifies one compile's
// mapping, outside the timed region.
func checkMapping(m *rewire.Mapping, res rewire.Result) error {
	switch {
	case !res.Success || m == nil:
		return fmt.Errorf("no mapping")
	case res.II < res.MII:
		return fmt.Errorf("II %d below MII %d", res.II, res.MII)
	}
	if err := rewire.Validate(m); err != nil {
		return fmt.Errorf("invalid mapping: %w", err)
	}
	if err := rewire.VerifyExecution(m, verifyIterations); err != nil {
		return fmt.Errorf("execution differs from the interpreter: %w", err)
	}
	return nil
}

// checkFig6 reports the pass's mapping checks, applies the deadline
// guard, and counts operations.
func checkFig6(rep *report, jobs []fig6Job, pass []fig6Out) {
	for i, o := range pass {
		j := jobs[i]
		bad := true
		switch {
		case o.err != nil:
			rep.problem("%s %s: %v", j.mapper, j.kernel, o.err)
		case o.res.Duration > deadlineGuard:
			rep.problem("%s %s: compile took %s, past the deadline guard %s", j.mapper, j.kernel, o.res.Duration, deadlineGuard)
		default:
			bad = false
		}
		rep.op(bad)
	}
}

// sameWork reports the first job whose work counts differ between two
// passes of the same code and inputs. With routing false, router
// expansions are not compared: the diagnostics collector's contention
// attribution routes through the same counted router, so a pass with
// Diag set reports more expansions for the same search.
func sameWork(rep *report, jobs []fig6Job, a, b []fig6Out, routing bool) {
	for i := range a {
		x, y := a[i].res, b[i].res
		if x.Success != y.Success || x.II != y.II || (routing && x.RouterExpansions != y.RouterExpansions) ||
			x.PlacementsTried != y.PlacementsTried || x.VerifyAttempts != y.VerifyAttempts {
			rep.problem("%s %s: work differs between two passes (II %d/%d, expansions %d/%d, placements %d/%d, verify %d/%d)",
				jobs[i].mapper, jobs[i].kernel, x.II, y.II, x.RouterExpansions, y.RouterExpansions,
				x.PlacementsTried, y.PlacementsTried, x.VerifyAttempts, y.VerifyAttempts)
			return
		}
	}
}

// passCPU is one pass's summed compile CPU time.
func passCPU(pass []fig6Out) time.Duration {
	var total time.Duration
	for _, o := range pass {
		total += o.cpu
	}
	return total
}

func runFig6(cfg runConfig) (*report, error) {
	rep := &report{}
	var (
		jobs   []fig6Job
		a      *arch.CGRA
		setups []time.Duration
	)
	for r := 0; r < setupReps; r++ {
		// Each set-up starts from a collected heap and empty pools, as
		// the first one does.
		runtime.GC()
		runtime.GC()
		t0 := time.Now()
		var err error
		jobs, a, err = loadFig6()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	order := rng.Perm(len(jobs))

	if cfg.trace {
		return fig6Traced(cfg, rep, jobs, a, order)
	}

	// peak_rss_mb is the median over the passes of each pass's peak. A
	// pass's peak varies with how far the heap outgrew its goal before a
	// concurrent collection caught up, which depends on timing.
	passes := max(1, (cfg.seconds+fig6PassSeconds/2)/fig6PassSeconds)
	var (
		runs  [][]fig6Out
		peaks []float64
	)
	for p := 0; p < passes; p++ {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		runs = append(runs, fig6Pass(jobs, order, a, false, nil))
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, peak)
	}
	for p, pass := range runs {
		checkFig6(rep, jobs, pass)
		if p > 0 {
			sameWork(rep, jobs, runs[0], pass, true)
		}
	}

	// Each compile's time is its fastest over the passes. The latency
	// percentiles are over these 36 times.
	perMapper := map[string]float64{}
	var total float64
	lats := make([]float64, len(jobs))
	for i, j := range jobs {
		ts := make([]float64, len(runs))
		for p, pass := range runs {
			ts[p] = pass[i].cpu.Seconds()
		}
		t := fastest(ts)
		perMapper[j.mapper] += t
		total += t
		lats[i] = 1000 * t
	}
	sumII := 0
	for _, o := range runs[0] {
		sumII += o.res.II
	}
	rep.addEndToEnd(endToEnd{
		setupS: durMedian(setups), compileS: total,
		rewireS: perMapper["Rewire"], pfS: perMapper["PF*"], saS: perMapper["SA"],
		sumII:   sumII,
		reqPerS: float64(len(jobs)) / total, latP50MS: latencyQuantile(lats, 0.5), latP90MS: latencyQuantile(lats, 0.9),
		rssMB: median(peaks),
	})
	return rep, nil
}

// fig6Traced is the per-layer run: one untraced pass, then one pass with
// a tracer and diagnostics collector on every compile. Both must do the
// same work; their CPU time difference is the tracing overhead.
func fig6Traced(cfg runConfig, rep *report, jobs []fig6Job, a *arch.CGRA, order []int) (*report, error) {
	plain := fig6Pass(jobs, order, a, false, nil)
	spans := newSpanTotals()
	traced := fig6Pass(jobs, order, a, true, spans)
	checkFig6(rep, jobs, plain)
	checkFig6(rep, jobs, traced)
	sameWork(rep, jobs, plain, traced, false)

	// Work counts come from the untraced pass: the search's own work,
	// without the diagnostics collector's routing.
	var (
		l  layerCounts
		gc gcDelta
	)
	for i, o := range plain {
		l.addResult(jobs[i].mapper, o.res)
		gc.cycles += o.gc.cycles
		gc.pauseMS += o.gc.pauseMS
	}
	l.addCounters(spans.counters)

	probe, err := probeLayers(probeMix(fig6Kernels()), cfg.seed)
	if err != nil {
		return nil, err
	}
	addLayerMetrics(rep, layerMetrics{
		probe:         probe,
		spans:         spans,
		counts:        l,
		traceOverhead: 100 * (passCPU(traced).Seconds()/passCPU(plain).Seconds() - 1),
		gc:            gc,
	})
	return rep, nil
}
