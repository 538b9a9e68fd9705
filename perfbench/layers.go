package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"rewire"
	"rewire/internal/kernels"
	"rewire/internal/trace"
)

// probeReq is one request of the in-process layer probe: the same
// public calls rewire-serve makes for a POST /map, timed one by one.
type probeReq struct {
	kernel string
	src    bool // send the kernel's IR (ParseKernel) instead of its name (LoadKernel)
	mapper rewire.MapperName
	seed   int64
}

// probeMix is a probe request list over kernels: each by name and by
// IR source, mapped by SA (the cheapest compile to warm the cache
// with).
func probeMix(names []string) []probeReq {
	var out []probeReq
	for _, k := range names {
		for _, src := range []bool{false, true} {
			out = append(out, probeReq{kernel: k, src: src, mapper: rewire.MapperSA, seed: mapperSeed})
		}
	}
	return out
}

// probeResult holds per-call medians in microseconds.
type probeResult struct {
	loadUS, parseUS, keyUS, hitUS float64
}

// probeRounds is how many times the probe walks the request list; each
// figure is the median over rounds of the per-call mean.
const probeRounds = 7

// probeLayers times the request path's layers in process against a
// result cache warmed with every request of the mix.
func probeLayers(reqs []probeReq, seed int64) (probeResult, error) {
	cgra := rewire.New4x4(2)
	cache := rewire.NewResultCache(0)
	ctx := context.Background()
	lower := func(r probeReq) (*rewire.DFG, error) {
		if !r.src {
			return rewire.LoadKernel(r.kernel)
		}
		k, err := kernels.Get(r.kernel)
		if err != nil {
			return nil, err
		}
		return rewire.ParseKernel(k.Source, k.Unroll)
	}
	opts := func(r probeReq) rewire.Options {
		return rewire.Options{Mapper: r.mapper, Seed: r.seed, TimePerII: timePerII, Cache: cache}
	}
	for _, r := range reqs {
		g, err := lower(r)
		if err != nil {
			return probeResult{}, fmt.Errorf("probe %s: %w", r.kernel, err)
		}
		if _, _, _, err := rewire.MapCached(ctx, g, cgra, opts(r)); err != nil {
			return probeResult{}, fmt.Errorf("probe %s: %w", r.kernel, err)
		}
	}

	// Each round records the benchmark's own span around every call and
	// sums the spans per name.
	rng := rand.New(rand.NewSource(seed))
	var load, parse, key, hit []float64
	for round := 0; round < probeRounds; round++ {
		tr := trace.New()
		var nLoad, nParse int
		for _, i := range rng.Perm(len(reqs)) {
			r := reqs[i]
			name := "probe.load"
			if r.src {
				name = "probe.parse_src"
				nParse++
			} else {
				nLoad++
			}
			sp := tr.StartSpan(nil, name)
			g, err := lower(r)
			sp.End()
			if err != nil {
				return probeResult{}, err
			}
			sp = tr.StartSpan(nil, "probe.cache_key")
			rewire.CacheKey(g, cgra, opts(r))
			sp.End()
			sp = tr.StartSpan(nil, "probe.cache_hit")
			_, _, out, err := rewire.MapCached(ctx, g, cgra, opts(r))
			sp.End()
			if err != nil || !out.Hit {
				return probeResult{}, fmt.Errorf("probe %s: warm cache missed (err %v)", r.kernel, err)
			}
		}
		s := newSpanTotals()
		s.addTracer(tr)
		n := float64(len(reqs))
		load = append(load, us(s.dur["probe.load"])/float64(max(nLoad, 1)))
		parse = append(parse, us(s.dur["probe.parse_src"])/float64(max(nParse, 1)))
		key = append(key, us(s.dur["probe.cache_key"])/n)
		hit = append(hit, us(s.dur["probe.cache_hit"])/n)
	}
	return probeResult{
		loadUS: median(load), parseUS: median(parse), keyUS: median(key),
		hitUS: median(hit),
	}, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spanTotals sums span durations per span name (inclusive: a span's
// total includes its children's) and counters per name across many
// runs' traces.
type spanTotals struct {
	dur      map[string]time.Duration
	counters map[string]int64
}

func newSpanTotals() *spanTotals {
	return &spanTotals{dur: map[string]time.Duration{}, counters: map[string]int64{}}
}

func (s *spanTotals) addSpan(name string, d time.Duration) { s.dur[name] += d }

func (s *spanTotals) addTracer(tr *trace.Tracer) {
	for _, sp := range tr.Spans() {
		s.addSpan(sp.Name, sp.Dur)
	}
	for name, v := range tr.CounterTotals() {
		s.counters[name] += v
	}
}

func (s *spanTotals) ms(name string) float64 { return float64(s.dur[name]) / float64(time.Millisecond) }

// layerCounts are work counts of the mapping layers.
type layerCounts struct {
	placementsTried, verifyAttempts, verifySuccesses, clusterAmendments float64 // core (Rewire)
	routeExpansions, findpathCalls, findpathFound                       float64 // route
	pfRemaps, saMoves, sweepAttempts, portfolioLanes                    float64
}

// addResult folds one compile's stats.Result; mapper is the eval
// display name.
func (l *layerCounts) addResult(mapper string, res rewire.Result) {
	l.routeExpansions += float64(res.RouterExpansions)
	switch mapper {
	case "Rewire":
		l.placementsTried += float64(res.PlacementsTried)
		l.verifyAttempts += float64(res.VerifyAttempts)
		l.verifySuccesses += float64(res.VerifySuccesses)
		l.clusterAmendments += float64(res.ClusterAmendments)
	case "PF*":
		l.pfRemaps += float64(res.RemapIterations)
	}
}

// addCounters folds the tracer counters stats.Result does not carry.
func (l *layerCounts) addCounters(c map[string]int64) {
	l.findpathCalls += float64(c["route.findpath.calls"])
	l.findpathFound += float64(c["route.findpath.found"])
	l.saMoves += float64(c["sa.moves"])
	l.sweepAttempts += float64(c["sweep.attempts"])
}

// addCoreCounters folds one Rewire run's answer counters into the core
// counts; other mappers' counters go through /metrics.
func (l *layerCounts) addCoreCounters(c map[string]int64) {
	l.placementsTried += float64(c["placements.tried"])
	l.verifyAttempts += float64(c["verify.attempts"])
	l.verifySuccesses += float64(c["verify.successes"])
	l.clusterAmendments += float64(c["cluster.amendments"])
}

type gcDelta struct{ cycles, pauseMS float64 }

// layerMetrics is everything a per-layer run reports. Layers a
// workload does not load report 0.
type layerMetrics struct {
	probe                            probeResult
	spans                            *spanTotals
	counts                           layerCounts
	queueWaitMS, hitMS, residualUS   float64 // rewire-serve
	cacheHits, cacheMisses, cacheShr float64 // resultcache, from /metrics
	traceOverhead                    float64
	gc                               gcDelta
}

// addLayerMetrics emits the per-layer metrics in BENCHMARK.json order.
func addLayerMetrics(rep *report, m layerMetrics) {
	s, c := m.spans, m.counts
	rep.add("serve.queue_wait_ms", m.queueWaitMS, "ms")
	rep.add("serve.hit_ms", m.hitMS, "ms")
	rep.add("serve.residual_us", m.residualUS, "us")
	rep.add("kernelir.load_us", m.probe.loadUS, "us")
	rep.add("kernelir.parse_src_us", m.probe.parseUS, "us")
	rep.add("resultcache.key_us", m.probe.keyUS, "us")
	rep.add("resultcache.hit_us", m.probe.hitUS, "us")
	rep.add("resultcache.hits", m.cacheHits, "count")
	rep.add("resultcache.misses", m.cacheMisses, "count")
	rep.add("resultcache.shared", m.cacheShr, "count")
	rep.add("mrrg.build_us", float64(s.dur["mrrg_build"])/float64(time.Microsecond), "us")
	rep.add("core.verify_ms", s.ms("verify"), "ms")
	rep.add("core.propagate_ms", s.ms("propagate"), "ms")
	rep.add("core.intersect_ms", s.ms("intersect"), "ms")
	rep.add("core.placement_enum_ms", s.ms("placement_enum"), "ms")
	rep.add("core.initial_mapping_ms", s.ms("initial_mapping"), "ms")
	rep.add("core.placements_tried", c.placementsTried, "count")
	rep.add("core.verify_attempts", c.verifyAttempts, "count")
	rep.add("core.verify_success_ratio", ratio(c.verifySuccesses, c.verifyAttempts), "ratio")
	rep.add("core.cluster_amendments", c.clusterAmendments, "count")
	rep.add("route.expansions", c.routeExpansions, "count")
	rep.add("route.findpath_calls", c.findpathCalls, "count")
	rep.add("route.findpath_found_ratio", ratio(c.findpathFound, c.findpathCalls), "ratio")
	rep.add("pathfinder.remaps", c.pfRemaps, "count")
	rep.add("pathfinder.remap_loop_ms", s.ms("remap_loop"), "ms")
	rep.add("sa.moves", c.saMoves, "count")
	rep.add("sa.route_all_ms", s.ms("route_all"), "ms")
	rep.add("sweep.attempts", c.sweepAttempts, "count")
	rep.add("portfolio.lanes", c.portfolioLanes, "count")
	rep.add("obs.trace_overhead_pct", m.traceOverhead, "%")
	rep.add("go.gc_cycles", m.gc.cycles, "count")
	rep.add("go.gc_pause_ms", m.gc.pauseMS, "ms")
}
