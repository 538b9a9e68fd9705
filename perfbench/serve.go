package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"
)

const serveArch = "4x4r2"

// serveKey names one mapping request.
type serveKey struct {
	kernel string
	mapper string
	seed   int64
}

func (k serveKey) body() ([]byte, error) {
	r := mapReq{Kernel: k.kernel, Arch: serveArch, Mapper: k.mapper, Seed: k.seed, TimePerIIMS: int(timePerII / time.Millisecond)}
	if k.mapper == "portfolio" {
		r.PortfolioParallelism = 1
	}
	return json.Marshal(r)
}

// answer is one completed request.
type answer struct {
	key    serveKey
	status int
	resp   mapResp
	batch  []mapResp // set for POST /map/batch
	lat    time.Duration
	err    error
}

// checkAnswer applies the per-answer checks: 200, success, ii >= mii,
// and the deadline guard on answers that compiled. It reports whether
// the operation failed.
func checkAnswer(rep *report, a answer) bool {
	if a.err != nil || a.status != http.StatusOK {
		rep.problem("%v: status %d, err %v", a.key, a.status, a.err)
		return true
	}
	rs := a.batch
	if rs == nil {
		rs = []mapResp{a.resp}
	}
	bad := false
	for _, r := range rs {
		switch {
		case !r.Success:
			rep.problem("%v: success false: %s", a.key, r.Error)
			bad = true
		case r.II < r.MII:
			rep.problem("%v: II %d below MII %d", a.key, r.II, r.MII)
			bad = true
		case !r.Cached && !r.Deduped && r.DurationMS > ms(deadlineGuard):
			rep.problem("%v: compile took %.0f ms, past the deadline guard", a.key, r.DurationMS)
			bad = true
		}
	}
	return bad
}

// send posts one request for key, to /map or, with batch, to
// /map/batch as two identical entries.
func send(d *daemon, key serveKey, body []byte, batch bool) answer {
	a := answer{key: key}
	path := "/map"
	if batch {
		path = "/map/batch"
		body = []byte(`{"requests":[` + string(body) + `,` + string(body) + `]}`)
	}
	var data []byte
	a.status, data, a.lat, a.err = d.post(path, body)
	if a.err != nil || a.status != http.StatusOK {
		return a
	}
	if !batch {
		a.err = json.Unmarshal(data, &a.resp)
		return a
	}
	var br struct {
		Results []mapResp `json:"results"`
	}
	if a.err = json.Unmarshal(data, &br); a.err == nil && len(br.Results) != 2 {
		a.err = fmt.Errorf("batch answered %d entries, want 2", len(br.Results))
	}
	if a.err == nil {
		a.batch, a.resp = br.Results, br.Results[0]
	}
	return a
}

// compiles collects the answers that compiled, per key, over repeated
// sessions that each compile every key once.
type compiles map[serveKey][]mapResp

// sameWork checks that every session compiled each key to the same II
// with the same work counts.
func (c compiles) sameWork(rep *report) {
	for k, rs := range c {
		for _, r := range rs[1:] {
			for _, n := range []string{"route.expansions", "placements.tried", "verify.attempts"} {
				if r.II != rs[0].II || r.Counters[n] != rs[0].Counters[n] {
					rep.problem("%v: work differs between two sessions (II %d/%d, %s %d/%d)",
						k, rs[0].II, r.II, n, rs[0].Counters[n], r.Counters[n])
					return
				}
			}
		}
	}
}

// fill sets the compile figures of e: each key's compile time is its
// fastest over the sessions. Two requests are in flight, so the
// daemon's CPU time cannot be split between them: a compile's time is
// the wall-clock the daemon reports for it.
func (c compiles) fill(e *endToEnd) {
	for _, rs := range c {
		ds := make([]float64, len(rs))
		for i, r := range rs {
			ds[i] = r.DurationMS / 1000
		}
		m := fastest(ds)
		e.compileS += m
		switch rs[0].Mapper {
		case "rewire":
			e.rewireS += m
		case "pathfinder":
			e.pfS += m
		case "sa":
			e.saS += m
		}
		e.sumII += rs[0].II
	}
}

// inprocUS is the in-process cost of one request naming its kernel:
// lowering, cache key and cache hit.
func inprocUS(p probeResult) float64 {
	return p.loadUS + p.keyUS + p.hitUS
}

// ---- serve-mixed ----

const (
	mixedSessionSeconds = 15 // about one session on a 2-core x86 box; -seconds / this sets the session count
	mixedRepeats        = 21 // repeats of earlier keys per session, 30% of 69 requests
	mixedBatches        = 2  // fresh keys sent as a batch with an in-batch duplicate
	mixedBoots          = 31 // daemon launches per run, sessions included; setup_s is their median
	mixedConns          = 2
	mixedSeed0          = 1000 // first mapper seed of the fresh compiles
)

// mixedFresh is the fixed set of fresh compiles: every 4x4r2 Fig6
// kernel under each mapper. Seeds are unique so each compile misses the
// cache, and fixed so every session does the same compile work.
func mixedFresh() []serveKey {
	var out []serveKey
	for _, k := range fig6Kernels() {
		for _, mp := range []string{"rewire", "pathfinder", "sa", "portfolio"} {
			out = append(out, serveKey{kernel: k, mapper: mp, seed: int64(mixedSeed0 + len(out))})
		}
	}
	return out
}

// mixedSlot is one request of a serve-mixed session.
type mixedSlot struct {
	key   serveKey
	batch bool
}

// mixedShapeSeed fixes the order of the fresh compiles and the
// positions of the repeats. With one worker and two connections, a
// request's latency is its own service time plus that of the request
// queued ahead of it. A seeded order changes which compiles pair up,
// and moved the pooled p50 by 20% from one seed to another.
const mixedShapeSeed = 1

// mixedSchedule lays out one session: the fresh compiles and repeat
// positions in the fixed shape, the batched keys and the key each
// repeat names drawn from seed. A repeat names a key issued at least
// two requests earlier.
func mixedSchedule(seed int64) []mixedSlot {
	shape := rand.New(rand.NewSource(mixedShapeSeed))
	rng := rand.New(rand.NewSource(seed))
	fresh := mixedFresh()
	n := len(fresh) + mixedRepeats
	isRepeat := make([]bool, n)
	for _, p := range shape.Perm(n - 4)[:mixedRepeats] {
		isRepeat[p+4] = true
	}
	order := shape.Perm(len(fresh))
	batch := map[int]bool{}
	for _, i := range rng.Perm(len(fresh))[:mixedBatches] {
		batch[i] = true
	}
	out := make([]mixedSlot, 0, n)
	var issued []int // schedule positions of fresh keys
	for p := 0; p < n; p++ {
		if !isRepeat[p] {
			f := order[len(issued)]
			out = append(out, mixedSlot{key: fresh[f], batch: batch[f]})
			issued = append(issued, p)
			continue
		}
		var eligible []int
		for _, q := range issued {
			if q <= p-2 {
				eligible = append(eligible, q)
			}
		}
		out = append(out, mixedSlot{key: out[eligible[rng.Intn(len(eligible))]].key})
	}
	return out
}

// runMixedSession replays one schedule through the closed loop against
// a fresh daemon, checks every answer, and adds the session's compiles
// to comp. It returns the answers and the loop's wall-clock.
func runMixedSession(rep *report, d *daemon, sched []mixedSlot, comp compiles) ([]answer, time.Duration, error) {
	bodies := make([][]byte, len(sched))
	for i, s := range sched {
		var err error
		if bodies[i], err = s.key.body(); err != nil {
			return nil, 0, err
		}
	}
	answers := make([]answer, len(sched))
	var ctr counter
	start := time.Now()
	closedLoop(mixedConns, func() (int, bool) {
		i := ctr.next()
		return i, i < len(sched)
	}, func(i int) {
		answers[i] = send(d, sched[i].key, bodies[i], sched[i].batch)
	})
	elapsed := time.Since(start)

	// Each key compiles exactly once per session; every other answer for
	// it, cache hit or batch duplicate, reports the compile's II.
	fresh := map[serveKey]mapResp{}
	seen := map[serveKey]int{}
	for i, a := range answers {
		bad := checkAnswer(rep, a)
		if !bad && sched[i].batch && (!a.batch[1].Deduped || a.batch[1].II != a.batch[0].II) {
			rep.problem("%v: batch duplicate not deduplicated to its representative's II", a.key)
			bad = true
		}
		if !bad {
			if ii, ok := seen[a.key]; ok && ii != a.resp.II {
				rep.problem("%v: II %d, but %d on another answer for the same key", a.key, a.resp.II, ii)
				bad = true
			}
			seen[a.key] = a.resp.II
			if !a.resp.Cached {
				if _, dup := fresh[a.key]; dup {
					rep.problem("%v: compiled twice", a.key)
					bad = true
				}
				fresh[a.key] = a.resp
			}
		}
		rep.op(bad)
	}
	if want := len(mixedFresh()); len(fresh) != want {
		rep.problem("%d keys compiled, want %d", len(fresh), want)
	}
	for k, r := range fresh {
		comp[k] = append(comp[k], r)
	}
	return answers, elapsed, nil
}

func runServeMixed(cfg runConfig) (*report, error) {
	rep := &report{}
	sessions := max(1, (cfg.seconds+mixedSessionSeconds/2)/mixedSessionSeconds)
	args := []string{"-workers", "1"}
	if cfg.trace {
		// One session, every run's trace kept until the benchmark
		// fetches it.
		sessions = 1
		args = append(args, "-flight", "256")
	}
	rng := rand.New(rand.NewSource(cfg.seed))

	var (
		setups  []time.Duration
		comp    = compiles{}
		lats    []float64
		hits    []float64
		elapsed time.Duration
		rss     []float64
	)
	for l := 0; l < mixedBoots-sessions; l++ {
		d, boot, err := startDaemon(cfg.serveBin, args...)
		if err != nil {
			return nil, err
		}
		d.stop()
		setups = append(setups, boot)
	}
	for s := 0; s < sessions; s++ {
		d, boot, err := startDaemon(cfg.serveBin, args...)
		if err != nil {
			return nil, err
		}
		defer d.stop()
		setups = append(setups, boot)
		var before map[string]float64
		if cfg.trace {
			if before, err = d.scrape(); err != nil {
				return nil, err
			}
		}
		answers, took, err := runMixedSession(rep, d, mixedSchedule(rng.Int63()), comp)
		if err != nil {
			return nil, err
		}
		for _, a := range answers {
			lats = append(lats, ms(a.lat))
			if a.resp.Cached {
				hits = append(hits, ms(a.lat))
			}
		}
		elapsed += took
		if cfg.trace {
			return mixedLayers(cfg, rep, d, before, comp, hits)
		}
		rss = append(rss, d.stop())
	}
	comp.sameWork(rep)
	// Latency percentiles pool the sessions, whose orders differ: one
	// session's percentiles depend on which requests it happened to pair
	// in the queue.
	e := endToEnd{
		setupS: durMedian(setups), reqPerS: float64(len(lats)) / elapsed.Seconds(),
		latP50MS: latencyQuantile(lats, 0.5), latP90MS: latencyQuantile(lats, 0.9), rssMB: median(rss),
	}
	comp.fill(&e)
	rep.addEndToEnd(e)
	return rep, nil
}

// mixedLayers reports the per-layer metrics of a serve-mixed session:
// span totals from the compiled runs' traces, counts from their answers
// and from the /metrics deltas, and the in-process probe.
func mixedLayers(cfg runConfig, rep *report, d *daemon, before map[string]float64, comp compiles, hits []float64) (*report, error) {
	lm := layerMetrics{spans: newSpanTotals()}
	for k, rs := range comp {
		if err := d.addRunTrace(lm.spans, rs[0].RunID); err != nil {
			return nil, err
		}
		if k.mapper == "rewire" {
			lm.counts.addCoreCounters(rs[0].Counters)
		}
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	d.stop()
	addScrapeCounts(&lm, deltas(before, after))
	if lm.probe, err = probeLayers(probeMix(fig6Kernels()), cfg.seed); err != nil {
		return nil, err
	}
	lm.hitMS = median(hits)
	lm.residualUS = 1000*lm.hitMS - inprocUS(lm.probe)
	addLayerMetrics(rep, lm)
	return rep, nil
}
