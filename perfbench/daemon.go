package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one rewire-serve process started by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{} // closed once the process has been waited for
}

// startDaemon execs rewire-serve on a free local port and waits for
// /readyz. It returns the time from exec to ready.
func startDaemon(bin string, args ...string) (*daemon, time.Duration, error) {
	if bin == "" {
		return nil, 0, errors.New("no rewire-serve binary (-serve-bin)")
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	t0 := time.Now()
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-log-level", "error"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// The daemon must not outlive the benchmark, even when the benchmark
	// is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start rewire-serve: %w", err)
	}
	d := &daemon{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
			Timeout:   2 * time.Minute,
		},
		exited: make(chan struct{}),
	}
	go func() {
		_ = cmd.Wait() // the exit status is read from ProcessState
		close(d.exited)
	}()
	for deadline := time.Now().Add(60 * time.Second); ; {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("rewire-serve exited before it was ready: %v", cmd.ProcessState)
		default:
		}
		if resp, err := d.client.Get(d.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("rewire-serve not ready within 60s")
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// freePort asks the kernel for an unused local TCP port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop terminates the daemon, waits for it to exit and returns its
// peak resident set size. It is safe to call more than once.
func (d *daemon) stop() float64 {
	d.client.CloseIdleConnections()
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // it may have exited meanwhile
		<-d.exited
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return 0
}

// post sends one JSON body and returns the status, the answer and the
// client-side latency.
func (d *daemon) post(path string, body []byte) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(t0), err
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return data, err
}

// scrape reads /metrics and sums every sample per metric name (label
// sets folded together).
func (d *daemon) scrape() (map[string]float64, error) {
	data, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// addRunTrace fetches one flight-recorder run's Chrome trace and adds
// its spans to s.
func (d *daemon) addRunTrace(s *spanTotals, runID string) error {
	data, err := d.get("/runs/" + runID + "/trace")
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"` // microseconds
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("run %s trace: %w", runID, err)
	}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			s.addSpan(e.Name, time.Duration(e.Dur*float64(time.Microsecond)))
		}
	}
	return nil
}

// closedLoop runs conns clients; each sends its next request only once
// its previous one is answered. next hands out request indices and
// reports false when the run is over.
func closedLoop(conns int, next func() (int, bool), do func(i int)) {
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := next()
				if !ok {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}

// counter hands out 0, 1, 2, ... to concurrent callers.
type counter struct{ n atomic.Int64 }

func (c *counter) next() int { return int(c.n.Add(1) - 1) }

// mapReq is a POST /map body.
type mapReq struct {
	Kernel               string `json:"kernel,omitempty"`
	Arch                 string `json:"arch"`
	Mapper               string `json:"mapper"`
	Seed                 int64  `json:"seed"`
	TimePerIIMS          int    `json:"time_per_ii_ms"`
	PortfolioParallelism int    `json:"portfolio_parallelism,omitempty"`
}

// mapResp is the part of a POST /map answer the benchmark checks.
type mapResp struct {
	RunID      string           `json:"run_id"`
	Success    bool             `json:"success"`
	Mapper     string           `json:"mapper"`
	II         int              `json:"ii"`
	MII        int              `json:"mii"`
	DurationMS float64          `json:"duration_ms"`
	Counters   map[string]int64 `json:"counters"`
	Cached     bool             `json:"cached"`
	Deduped    bool             `json:"deduped"`
	Error      string           `json:"error"`
}

// deltas is after minus before for every metric in after.
func deltas(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// addScrapeCounts folds the /metrics deltas of a serve run into the
// layer counts, queue wait and GC figures.
func addScrapeCounts(m *layerMetrics, d map[string]float64) {
	m.counts.routeExpansions += d["rewire_route_expansions_total"]
	m.counts.findpathCalls += d["rewire_route_findpath_calls_total"]
	m.counts.findpathFound += d["rewire_route_findpath_found_total"]
	m.counts.pfRemaps += d["rewire_pf_remaps_total"]
	m.counts.saMoves += d["rewire_sa_moves_total"]
	m.counts.sweepAttempts += d["rewire_sweep_attempts_total"]
	m.counts.portfolioLanes += d["rewire_portfolio_lanes_total"]
	m.cacheHits = d["rewire_resultcache_hits_total"]
	m.cacheMisses = d["rewire_resultcache_misses_total"]
	m.cacheShr = d["rewire_resultcache_singleflight_shared_total"]
	m.queueWaitMS = 1000 * ratio(d["rewire_serve_queue_wait_seconds_sum"], d["rewire_serve_queue_wait_seconds_count"])
	m.gc = gcDelta{cycles: d["rewire_process_gc_cycles_units"], pauseMS: 1000 * d["rewire_process_gc_pause_seconds_total"]}
}
