// Command loadgen drives a live vccserve with N concurrent simulated
// clients replaying internal/workload mixes, and reports throughput
// plus p50/p95/p99 request latency.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:7421 -clients 8 -tenants 2 -n 200
//	loadgen -addr 127.0.0.1:7421 -mix "zipf:0.8,seq:0.2" -readfrac 0.7
//	loadgen -addr 127.0.0.1:7421 -duration 5s -rate 500 -json summary.json
//
// Each client owns one connection bound to tenant client%tenants and
// issues BATCH frames of -batch ops drawn from its own deterministic
// workload stream (-mix over the patterns seq, zipf, stride, chase;
// -readfrac interleaves reads). -rate paces each client on a fixed
// open-loop schedule so queueing delay is measured rather than
// absorbed; the default is closed-loop (issue on response). Latencies
// are recorded per client into internal/perf histograms and merged.
//
// With -retries N the clients use the resilient connection mode
// (server.ClientOpts): busy and device-error responses and transport
// drops are retried with jittered exponential backoff and transparent
// reconnect, up to N attempts per request. Recovered failures are
// reported in the retries/busy_responses/device_error_responses/
// reconnects counters; error_responses and transport_errors count
// only FINAL failures that exhausted the budget.
//
// The -json summary (schema vccrepro-loadgen/v2) is what
// `benchreport -validate` checks (schema, a clean run, monotone
// latency quantiles); served throughput with a measured spread comes
// from bench/'s served workloads instead. The process exits
// nonzero on any final transport error, any final non-OK response, or
// zero completed ops — a run that recovered every fault through
// retries exits 0, so chaos smoke tests can assert resilience
// directly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/perf"
	"repro/internal/prng"
	"repro/internal/server"
	"repro/internal/workload"
)

// Summary is the machine-readable run report.
type Summary struct {
	Schema      string  `json:"schema"`
	Addr        string  `json:"addr"`
	Clients     int     `json:"clients"`
	Tenants     int     `json:"tenants"`
	BatchOps    int     `json:"batch_ops"`
	Mix         string  `json:"mix"`
	ReadFrac    float64 `json:"read_frac"`
	RatePerSec  float64 `json:"rate_per_sec"`
	Seed        uint64  `json:"seed"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	Requests    int64   `json:"requests"`
	OpsDone     int64   `json:"ops_done"`
	ThroughputO float64 `json:"throughput_ops_per_sec"`
	ThroughputM float64 `json:"throughput_mb_per_sec"`
	// ErrorResps and Transport count final failures only: requests
	// that still failed after the -retries budget (all failures, with
	// -retries 0). Recovered faults land in the four counters below.
	ErrorResps  int64 `json:"error_responses"`
	Transport   int64 `json:"transport_errors"`
	Retries     int64 `json:"retries"`
	BusyResps   int64 `json:"busy_responses"`
	DevErrResps int64 `json:"device_error_responses"`
	Reconnects  int64 `json:"reconnects"`

	Latency   perf.LatencySummary  `json:"latency_ns"`
	PerTenant []server.TenantStats `json:"per_tenant"`
}

// client is one simulated client's workload state and result counters.
type client struct {
	id        int
	tenant    int
	opts      server.ClientOpts
	requests  int64
	ops       int64
	errResps  int64
	transport int64
	retries   int64
	busy      int64
	devErr    int64
	reconns   int64
	sink      perf.LatencySink
	err       error
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7421", "vccserve TCP address")
		clients  = flag.Int("clients", 8, "concurrent simulated clients")
		tenants  = flag.Int("tenants", 1, "tenants to spread clients across (client i binds tenant i%%tenants)")
		n        = flag.Int("n", 200, "requests per client (ignored with -duration)")
		duration = flag.Duration("duration", 0, "run for a fixed wall-clock window instead of -n requests")
		batch    = flag.Int("batch", 16, "ops per BATCH request frame")
		mix      = flag.String("mix", "zipf:1", "workload mixture, e.g. \"seq:0.5,zipf:0.4,chase:0.1\"")
		readFrac = flag.Float64("readfrac", 0.5, "fraction of ops issued as reads")
		zipfS    = flag.Float64("zipfs", 1.2, "Zipf skew of the zipf pattern")
		stride   = flag.Int("stride", 64, "stride of the stride pattern")
		rate     = flag.Float64("rate", 0, "per-client open-loop request rate (requests/sec); 0 = closed loop")
		seed     = flag.Uint64("seed", 1, "master seed; clients derive decorrelated streams")
		wait     = flag.Duration("connectwait", 5*time.Second, "how long to retry the initial dials (server startup race)")
		jsonOut  = flag.String("json", "", "write the machine-readable summary to this file ('-' = stdout)")

		retries   = flag.Int("retries", 0, "per-request retry budget for busy/device-error/transport failures (0 = fail fast)")
		retryBase = flag.Duration("retrybase", time.Millisecond, "-retries: initial backoff step")
		retryMax  = flag.Duration("retrymax", 200*time.Millisecond, "-retries: backoff cap")
		opTimeout = flag.Duration("optimeout", 0, "per-request connection deadline (0 = none)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	if *clients < 1 || *tenants < 1 || *batch < 1 {
		fail(fmt.Errorf("-clients, -tenants and -batch must be positive"))
	}
	if !(*readFrac >= 0 && *readFrac <= 1) {
		fail(fmt.Errorf("-readfrac %v out of range [0,1]", *readFrac))
	}
	if *duration == 0 && *n < 1 {
		fail(fmt.Errorf("-n must be positive without -duration"))
	}

	cls := make([]*client, *clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := time.Time{}
	if *duration > 0 {
		deadline = start.Add(*duration)
	}
	for i := range cls {
		cls[i] = &client{id: i, tenant: i % *tenants, opts: server.ClientOpts{
			OpTimeout:  *opTimeout,
			MaxRetries: *retries,
			RetryBase:  *retryBase,
			RetryMax:   *retryMax,
			Seed:       *seed ^ uint64(i)<<32,
		}}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.err = c.run(*addr, *wait, *n, deadline, *batch, *mix, *readFrac, *zipfS, *stride, *rate, *seed)
		}(cls[i])
	}
	wg.Wait()
	elapsed := time.Since(start)

	sum := Summary{
		Schema:     "vccrepro-loadgen/v2",
		Addr:       *addr,
		Clients:    *clients,
		Tenants:    *tenants,
		BatchOps:   *batch,
		Mix:        *mix,
		ReadFrac:   *readFrac,
		RatePerSec: *rate,
		Seed:       *seed,
		ElapsedSec: elapsed.Seconds(),
	}
	var merged perf.LatencySink
	for _, c := range cls {
		sum.Requests += c.requests
		sum.OpsDone += c.ops
		sum.ErrorResps += c.errResps
		sum.Transport += c.transport
		sum.Retries += c.retries
		sum.BusyResps += c.busy
		sum.DevErrResps += c.devErr
		sum.Reconnects += c.reconns
		merged.Merge(&c.sink)
		if c.err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: client %d: %v\n", c.id, c.err)
		}
	}
	sum.Latency = merged.Summary()
	if s := elapsed.Seconds(); s > 0 {
		sum.ThroughputO = float64(sum.OpsDone) / s
		sum.ThroughputM = float64(sum.OpsDone) * server.LineSize / 1e6 / s
	}

	// Final per-tenant server-side stats, fetched over fresh
	// connections after every client finished.
	for t := 0; t < *tenants; t++ {
		st, err := fetchTenantStats(*addr, *wait, t)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: tenant %d stats: %v\n", t, err)
			sum.Transport++
			continue
		}
		sum.PerTenant = append(sum.PerTenant, st)
	}

	fmt.Printf("loadgen: %d clients x %d tenants against %s\n", *clients, *tenants, *addr)
	fmt.Printf("  %d requests, %d ops in %.2fs: %.0f ops/s, %.2f MB/s\n",
		sum.Requests, sum.OpsDone, sum.ElapsedSec, sum.ThroughputO, sum.ThroughputM)
	fmt.Printf("  latency p50=%s p95=%s p99=%s max=%s\n",
		time.Duration(sum.Latency.P50), time.Duration(sum.Latency.P95),
		time.Duration(sum.Latency.P99), time.Duration(sum.Latency.Max))
	fmt.Printf("  error responses=%d transport errors=%d\n", sum.ErrorResps, sum.Transport)
	if sum.Retries > 0 || sum.BusyResps > 0 || sum.DevErrResps > 0 || sum.Reconnects > 0 {
		fmt.Printf("  recovered: retries=%d busy=%d device-errors=%d reconnects=%d\n",
			sum.Retries, sum.BusyResps, sum.DevErrResps, sum.Reconnects)
	}
	for _, st := range sum.PerTenant {
		fmt.Printf("  tenant ops=%d writes=%d reads=%d saw=%d hits=%d misses=%d energy=%.0fpJ\n",
			st.Ops, st.LineWrites, st.LineReads, st.SAWCells, st.CacheHits, st.CacheMisses, st.EnergyPJ)
	}

	if *jsonOut != "" {
		blob, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			fail(err)
		}
		blob = append(blob, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(blob)
		} else if err := os.WriteFile(*jsonOut, blob, 0o644); err != nil {
			fail(err)
		}
	}

	if sum.Transport > 0 || sum.ErrorResps > 0 || sum.OpsDone == 0 {
		os.Exit(1)
	}
}

// run executes one client's request loop.
func (c *client) run(addr string, wait time.Duration, n int, deadline time.Time,
	batch int, mix string, readFrac, zipfS float64, stride int, rate float64, seed uint64) error {
	conn, err := server.DialRetryOpts(addr, wait, c.opts)
	if err != nil {
		c.transport++
		return err
	}
	defer conn.Close()
	defer func() {
		c.retries = conn.Retries()
		c.busy = conn.BusyResponses()
		c.devErr = conn.DeviceErrorResponses()
		c.reconns = conn.Reconnects()
	}()
	lines, err := conn.Hello(c.tenant)
	if err != nil {
		c.transport++
		return fmt.Errorf("hello(tenant %d): %w", c.tenant, err)
	}

	// Every client gets a decorrelated deterministic stream: the
	// pattern PRNGs hang off the per-client label, the data PRNG off a
	// separate stream of the same seed.
	label := fmt.Sprintf("loadgen-client-%d", c.id)
	pat, err := workload.ParseMix(mix, workload.MixOpts{
		Lines:    int(lines),
		ZipfSkew: zipfS,
		Stride:   stride,
		Seed:     seed,
		Label:    label,
	})
	if err != nil {
		return err
	}
	stream := workload.NewStream(prng.NewFrom(seed, label).Uint64(),
		workload.Phase{Pattern: pat, ReadFrac: readFrac})
	data := prng.NewFrom(seed, label+"-data")

	ops := make([]server.BatchOp, batch)
	bufs := make([]byte, batch*server.LineSize)
	var res []server.BatchResult
	pacer := workload.NewPacer(rate)

	for req := 0; deadline.IsZero() && req < n || !deadline.IsZero() && time.Now().Before(deadline); req++ {
		for i := range ops {
			line, read := stream.Next()
			if read {
				ops[i] = server.BatchOp{Kind: server.BatchRead, Line: line}
			} else {
				buf := bufs[i*server.LineSize : (i+1)*server.LineSize]
				data.Fill(buf)
				ops[i] = server.BatchOp{Kind: server.BatchWrite, Line: line, Data: buf}
			}
		}
		begin := pacer.Wait(time.Now())
		res, err = conn.Batch(ops, res)
		c.sink.Record(uint64(time.Since(begin)))
		c.requests++
		if err != nil {
			if _, ok := err.(*server.StatusError); ok {
				c.errResps++
				continue
			}
			c.transport++
			return err
		}
		c.ops += int64(len(res))
	}
	return nil
}

// fetchTenantStats opens a short-lived connection to read one
// tenant's final server-side statistics.
func fetchTenantStats(addr string, wait time.Duration, tenant int) (server.TenantStats, error) {
	conn, err := server.DialRetry(addr, wait)
	if err != nil {
		return server.TenantStats{}, err
	}
	defer conn.Close()
	if _, err := conn.Hello(tenant); err != nil {
		return server.TenantStats{}, err
	}
	return conn.Stats()
}
