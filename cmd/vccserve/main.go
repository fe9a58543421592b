// Command vccserve serves a vcc.ShardedMemory as a multi-tenant
// line-store network service (internal/server): a length-prefixed
// binary TCP protocol on -addr, plus an optional HTTP/JSON debug
// front on -http.
//
// Usage:
//
//	vccserve -addr :7421 -lines 65536 -shards 4 -tenants 2
//	vccserve -addr :7421 -cache -cachelines 1024 -cachepolicy wb
//	vccserve -addr 127.0.0.1:7421 -http 127.0.0.1:7422 -encoder vccgen
//	vccserve -addr :7421 -chaos 0.3 -chaostorn 0.1 -maxinflight 16
//
// The engine flags mirror vccrepro/tracegen: shard count, per-shard
// queue depth, decoded-line cache, remap spares and fault injection
// all configure the same ShardedMemoryConfig the in-process
// experiments use. Tenants split the line address space into equal
// disjoint slices; clients bind to a tenant with the HELLO verb and
// address lines tenant-relatively (see internal/server for the wire
// protocol). SIGINT/SIGTERM shut down gracefully: in-flight
// requests drain, then the engine flushes and closes.
//
// The -chaos* flags install the deterministic fault-injection
// decorator (internal/chaos) on every shard: transient read/write
// errors, torn writes, corrupted reads and latency stalls at the
// given per-attempt rates. Faults surface on the wire as typed
// device-error responses after the controller's bounded retries;
// -maxinflight bounds admitted ops across all connections, shedding
// excess requests with a typed busy response. Both keep the
// connection alive, so retrying clients (loadgen, server.DialOpts)
// recover without reconnecting.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	vcc "repro"
	"repro/internal/linecache"
	"repro/internal/server"
)

// newEncoder maps the -encoder flag to a per-shard encoder factory.
func newEncoder(name string) (func() vcc.Encoder, error) {
	switch name {
	case "vcc":
		return func() vcc.Encoder { return vcc.NewVCCEncoder(256) }, nil
	case "vccgen":
		return func() vcc.Encoder { return vcc.NewVCCGeneratedEncoder(256) }, nil
	case "rcc":
		return func() vcc.Encoder { return vcc.NewRCCEncoder(256) }, nil
	case "fnw":
		return func() vcc.Encoder { return vcc.NewFNWEncoder(16) }, nil
	case "flipcy":
		return func() vcc.Encoder { return vcc.NewFlipcyEncoder() }, nil
	case "none":
		return func() vcc.Encoder { return vcc.NewUnencoded() }, nil
	default:
		return nil, fmt.Errorf("-encoder %q: want vcc|vccgen|rcc|fnw|flipcy|none", name)
	}
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7421", "TCP listen address for the binary line-store protocol")
		httpAddr = flag.String("http", "", "optional HTTP/JSON debug listen address (empty = disabled)")
		lines    = flag.Int("lines", 1<<16, "memory capacity in cache lines")
		shards   = flag.Int("shards", 4, "shard count")
		qdepth   = flag.Int("queuedepth", 0, "per-shard issue-queue bound (0 = engine default)")
		encoder  = flag.String("encoder", "vcc", "vcc|vccgen|rcc|fnw|flipcy|none")
		slc      = flag.Bool("slc", false, "single-level cells instead of MLC")
		seed     = flag.Uint64("seed", 1, "engine master seed")
		fault    = flag.Float64("fault", 0, "per-cell stuck-at fault rate")
		spares   = flag.Int("remapspares", 0, "per-shard spare-line pool for fault remapping; 0 = no remapping")
		cache    = flag.Bool("cache", false, "front each shard with a decoded-line LRU cache")
		cacheLn  = flag.Int("cachelines", 1024, "-cache: per-shard cache capacity in lines")
		cachePl  = flag.String("cachepolicy", "wt", "-cache: write policy, writethrough|wt|writeback|wb")
		tenants  = flag.Int("tenants", 1, "tenant count (equal disjoint slices of the line space)")
		maxBatch = flag.Int("maxbatch", 0, "max ops per BATCH frame (0 = server default)")
		window   = flag.Int("window", 0, "per-connection in-flight request bound (0 = server default)")

		chaosRW      = flag.Float64("chaos", 0, "transient read+write error rate per backend attempt (shorthand for -chaosread/-chaoswrite)")
		chaosRead    = flag.Float64("chaosread", 0, "transient read-error rate per backend attempt")
		chaosWrite   = flag.Float64("chaoswrite", 0, "transient write-error rate per backend attempt")
		chaosTorn    = flag.Float64("chaostorn", 0, "torn-write rate (corrupted image stored, typed error returned)")
		chaosCorrupt = flag.Float64("chaoscorrupt", 0, "corrupted-read rate (bit-flipped data plus typed error)")
		chaosStall   = flag.Float64("chaosstall", 0, "latency-stall rate per op")
		stallDelay   = flag.Duration("stalldelay", 0, "stall duration (0 = chaos default)")
		opRetries    = flag.Int("opretries", 0, "controller in-place retry budget per faulted op (0 = default, negative = none)")
		maxInflight  = flag.Int("maxinflight", 0, "server-wide admitted-op bound; excess requests shed with busy (0 = unlimited)")
		writeTO      = flag.Duration("writetimeout", 0, "per-response-frame write deadline; slow clients are disconnected (0 = none)")
		idleTO       = flag.Duration("idletimeout", 0, "per-request idle read deadline (0 = none)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "vccserve: %v\n", err)
		os.Exit(1)
	}

	newEnc, err := newEncoder(*encoder)
	if err != nil {
		fail(err)
	}
	cfg := vcc.ShardedMemoryConfig{
		Lines:      *lines,
		Shards:     *shards,
		QueueDepth: *qdepth,
		NewEncoder: newEnc,
		SLC:        *slc,
		Seed:       *seed,
		FaultRate:  *fault,
	}
	if *spares > 0 {
		cfg.RemapSpares = *spares
	}
	cfg.OpRetries = *opRetries
	if *chaosRW != 0 || *chaosRead != 0 || *chaosWrite != 0 || *chaosTorn != 0 ||
		*chaosCorrupt != 0 || *chaosStall != 0 {
		cfg.Chaos = &vcc.ChaosSpec{
			ReadErrRate:     *chaosRW + *chaosRead,
			WriteErrRate:    *chaosRW + *chaosWrite,
			TornWriteRate:   *chaosTorn,
			ReadCorruptRate: *chaosCorrupt,
			StallRate:       *chaosStall,
			StallDelay:      *stallDelay,
		}
	}
	if *cache {
		policy, err := linecache.ParsePolicy(*cachePl)
		if err != nil {
			fail(err)
		}
		if *cacheLn <= 0 {
			fail(fmt.Errorf("-cachelines %d must be positive", *cacheLn))
		}
		cfg.CacheLines = *cacheLn
		cfg.CachePolicy = policy
	}
	mem, err := vcc.NewShardedMemory(cfg)
	if err != nil {
		fail(err)
	}

	srv, err := server.New(server.Config{
		Mem:            mem,
		Tenants:        *tenants,
		MaxBatchOps:    *maxBatch,
		Window:         *window,
		MaxInflightOps: *maxInflight,
		WriteTimeout:   *writeTO,
		IdleTimeout:    *idleTO,
	})
	if err != nil {
		fail(err)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("vccserve: listening on %s (%d lines, %d shards, %d tenants x %d lines)\n",
		l.Addr(), mem.Lines(), mem.Shards(), srv.Tenants(), srv.TenantLines())

	var hsrv *http.Server
	if *httpAddr != "" {
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fail(err)
		}
		fmt.Printf("vccserve: HTTP debug front on %s\n", hl.Addr())
		hsrv = &http.Server{Handler: srv.HTTPHandler()}
		go hsrv.Serve(hl)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("vccserve: %v: draining\n", s)
	case err := <-done:
		if err != nil {
			fail(err)
		}
	}

	srv.Stop()
	if hsrv != nil {
		hsrv.Close()
	}
	mem.Close()
	fmt.Println("vccserve: closed")
}
