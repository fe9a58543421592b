package server

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	vcc "repro"
)

// TestConcurrentTenantsReconcile hammers one server with N clients
// across M tenants and requires exact accounting: per-tenant op
// totals match what the clients issued, and the summed per-tenant
// engine deltas reconcile with the engine-wide counters. Run under
// -race this is also the server's data-race certification. The
// engine is uncached so every op reaches the controller (cache
// write-back would defer device work past per-ticket attribution).
func TestConcurrentTenantsReconcile(t *testing.T) {
	const (
		tenants    = 3
		perTenant  = 3 // clients per tenant
		requests   = 25
		batchSize  = 8
		totalLines = 768
	)
	mem, err := vcc.NewShardedMemory(vcc.ShardedMemoryConfig{
		Lines:  totalLines,
		Shards: 4,
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	srv, addr := startServer(t, Config{Mem: mem, Tenants: tenants})

	type tally struct{ writes, reads int64 }
	tallies := make([]tally, tenants)
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, tenants*perTenant)
	for c := 0; c < tenants*perTenant; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := c % tenants
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			lines, err := cl.Hello(tenant)
			if err != nil {
				errs <- err
				return
			}
			var writes, reads int64
			ops := make([]BatchOp, batchSize)
			data := make([]byte, batchSize*LineSize)
			var res []BatchResult
			for r := 0; r < requests; r++ {
				for i := range ops {
					line := uint64((c*1000 + r*batchSize + i*37) % int(lines))
					if (r+i)%2 == 0 {
						buf := data[i*LineSize : (i+1)*LineSize]
						buf[0] = byte(c)
						ops[i] = BatchOp{Kind: BatchWrite, Line: line, Data: buf}
						writes++
					} else {
						ops[i] = BatchOp{Kind: BatchRead, Line: line}
						reads++
					}
				}
				if res, err = cl.Batch(ops, res); err != nil {
					errs <- fmt.Errorf("client %d request %d: %w", c, r, err)
					return
				}
			}
			mu.Lock()
			tallies[tenant].writes += writes
			tallies[tenant].reads += reads
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var sumOps, sumWrites, sumReads int64
	for tn := 0; tn < tenants; tn++ {
		st, err := srv.TenantStats(tn)
		if err != nil {
			t.Fatal(err)
		}
		wantOps := tallies[tn].writes + tallies[tn].reads
		if st.Ops != wantOps {
			t.Errorf("tenant %d: %d ops accounted, clients issued %d", tn, st.Ops, wantOps)
		}
		if st.LineWrites != tallies[tn].writes {
			t.Errorf("tenant %d: %d line writes accounted, clients issued %d", tn, st.LineWrites, tallies[tn].writes)
		}
		if st.LineReads != tallies[tn].reads {
			t.Errorf("tenant %d: %d line reads accounted, clients issued %d", tn, st.LineReads, tallies[tn].reads)
		}
		sumOps += st.Ops
		sumWrites += st.LineWrites
		sumReads += st.LineReads
	}
	es := mem.Stats()
	if sumWrites != es.LineWrites || sumReads != es.LineReads {
		t.Errorf("summed tenant stats (w=%d r=%d) do not reconcile with engine counters (w=%d r=%d)",
			sumWrites, sumReads, es.LineWrites, es.LineReads)
	}
	if want := int64(tenants * perTenant * requests * batchSize); sumOps != want {
		t.Errorf("summed ops = %d, want %d", sumOps, want)
	}
}

// TestCloseGivesTypedShutdownError verifies the shutdown contract:
// requests racing Close complete or get StatusShutdown, and requests
// after Close always get the typed error on a live connection — no
// hang, no panic, no dropped connection.
func TestCloseGivesTypedShutdownError(t *testing.T) {
	mem, err := vcc.NewShardedMemory(vcc.ShardedMemoryConfig{Lines: 128, Shards: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	srv, addr := startServer(t, Config{Mem: mem})

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Hello(0); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, LineSize)
	if _, err := cl.Write(1, data); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The connection survives Close; data verbs get the typed error.
	for i := 0; i < 3; i++ {
		_, err := cl.Write(2, data)
		var se *StatusError
		if !errors.As(err, &se) || se.Status != StatusShutdown {
			t.Fatalf("post-Close write %d: err = %v, want StatusShutdown", i, err)
		}
		if _, err := cl.Read(1, nil); !errors.As(err, &se) || se.Status != StatusShutdown {
			t.Fatalf("post-Close read %d: err = %v, want StatusShutdown", i, err)
		}
	}
	// Stats still answer (the accounting is server-side state).
	st, err := cl.Stats()
	if err != nil {
		t.Fatalf("post-Close stats: %v", err)
	}
	if st.Ops != 1 || st.LineWrites != 1 {
		t.Fatalf("post-Close stats = %+v, want the one pre-Close write", st)
	}
	// Close is idempotent.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseRacesInFlight closes the server while clients are mid-burst
// and requires every response to be either OK or typed shutdown. It
// waits for every client's hello, so Close races the burst, not the dial.
func TestCloseRacesInFlight(t *testing.T) {
	mem, err := vcc.NewShardedMemory(vcc.ShardedMemoryConfig{Lines: 512, Shards: 4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	srv, addr := startServer(t, Config{Mem: mem, Tenants: 2})

	var wg, ready sync.WaitGroup
	errs := make(chan error, 4)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		ready.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err == nil {
				defer cl.Close()
				_, err = cl.Hello(c % 2)
			}
			ready.Done()
			if err != nil {
				errs <- err
				return
			}
			data := make([]byte, LineSize)
			for i := 0; i < 500; i++ {
				_, err := cl.Write(uint64(i%256), data)
				if err == nil {
					continue
				}
				var se *StatusError
				if errors.As(err, &se) && se.Status == StatusShutdown {
					continue // expected once Close lands
				}
				errs <- fmt.Errorf("client %d op %d: %v", c, i, err)
				return
			}
		}(c)
	}
	ready.Wait()
	srv.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
