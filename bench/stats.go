package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// tailPercentile returns the highest of the reported percentiles that
// still has at least ten of n samples beyond it, or 50 when even the
// median has fewer (n < 20).
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 99, 99.9, 99.99} {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

// quartiles returns the three cut points of values into four groups,
// by the same exclusive method as Python's statistics.quantiles(n=4).
// It needs at least two values.
func quartiles(values []float64) [3]float64 {
	d := slices.Clone(values)
	slices.Sort(d)
	n := len(d)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

func median(values []float64) float64 {
	d := slices.Clone(values)
	slices.Sort(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// A slice of a measured window closes at the first request completion
// that gives it both sliceRequests requests, enough for ten samples
// beyond its 99th percentile, and sliceMin of time.
const (
	sliceRequests = 1000
	sliceMin      = time.Second
)

// timing is a window's throughput and latency, taken over slices: the
// window's requests, in completion order, cut into consecutive slices.
// Other tenants of the host slow it down for seconds at a time, so slice
// throughput swings between a contended and a quiet level; the values
// reported are those of the quiet slices, where the system's own cost
// shows: the 90th percentile of slice throughput, and the 10th
// percentile of slice median and slice 99th-percentile latency.
type timing struct {
	opsPerS, p50, p99 float64 // ops/s, ns, ns
	slices            int
	// tail is the percentile p99 stands for: 99, or lower when the
	// window was too short for a slice to hold sliceRequests requests.
	tail float64
	// requests and meanLat cover every request of the window.
	requests int64
	meanLat  float64 // ns
}

// slicer cuts a window's requests, as they complete, into slices and
// keeps only each slice's throughput and percentiles, so the benchmark's
// own memory does not grow with the number of requests it measures. The
// lanes of a window share one slicer.
type slicer struct {
	mu        sync.Mutex
	opsPerReq int
	last      time.Time // completion of the latest request so far
	sliceEnd  time.Time // completion that closed the previous slice
	lat       []int64   // the open slice's latencies, in ns
	rates     []float64
	p50s      []float64
	p99s      []float64
	tail      float64
	requests  int64
	latSum    float64
}

func newSlicer(opsPerReq int, start time.Time) *slicer {
	return &slicer{opsPerReq: opsPerReq, last: start, sliceEnd: start, tail: 99}
}

// add records a request that ran from start to end.
func (s *slicer) add(start, end time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if end.After(s.last) {
		s.last = end
	}
	d := int64(end.Sub(start))
	s.requests++
	s.latSum += float64(d)
	s.lat = append(s.lat, d)
	if len(s.lat) >= sliceRequests && s.last.Sub(s.sliceEnd) >= sliceMin {
		s.close()
	}
}

// close turns the open slice into one more set of slice values.
func (s *slicer) close() {
	slices.Sort(s.lat)
	s.tail = min(s.tail, tailPercentile(len(s.lat)))
	s.rates = append(s.rates, float64(len(s.lat)*s.opsPerReq)/s.last.Sub(s.sliceEnd).Seconds())
	s.p50s = append(s.p50s, float64(percentile(s.lat, 50)))
	s.p99s = append(s.p99s, float64(percentile(s.lat, min(99, s.tail))))
	s.sliceEnd = s.last
	s.lat = s.lat[:0]
}

// timing returns the window's timing over whole slices. Requests past
// the last whole slice are left out; a window shorter than one slice is
// one slice. Call it once every lane has finished.
func (s *slicer) timing() timing {
	if len(s.rates) == 0 && len(s.lat) > 0 {
		s.close()
	}
	t := timing{slices: len(s.rates), tail: min(99, s.tail),
		requests: s.requests, meanLat: ratio(s.latSum, float64(s.requests))}
	if t.slices > 0 {
		t.opsPerS = percentileOf(s.rates, 90)
		t.p50, t.p99 = percentileOf(s.p50s, 10), percentileOf(s.p99s, 10)
	}
	return t
}

// percentileOf returns the nearest-rank p-th percentile of values.
func percentileOf(values []float64, p float64) float64 {
	d := slices.Clone(values)
	slices.Sort(d)
	k := int(math.Ceil(p/100*float64(len(d)))) - 1
	return d[min(max(k, 0), len(d)-1)]
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// host identifies the machine and build a run was made on.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
}

func fingerprint() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA("."),
	}
}

// gitSHA resolves HEAD of the git checkout at dir without running git,
// or returns "unknown" when dir is not one (a source export, say).
func gitSHA(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(dir, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
