package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/coset"
	"repro/internal/memctrl"
)

// spanName identifies the layer boundary a span times.
type spanName uint8

const (
	spanGen      spanName = iota // op generation for one ticket or BATCH
	spanSubmit                   // Session.Submit, blocked on queue backpressure
	spanWait                     // Ticket.Wait
	spanTicket                   // Submit until the ticket's Wait returns
	spanBatch                    // Client.Batch round trip
	spanApply                    // direct ShardedMemory.Apply of one batch
	spanEncode                   // one plane encode
	spanDecode                   // one word decode, or one line via DecodeWords
	spanCtlWrite                 // Controller.WriteLine
	spanCtlRead                  // Controller.ReadLine
	spanRemapW                   // Remapper.WriteLine
	spanRemapR                   // Remapper.ReadLine
	spanCacheW                   // linecache WriteLine
	spanCacheR                   // linecache ReadLine
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"gen", "submit", "wait", "ticket", "batch", "apply",
	"coset.encode", "coset.decode",
	"memctrl.write", "memctrl.read",
	"memctrl.remap.write", "memctrl.remap.read",
	"linecache.write", "linecache.read",
}

func (n spanName) String() string { return spanNames[n] }

// span is one timed interval recorded by the benchmark's own code,
// around a call into a layer. Spans of one request share Req; Parent is
// the ID of the enclosing span in the same log, 0 at the top.
type span struct {
	ID     int32
	Parent int32
	Req    int64
	Name   spanName
	Start  int64 // ns since the log's epoch
	End    int64
}

// spanAgg sums the spans of one name: count and total duration.
type spanAgg struct {
	n, ns int64
}

func (a spanAgg) mean() float64 { return ratio(a.ns, a.n) }

type openSpan struct {
	id    int32
	name  spanName
	start int64
}

// spanLog records the spans of one goroutine. Every span feeds the
// per-name aggregates; the first limit spans are also kept whole, for
// self-time arithmetic and the optional trace file. A log is owned by a
// single goroutine: a producer, a connection, the replay, or one shard's
// codec (which only that shard's drainer calls).
type spanLog struct {
	source string
	// on gates recording; nil means always on. Toggled only while the
	// owning goroutine is idle (between phases).
	on     *atomic.Bool
	epoch  time.Time
	limit  int
	spans  []span
	stack  []openSpan
	nextID int32
	req    int64
	agg    [numSpanNames]spanAgg
}

// newSpanLog allocates room for limit spans up front, so recording
// never grows a slice inside a timed interval.
func newSpanLog(source string, epoch time.Time, limit int, on *atomic.Bool) *spanLog {
	return &spanLog{source: source, on: on, epoch: epoch, limit: limit, spans: make([]span, 0, limit)}
}

// active reports whether l records; a nil log never does.
func (l *spanLog) active() bool { return l != nil && (l.on == nil || l.on.Load()) }

// request sets the request ID that the spans begun next belong to.
func (l *spanLog) request(req int64) {
	if l != nil {
		l.req = req
	}
}

// begin opens a span nested in the innermost open one. The clock is
// read last, so the bookkeeping is charged to the enclosing span.
func (l *spanLog) begin(name spanName) {
	if !l.active() {
		return
	}
	var id int32
	if int(l.nextID) < l.limit {
		l.nextID++
		id = l.nextID
	}
	l.stack = append(l.stack, openSpan{id: id, name: name})
	l.stack[len(l.stack)-1].start = int64(time.Since(l.epoch))
}

// end closes the innermost open span, reading the clock first.
func (l *spanLog) end() {
	if !l.active() {
		return
	}
	end := int64(time.Since(l.epoch))
	o := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	var parent int32
	if len(l.stack) > 0 {
		parent = l.stack[len(l.stack)-1].id
	}
	l.finish(o.id, parent, l.req, o.name, o.start, end)
}

// add records a span whose interval the caller measured, at the top
// level: it may overlap other spans of the log, like tickets that are
// in flight together.
func (l *spanLog) add(name spanName, req int64, start, end time.Time) {
	if !l.active() {
		return
	}
	var id int32
	if int(l.nextID) < l.limit {
		l.nextID++
		id = l.nextID
	}
	l.finish(id, 0, req, name, int64(start.Sub(l.epoch)), int64(end.Sub(l.epoch)))
}

func (l *spanLog) finish(id, parent int32, req int64, name spanName, start, end int64) {
	l.agg[name].n++
	l.agg[name].ns += end - start
	if id != 0 {
		l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	}
}

// full reports whether the log stopped keeping whole spans.
func (l *spanLog) full() bool { return int(l.nextID) >= l.limit }

// sumAgg returns the aggregate of name across logs.
func sumAgg(logs []*spanLog, name spanName) spanAgg {
	var t spanAgg
	for _, l := range logs {
		t.n += l.agg[name].n
		t.ns += l.agg[name].ns
	}
	return t
}

// selfTimes returns, per span name, the summed self time of the spans:
// each span's duration minus the part of its interval that its children
// cover. Overlapping children count once, and a child reaching outside
// its parent counts only inside it.
func selfTimes(spans []span) [numSpanNames]int64 {
	kids := map[int32][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	var out [numSpanNames]int64
	var iv [][2]int64
	for _, s := range spans {
		iv = iv[:0]
		for _, k := range kids[s.ID] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		out[s.Name] += s.End - s.Start - covered(iv)
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, lo, hi int64
	for i, v := range iv {
		if i == 0 || v[0] > hi {
			total += hi - lo
			lo, hi = v[0], v[1]
		} else if v[1] > hi {
			hi = v[1]
		}
	}
	return total + hi - lo
}

// writeSpans writes every kept span of the logs to path as JSON lines.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, l := range logs {
		for _, s := range l.spans {
			rec := struct {
				Source string `json:"source"`
				ID     int32  `json:"id"`
				Parent int32  `json:"parent"`
				Req    int64  `json:"req"`
				Name   string `json:"name"`
				Start  int64  `json:"start_ns"`
				End    int64  `json:"end_ns"`
			}{l.source, s.ID, s.Parent, s.Req, s.Name.String(), s.Start, s.End}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// tracedCodec forwards to a codec and times each encode and decode into
// a span log. traceCodec picks the variant that implements exactly the
// optional fast-path interfaces of the wrapped codec, so the controller
// takes the same paths with and without tracing.
type tracedCodec struct {
	coset.Codec
	log *spanLog
}

func (c tracedCodec) Encode(data uint64, ev *coset.Evaluator) (uint64, uint64) {
	c.log.begin(spanEncode)
	enc, aux := c.Codec.Encode(data, ev)
	c.log.end()
	return enc, aux
}

func (c tracedCodec) Decode(enc, aux, left uint64) uint64 {
	c.log.begin(spanDecode)
	d := c.Codec.Decode(enc, aux, left)
	c.log.end()
	return d
}

type slicedEncoder struct {
	fast coset.FastCodec
	flog *spanLog
}

func (c slicedEncoder) EncodeSliced(data uint64, ev *coset.Evaluator, sc *coset.SlicedCtx) (uint64, uint64) {
	c.flog.begin(spanEncode)
	enc, aux := c.fast.EncodeSliced(data, ev, sc)
	c.flog.end()
	return enc, aux
}

type lineDecoder struct {
	dec  coset.LineDecoder
	dlog *spanLog
}

func (c lineDecoder) DecodeWords(enc, aux, left, out []uint64) {
	c.dlog.begin(spanDecode)
	c.dec.DecodeWords(enc, aux, left, out)
	c.dlog.end()
}

type tracedFast struct {
	tracedCodec
	slicedEncoder
}

type tracedLineDec struct {
	tracedCodec
	lineDecoder
}

type tracedFastLineDec struct {
	tracedCodec
	slicedEncoder
	lineDecoder
}

// traceCodec wraps c so that its encodes and decodes land in log.
func traceCodec(c coset.Codec, log *spanLog) coset.Codec {
	base := tracedCodec{Codec: c, log: log}
	fast, isFast := c.(coset.FastCodec)
	dec, isDec := c.(coset.LineDecoder)
	switch {
	case isFast && isDec:
		return tracedFastLineDec{base, slicedEncoder{fast, log}, lineDecoder{dec, log}}
	case isFast:
		return tracedFast{base, slicedEncoder{fast, log}}
	case isDec:
		return tracedLineDec{base, lineDecoder{dec, log}}
	}
	return base
}

// timedStore forwards to a LineStore and times its writes and reads.
type timedStore struct {
	memctrl.LineStore
	log         *spanLog
	write, read spanName
}

func (s *timedStore) WriteLine(line int, plaintext []byte) ([]memctrl.WordOutcome, error) {
	s.log.begin(s.write)
	outs, err := s.LineStore.WriteLine(line, plaintext)
	s.log.end()
	return outs, err
}

func (s *timedStore) ReadLine(line int, dst []byte) ([]byte, error) {
	s.log.begin(s.read)
	out, err := s.LineStore.ReadLine(line, dst)
	s.log.end()
	return out, err
}
