package main

// Tracing from outside the engine. With --trace 1 every facade call the
// adapter makes, and the benchmark's own work around it, is timed as a
// span. Totals per span kind cover every call; full span records are kept
// only for a per-packet sample, in a bounded buffer per goroutine, and are
// written out when the run ends. A sampled packet's spans share its
// (flow, seq) identifier; a batch call is the cause of each packet it
// returned.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type spanKind uint8

const (
	spanIngest  spanKind = iota // one packet's ingest, the benchmark's fill included
	spanEnqueue                 // EnqueuePacket (copy ingest)
	spanReserve                 // ReservePacket (write-in-place ingest)
	spanCommit                  // Reservation.Commit
	spanWait                    // producer blocked on the window or on a full pool
	spanDequeue                 // DequeueNextBatch / DequeueNextViewBatch
	spanIdle                    // consumer yielding after an empty poll
	spanRelease                 // ReleaseBuffer per packet / ReleaseViews per batch
	spanSink                    // the benchmark's own read and check of one packet
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"ingest", "npqm.EnqueuePacket", "npqm.ReservePacket", "npqm.Commit", "bench.wait",
	"npqm.DequeueNextBatch", "bench.idle", "npqm.Release", "bench.sink",
}

// batchFlow marks a span that belongs to a batch call, not one packet; its
// seq field is the batch number.
const batchFlow = ^uint32(0)

// spansPerRecorder bounds each goroutine's span buffer.
const spansPerRecorder = 1 << 16

type span struct {
	kind       spanKind
	flow, seq  uint32
	cause      int32 // index of the causing span in the same recorder, -1 for none
	start, end int64 // ns since epoch
}

var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// recorder is one goroutine's spans and per-kind totals. A nil recorder
// records nothing, so untraced runs share the traced code path.
type recorder struct {
	mask  uint64 // see sampled
	spans []span
	lost  int // sampled spans dropped because the buffer was full
	ns    [numSpanKinds]int64
	calls [numSpanKinds]uint64
	// engIngest holds per-packet engine ingest time: EnqueuePacket, or
	// ReservePacket plus Commit.
	engIngest *sampler
}

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return nanotime()
}

func (r *recorder) add(k spanKind, start, end int64) {
	if r == nil {
		return
	}
	r.ns[k] += end - start
	r.calls[k]++
}

// sampled reports whether packet (flow, seq) is one whose spans are kept:
// a hash of its identity picks one packet in mask+1, the same packets on
// every goroutine.
func (r *recorder) sampled(flow, seq uint32) bool {
	return r != nil && (uint64(flow)*0x9E3779B97F4A7C15^uint64(seq)*0xC2B2AE3D27D4EB4F)>>32&r.mask == 0
}

// keep stores a sampled span and returns its index, or -1 when full.
func (r *recorder) keep(s span) int32 {
	if len(r.spans) == cap(r.spans) {
		r.lost++
		return -1
	}
	r.spans = append(r.spans, s)
	return int32(len(r.spans) - 1)
}

// tracer owns the recorders of one traced run. It keeps full spans for one
// packet in sampleEvery, a power of two.
type tracer struct {
	sampleEvery uint64
	recs        []*recorder
}

// recorder returns a new recorder for one goroutine (nil when t is nil).
func (t *tracer) recorder() *recorder {
	if t == nil {
		return nil
	}
	r := &recorder{mask: t.sampleEvery - 1, spans: make([]span, 0, spansPerRecorder), engIngest: newSampler(1 << 16)}
	t.recs = append(t.recs, r)
	return r
}

// kept returns the span records kept and those dropped for lack of room.
func (t *tracer) kept() (kept, lost int) {
	for _, r := range t.recs {
		kept += len(r.spans)
		lost += r.lost
	}
	return kept, lost
}

// totals sums per-kind time and calls over every recorder.
func (t *tracer) totals() (ns [numSpanKinds]int64, calls [numSpanKinds]uint64) {
	for _, r := range t.recs {
		for k := range ns {
			ns[k] += r.ns[k]
			calls[k] += r.calls[k]
		}
	}
	return ns, calls
}

// delaySplit is the per-packet delay breakdown of the sampled packets, in
// ns: ingest call, queue residence, egress call and sink.
type delaySplit struct {
	ingest, residence, egress, sink *sampler
}

// split joins each sampled conforming packet's (flow < conform) ingest
// span with its sink span and, on pull workloads, the batch dequeue that
// caused it.
func (t *tracer) split(conform uint32) delaySplit {
	d := delaySplit{newSampler(1 << 16), newSampler(1 << 16), newSampler(1 << 16), newSampler(1 << 16)}
	type id struct{ flow, seq uint32 }
	ingest := map[id]span{}
	for _, r := range t.recs {
		for _, s := range r.spans {
			if s.kind == spanIngest {
				ingest[id{s.flow, s.seq}] = s
			}
		}
	}
	for _, r := range t.recs {
		for _, s := range r.spans {
			if s.kind != spanSink || s.flow >= conform {
				continue
			}
			in, ok := ingest[id{s.flow, s.seq}]
			if !ok {
				continue
			}
			egStart, egEnd := s.start, s.start // push delivery: the pick is inside the pacer
			if s.cause >= 0 {
				c := r.spans[s.cause]
				egStart, egEnd = c.start, c.end
			}
			d.ingest.add(in.end - in.start)
			d.residence.add(egStart - in.end)
			d.egress.add(egEnd - egStart)
			d.sink.add(s.end - egEnd)
		}
	}
	return d
}

// write saves every kept span as tab-separated text and returns the path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "recorder\tindex\tname\tflow\tseq\tcause\tstart_ns\tend_ns")
	for ri, r := range t.recs {
		for i, s := range r.spans {
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n", ri, i, spanNames[s.kind],
				s.flow, s.seq, s.cause, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
