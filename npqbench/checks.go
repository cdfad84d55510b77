package main

// The output checks. A run whose delivered packets fail any of them exits
// non-zero and prints no metrics. checks_test.go feeds each check a
// reordered, corrupted or short stream and shows it fires.

import (
	"errors"
	"fmt"
	"sync/atomic"

	"npqm"
)

// receiver checks and measures the packets one goroutine receives: a pull
// consumer, or one served port's sink.
type receiver struct {
	next    []uint32 // next expected seq per flow; receivers share it over disjoint flows
	conform uint32   // flows below this carry conforming traffic
	win     *atomic.Int32
	lat     []*sampler // conforming latency (ns) per measurement window
	rec     *recorder

	pkts, bytes atomic.Uint64

	gaps, conformGaps uint64 // packets skipped over in a flow's sequence
	bad               uint64 // packets that failed a check
	err               error  // the first failure

	pc   packetCheck
	feed func([]byte) bool
}

// latencyBudget bounds the latency samples kept per measurement window,
// over all receivers.
const latencyBudget = 1 << 13

func newReceiver(next []uint32, conform uint32, win *atomic.Int32, windows, receivers int, rec *recorder) *receiver {
	rx := &receiver{next: next, conform: conform, win: win, rec: rec, lat: make([]*sampler, windows)}
	for i := range rx.lat {
		rx.lat[i] = newSampler(latencyBudget / receivers)
	}
	rx.feed = rx.pc.feed
	return rx
}

func (rx *receiver) fail(err error) {
	rx.bad++
	if rx.err == nil {
		rx.err = err
	}
}

// take reads and checks one delivered packet. p is the batch it came in,
// nil for push delivery.
func (rx *receiver) take(d *delivered, p *puller) {
	t0 := rx.rec.now()
	rx.pc.reset()
	d.chunks(rx.feed)
	now := nanotime()
	rx.pkts.Add(1)
	rx.bytes.Add(uint64(d.n))
	if err := rx.pc.finish(d.flow, d.n); err != nil {
		rx.fail(err)
		return
	}
	st := &rx.pc.st
	if err := rx.order(st.flow, st.seq); err != nil {
		rx.fail(err)
	}
	if st.flow < rx.conform {
		if w := rx.win.Load(); w >= 0 && int(w) < len(rx.lat) {
			rx.lat[w].add(now - st.t)
		}
	}
	if rx.rec != nil {
		rx.rec.add(spanSink, t0, now)
		if rx.rec.sampled(st.flow, st.seq) {
			cause := int32(-1)
			if p != nil {
				cause = p.causeSpan(rx.rec)
			}
			rx.rec.keep(span{kind: spanSink, flow: st.flow, seq: st.seq, cause: cause, start: t0, end: now})
		}
	}
}

// order enforces per-flow FIFO: sequence numbers only grow. A skipped
// number is a gap, allowed only if the engine accounts for it as a drop
// or push-out (checkConservation reconciles the totals).
func (rx *receiver) order(flow, seq uint32) error {
	exp := rx.next[flow]
	if seq < exp {
		return fmt.Errorf("flow %d: seq %d delivered after seq %d (reordered or duplicated)", flow, seq, exp-1)
	}
	if gap := uint64(seq - exp); gap > 0 {
		rx.gaps += gap
		if flow < rx.conform {
			rx.conformGaps += gap
		}
	}
	rx.next[flow] = seq + 1
	return nil
}

// tally is the offered-load ledger of one run, from the generator's and
// the receivers' side.
type tally struct {
	offered   uint64 // packets the generator tried to ingest
	delivered uint64
	dropped   uint64 // ErrAdmissionDrop returned to the generator
	refused   uint64 // ErrNoFreeSegments returned and not retried
	failed    uint64 // any other API error
	// otherFailed are failures on non-conforming traffic, which the
	// conforming loss does not already count.
	otherFailed uint64
	retries     uint64 // ErrNoFreeSegments returned and retried

	missing        uint64 // sequence gaps plus undelivered tails, over all flows
	conformOffered uint64
	conformLost    uint64 // conforming packets offered and not delivered
}

// settle adds each flow's undelivered tail (sent but never seen) to the
// missing counts. sent[f] is the number of packets offered on flow f.
func settle(t *tally, sent, next []uint32, conform uint32, gaps, conformGaps uint64) {
	t.missing = gaps
	t.conformLost = conformGaps
	for f := range sent {
		tail := uint64(sent[f] - next[f])
		t.missing += tail
		if uint32(f) < conform {
			t.conformLost += tail
		}
	}
}

// checkConservation reconciles offered = delivered + dropped + pushed-out
// + refused (+ failed) against the engine's own counters.
func checkConservation(t tally, st npqm.EngineStats, push bool) error {
	var errs []error
	if t.offered-t.delivered != t.missing {
		errs = append(errs, fmt.Errorf("offered %d - delivered %d != %d packets missing from the flow sequences",
			t.offered, t.delivered, t.missing))
	}
	if want := t.dropped + t.refused + t.failed + st.PushedOutPackets; t.missing != want {
		errs = append(errs, fmt.Errorf("%d packets missing, but the engine accounts for %d (dropped %d, refused %d, failed %d, pushed out %d)",
			t.missing, want, t.dropped, t.refused, t.failed, st.PushedOutPackets))
	}
	if st.DroppedPackets != t.dropped {
		errs = append(errs, fmt.Errorf("engine counted %d admission drops, the generator saw %d", st.DroppedPackets, t.dropped))
	}
	if st.DequeuedPackets != t.delivered {
		errs = append(errs, fmt.Errorf("engine dequeued %d packets, receivers got %d", st.DequeuedPackets, t.delivered))
	}
	if want := t.delivered + st.PushedOutPackets; st.EnqueuedPackets != want || st.QueuedSegments != 0 {
		errs = append(errs, fmt.Errorf("engine enqueued %d packets (%d segments still queued), want delivered + pushed out = %d",
			st.EnqueuedPackets, st.QueuedSegments, want))
	}
	if push && st.TransmittedPackets != t.delivered {
		errs = append(errs, fmt.Errorf("ports transmitted %d packets, sinks got %d", st.TransmittedPackets, t.delivered))
	}
	return errors.Join(errs...)
}

// checkDrained holds the engine to its invariants once every packet is
// out: structures consistent and no segment still lent.
func checkDrained(invariants error, lent int) error {
	if invariants != nil {
		return fmt.Errorf("CheckInvariants after drain: %w", invariants)
	}
	if lent != 0 {
		return fmt.Errorf("%d segments still lent after drain", lent)
	}
	return nil
}

// checkRate requires saturated shaped ports to deliver their configured
// rate.
func checkRate(attainedPct float64) error {
	if attainedPct < 95 || attainedPct > 105 {
		return fmt.Errorf("ports attained %.1f%% of their shaped rate, want 95-105%%", attainedPct)
	}
	return nil
}

// checkConformingLoss requires every conforming packet to arrive.
func checkConformingLoss(t tally) error {
	if t.conformLost != 0 {
		return fmt.Errorf("%d of %d conforming packets lost", t.conformLost, t.conformOffered)
	}
	return nil
}
