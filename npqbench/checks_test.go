package main

import (
	"strings"
	"sync/atomic"
	"testing"

	"npqm"
)

// packet builds the bytes of one generated packet.
func packet(flow, seq uint32, n int) []byte {
	st := stamp{flow: flow, seq: seq, t: 12345, n: n}
	b := make([]byte, n)
	st.fill(b, 0)
	return b
}

// check feeds b to a packetCheck in chunks of seg bytes, as a view would.
func check(b []byte, seg int, flow uint32, n int) error {
	var c packetCheck
	c.reset()
	for off := 0; off < len(b); off += seg {
		c.feed(b[off:min(off+seg, len(b))])
	}
	return c.finish(flow, n)
}

func TestPacketCheckAcceptsIntactPackets(t *testing.T) {
	for _, n := range []int{64, 576, 1500} {
		b := packet(7, 3, n)
		for _, seg := range []int{n, 64} {
			if err := check(b, seg, 7, n); err != nil {
				t.Errorf("n=%d seg=%d: %v", n, seg, err)
			}
		}
	}
}

func TestPacketCheckFiresOnCorruption(t *testing.T) {
	b := packet(7, 3, 1500)
	b[700] ^= 1
	if err := check(b, 64, 7, 1500); err == nil || !strings.Contains(err.Error(), "differs from the pattern") {
		t.Fatalf("corrupted byte: got %v", err)
	}
	// A segment of another packet spliced in.
	b = packet(7, 3, 1500)
	copy(b[128:192], packet(7, 4, 1500)[128:192])
	if err := check(b, 64, 7, 1500); err == nil {
		t.Fatal("spliced segment passed")
	}
	// Delivered on the wrong flow.
	if err := check(packet(7, 3, 64), 64, 8, 64); err == nil || !strings.Contains(err.Error(), "stamped for flow 7") {
		t.Fatalf("wrong flow: got %v", err)
	}
}

func TestPacketCheckFiresOnShortPackets(t *testing.T) {
	b := packet(7, 3, 1500)
	if err := check(b[:1400], 64, 7, 1400); err == nil {
		t.Fatal("truncated packet passed")
	}
	if err := check(b[:10], 64, 7, 10); err == nil || !strings.Contains(err.Error(), "shorter than its stamp") {
		t.Fatalf("packet shorter than the stamp: got %v", err)
	}
	if err := check(b, 64, 7, 1499); err == nil {
		t.Fatal("length disagreeing with the engine passed")
	}
}

func newTestReceiver(flows int, conform uint32) *receiver {
	var win atomic.Int32
	return newReceiver(make([]uint32, flows), conform, &win, 1, 1, nil)
}

func TestOrderFiresOnReorderedStream(t *testing.T) {
	rx := newTestReceiver(4, 4)
	for _, seq := range []uint32{0, 1, 2} {
		if err := rx.order(1, seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := rx.order(1, 1); err == nil {
		t.Fatal("duplicate passed")
	}
	if err := rx.order(2, 5); err != nil || rx.gaps != 5 || rx.conformGaps != 5 {
		t.Fatalf("gap: err %v gaps %d conforming %d", err, rx.gaps, rx.conformGaps)
	}
	if err := rx.order(2, 4); err == nil {
		t.Fatal("reordered packet passed")
	}
}

func TestReceiverCountsEveryFailure(t *testing.T) {
	rx := newTestReceiver(4, 4)
	good := packet(1, 0, 64)
	bad := packet(1, 1, 64)
	bad[40] ^= 0xff
	for _, b := range [][]byte{good, bad} {
		d := delivered{flow: 1, n: 64, data: b}
		rx.take(&d, nil)
	}
	if rx.bad != 1 || rx.err == nil || rx.pkts.Load() != 2 {
		t.Fatalf("bad %d err %v pkts %d", rx.bad, rx.err, rx.pkts.Load())
	}
}

// fullTally is a consistent ledger for an engine that delivered every
// packet but one pushed out and one dropped.
func fullTally() (tally, npqm.EngineStats) {
	t := tally{offered: 100, delivered: 98, dropped: 1, missing: 2}
	st := npqm.EngineStats{EnqueuedPackets: 99, DequeuedPackets: 98, DroppedPackets: 1, PushedOutPackets: 1,
		TransmittedPackets: 98}
	return t, st
}

func TestConservationAcceptsAccountedLoss(t *testing.T) {
	tl, st := fullTally()
	if err := checkConservation(tl, st, true); err != nil {
		t.Fatal(err)
	}
}

func TestConservationFiresOnShortStream(t *testing.T) {
	// One more packet missing from the flow sequences than the engine
	// accounts for: a silent loss.
	tl, st := fullTally()
	tl.delivered--
	tl.missing++
	st.DequeuedPackets--
	st.TransmittedPackets--
	st.EnqueuedPackets--
	if err := checkConservation(tl, st, true); err == nil || !strings.Contains(err.Error(), "engine accounts for") {
		t.Fatalf("silent loss: got %v", err)
	}
	// Receivers saw fewer packets than the engine dequeued.
	tl, st = fullTally()
	st.DequeuedPackets++
	if err := checkConservation(tl, st, false); err == nil {
		t.Fatal("dequeued/received mismatch passed")
	}
	// Drops the generator saw that the engine did not count.
	tl, st = fullTally()
	st.DroppedPackets = 0
	if err := checkConservation(tl, st, true); err == nil {
		t.Fatal("drop mismatch passed")
	}
}

func TestSettleCountsTails(t *testing.T) {
	var tl tally
	sent := []uint32{3, 5, 2}
	next := []uint32{3, 4, 0}
	settle(&tl, sent, next, 2, 1, 1)
	if tl.missing != 1+1+2 || tl.conformLost != 1+1 {
		t.Fatalf("missing %d conforming lost %d", tl.missing, tl.conformLost)
	}
}

func TestCheckDrainedFiresOnLentSegments(t *testing.T) {
	a, err := newAdapter(engineCfg{flows: 16, segments: 256, shards: 2, view: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.close()
	st := stamp{flow: 3, seq: 0, n: 200}
	if err := a.ingest(nil, &st); err != nil {
		t.Fatal(err)
	}
	p := a.puller()
	if n := p.dequeue(nil, 4); n != 1 {
		t.Fatalf("dequeued %d packets", n)
	}
	d := p.packet(0)
	rx := newTestReceiver(16, 16)
	rx.take(&d, p)
	if rx.err != nil {
		t.Fatal(rx.err)
	}
	if err := checkDrained(a.checkInvariants(), a.lentSegments()); err == nil {
		t.Fatal("held view passed the drain check")
	}
	p.release(nil)
	if err := checkDrained(a.checkInvariants(), a.lentSegments()); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRateFiresOffTarget(t *testing.T) {
	if err := checkRate(99.8); err != nil {
		t.Fatal(err)
	}
	for _, pct := range []float64{50, 94, 106} {
		if checkRate(pct) == nil {
			t.Errorf("%.0f%% passed", pct)
		}
	}
}

func TestConformingLossFires(t *testing.T) {
	if err := checkConformingLoss(tally{conformOffered: 10}); err != nil {
		t.Fatal(err)
	}
	if checkConformingLoss(tally{conformOffered: 10, conformLost: 1}) == nil {
		t.Fatal("lost conforming packet passed")
	}
}

func TestCopyRoundTripThroughAdapter(t *testing.T) {
	a, err := newAdapter(engineCfg{flows: 16, segments: 256, shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer a.close()
	for seq := uint32(0); seq < 3; seq++ {
		st := stamp{flow: 5, seq: seq, n: 100 + int(seq)}
		if err := a.ingest(nil, &st); err != nil {
			t.Fatal(err)
		}
	}
	rx := newTestReceiver(16, 16)
	p := a.puller()
	for p.dequeue(nil, 2) > 0 {
		for i := 0; i < p.n; i++ {
			d := p.packet(i)
			rx.take(&d, p)
		}
		p.release(nil)
	}
	if rx.err != nil || rx.pkts.Load() != 3 || rx.next[5] != 3 {
		t.Fatalf("err %v pkts %d next %d", rx.err, rx.pkts.Load(), rx.next[5])
	}
}

func TestQuantilesWeighSamplers(t *testing.T) {
	a, b := newSampler(4), newSampler(1024)
	for i := int64(1); i <= 16; i++ {
		a.add(1000) // kept every 4th after compaction: 4 values of weight 4
	}
	for i := int64(0); i < 16; i++ {
		b.add(i)
	}
	if a.stride != 4 || len(a.vals) != 4 {
		t.Fatalf("stride %d kept %d", a.stride, len(a.vals))
	}
	q := quantiles([]*sampler{a, b}, 0.25, 0.75)
	if q[0] != 7 || q[1] != 1000 {
		t.Fatalf("quantiles %v", q)
	}
	if median([]float64{3, 1, 2, 10}) != 2.5 {
		t.Fatal("median")
	}
}
