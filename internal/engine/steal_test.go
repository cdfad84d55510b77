package engine

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"npqm/internal/queue"
	"npqm/internal/traffic"
)

// seqPayload encodes a per-flow sequence number so FIFO can be audited
// after the fact.
func seqPayload(seq uint32) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint32(b, seq)
	return b
}

// runSkewed drives a zipf-skewed load through the ring datapath and
// returns the per-worker max share of executed commands plus total
// stolen commands. Two producers own disjoint flow subsets (even/odd), so
// per-flow sequence numbers are single-writer; a concurrent consumer
// audits per-flow FIFO while stealing is active, and the leftover backlog
// is audited again after the drain.
func runSkewed(t *testing.T, steal bool) (maxShare float64, stolen uint64) {
	t.Helper()
	const (
		flows      = 512
		perProd    = 15000
		producers  = 2
		segments   = 4096
		shardCount = 4
	)
	e, err := New(Config{
		Shards:      shardCount,
		NumFlows:    flows,
		NumSegments: segments,
		StoreData:   true,
		WorkSteal:   steal,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}

	// lastSeen[flow] is the last audited sequence number + 1; the single
	// consumer and the post-drain sweep are serialized, so plain writes.
	lastSeen := make([]uint32, flows)
	audit := func(flow uint32, data []byte) {
		seq := binary.LittleEndian.Uint32(data)
		if seq < lastSeen[flow] {
			t.Errorf("flow %d: seq %d after %d — per-flow FIFO violated", flow, seq, lastSeen[flow]-1)
		}
		lastSeen[flow] = seq + 1
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // consumer: keeps the pool drained, audits FIFO online
		defer wg.Done()
		for {
			batch := e.DequeueNextBatch(64)
			for _, d := range batch {
				audit(d.Flow, d.Data)
				e.ReleaseBuffer(d.Data)
			}
			select {
			case <-stop:
				if len(batch) == 0 {
					return
				}
			default:
				if len(batch) == 0 {
					time.Sleep(50 * time.Microsecond)
				}
			}
		}
	}()

	var prodWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			dist, err := traffic.NewFlowDist(traffic.FlowDistConfig{
				Kind: traffic.FlowZipf, Flows: flows / producers,
				Skew: 1.8, Seed: uint64(p + 1),
			})
			if err != nil {
				t.Error(err)
				return
			}
			seqs := make([]uint32, flows)
			for i := 0; i < perProd; i++ {
				// Disjoint flow spaces: producer p owns flows ≡ p (mod producers).
				flow := dist.Next()*producers + uint32(p)
				if err := e.EnqueueAsync(flow, seqPayload(seqs[flow])); err != nil {
					t.Error(err)
					return
				}
				seqs[flow]++
			}
		}(p)
	}
	prodWG.Wait()
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants after skewed run (steal=%v): %v", steal, err)
	}
	st := e.Stats()
	if st.EnqueuedSegments != st.DequeuedSegments+st.PushedOutSegments+uint64(st.QueuedSegments) {
		t.Fatalf("segment conservation: enq %d != deq %d + pushed %d + resident %d",
			st.EnqueuedSegments, st.DequeuedSegments, st.PushedOutSegments, st.QueuedSegments)
	}

	var total, maxCmds uint64
	for _, ss := range e.ShardStats() {
		total += ss.WorkerCommands
		maxCmds = max(maxCmds, ss.WorkerCommands)
		stolen += ss.StolenCommands
	}
	if total == 0 {
		t.Fatalf("no worker commands recorded (steal=%v)", steal)
	}
	return float64(maxCmds) / float64(total), stolen
}

// TestWorkStealConservationFIFO is the rebalancing race test: zipf skew,
// stealing active, a concurrent FIFO audit, and the engine-wide
// conservation invariants — meant to run under -race -shuffle=on.
func TestWorkStealConservationFIFO(t *testing.T) {
	share, stolen := runSkewed(t, true)
	t.Logf("steal=on: max command share %.3f, stolen commands %d", share, stolen)
}

// TestWorkStealReducesMaxBusyShare holds stealing to its scaling claim:
// under zipf skew the hottest worker's share of the executed commands
// must drop when stealing is on. How much a thief takes depends on the
// interleaving, so it gets a few attempts before failing.
func TestWorkStealReducesMaxBusyShare(t *testing.T) {
	if testing.Short() {
		t.Skip("interleaving-dependent comparison; skipped in -short")
	}
	const attempts = 3
	for i := 1; ; i++ {
		off, _ := runSkewed(t, false)
		on, stolen := runSkewed(t, true)
		t.Logf("attempt %d: max command share off=%.3f on=%.3f, stolen=%d", i, off, on, stolen)
		if stolen > 0 && on < off {
			return
		}
		if i == attempts {
			t.Fatalf("stealing did not reduce the max command share after %d attempts (off=%.3f on=%.3f stolen=%d)",
				attempts, off, on, stolen)
		}
	}
}

// TestExecBatchCoalescesFinishes is the white-box contract of the wakeup
// coalescing: a drained batch carrying several commands of one completion
// costs that completion a single countdown decrement (and so at most one
// producer wakeup), with the merged decrements counted on the shard.
func TestExecBatchCoalescesFinishes(t *testing.T) {
	e := newTest(t, 1, 16, 64)
	defer e.Close()
	s := e.shards[0]
	w := newWorkerScratch()

	co := &call{done: make(chan struct{}, 1)}
	co.pending.Store(5) // 4 commands + the poster's hold
	co2 := &call{done: make(chan struct{}, 1)}
	co2.pending.Store(2) // 1 command + the poster's hold

	// An interleaved run: co, co, co2, co, co — the flush must merge all
	// four co decrements into one regardless of interleaving.
	cmds := []command{
		{kind: opBarrier, co: co},
		{kind: opBarrier, co: co},
		{kind: opBarrier, co: co2},
		{kind: opBarrier, co: co},
		{kind: opBarrier, co: co},
	}
	e.execBatch(s, cmds, w)

	if got := co.pending.Load(); got != 1 {
		t.Errorf("co.pending = %d after flush, want 1 (poster's hold)", got)
	}
	if got := co2.pending.Load(); got != 1 {
		t.Errorf("co2.pending = %d after flush, want 1", got)
	}
	if got := s.coalescedWakes.Load(); got != 3 {
		t.Errorf("coalescedWakes = %d, want 3 (four co decrements merged into one)", got)
	}
	// Neither completion may have been signalled: the posters still hold.
	select {
	case <-co.done:
		t.Error("co signalled while the poster's hold was outstanding")
	case <-co2.done:
		t.Error("co2 signalled while the poster's hold was outstanding")
	default:
	}
}

// TestPacerNotifyBurstNoStrand: a burst of notifies and kicks landing
// while the pacer is mid-drain overflows the capacity-1 wake channel —
// those signals must coalesce (counted), never strand a runnable port.
func TestPacerNotifyBurstNoStrand(t *testing.T) {
	e, err := New(Config{Shards: 1, NumFlows: 16, NumSegments: 512, StoreData: true, NumPorts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const flowA, flowB = 0, 1
	if err := e.SetFlowPort(flowB, 1); err != nil {
		t.Fatal(err)
	}

	var txA, txB atomic.Uint64
	slow := SinkFunc(func(d Dequeued) error {
		time.Sleep(500 * time.Microsecond) // keep the pacer mid-drain
		txA.Add(1)
		e.ReleaseBuffer(d.Data)
		return nil
	})
	fast := SinkFunc(func(d Dequeued) error {
		txB.Add(1)
		e.ReleaseBuffer(d.Data)
		return nil
	})
	if err := e.Serve(0, slow); err != nil {
		t.Fatal(err)
	}
	if err := e.Serve(1, fast); err != nil {
		t.Fatal(err)
	}

	const nA, nB = 40, 10
	for i := 0; i < nA; i++ {
		if _, err := e.EnqueuePacket(flowA, []byte("aaaa")); err != nil {
			t.Fatal(err)
		}
	}
	// Mid-drain: port 0's sink is sleeping between packets. Land port 1's
	// traffic plus a kick storm now, so most wake sends find the channel
	// full and coalesce.
	time.Sleep(2 * time.Millisecond)
	for i := 0; i < nB; i++ {
		if _, err := e.EnqueuePacket(flowB, []byte("bb")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		if err := e.Resume(1); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for txA.Load() < nA || txB.Load() < nB {
		if time.Now().After(deadline) {
			t.Fatalf("stranded port: transmitted A=%d/%d B=%d/%d", txA.Load(), nA, txB.Load(), nB)
		}
		time.Sleep(time.Millisecond)
	}
	if got := e.Stats().CoalescedWakes; got == 0 {
		t.Error("kick storm produced no coalesced wakes — the burst never overflowed the wake channel")
	}
}

// TestWorkStealSyncFallback: the steal knob must not disturb the
// synchronous datapath or the closed-mode observation surface.
func TestWorkStealSyncFallback(t *testing.T) {
	e, err := New(Config{Shards: 2, NumFlows: 32, NumSegments: 128, StoreData: true, WorkSteal: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnqueuePacket(3, []byte("pre-start")); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	data, err := e.DequeuePacket(3)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "pre-start" {
		t.Fatalf("payload %q, want %q", data, "pre-start")
	}
	e.ReleaseBuffer(data)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DequeuePacket(3); !errors.Is(err, ErrClosed) {
		t.Fatalf("DequeuePacket after Close: %v, want ErrClosed", err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	_ = queue.ErrQueueEmpty // keep the import meaningful if assertions change
}
