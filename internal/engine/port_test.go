package engine

// Tests of the port-level transmit subsystem: flow→port mapping,
// push-mode delivery through Serve and ServeViews, token-bucket pacing,
// pause/resume flow control, and the interplay with both datapaths and
// Close.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"npqm/internal/policy"
	"npqm/internal/queue"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// countingSink tallies deliveries per flow. As a Sink it releases the
// buffers; as a SinkV it leaves the views to the engine.
type countingSink struct {
	e  *Engine
	mu sync.Mutex
	n  int
	by map[uint32]int
}

func newCountingSink(e *Engine) *countingSink {
	return &countingSink{e: e, by: make(map[uint32]int)}
}

func (c *countingSink) Transmit(d Dequeued) error {
	c.tally(d.Flow)
	c.e.ReleaseBuffer(d.Data)
	return nil
}

func (c *countingSink) SendView(_ int, d DequeuedView) error {
	c.tally(d.Flow)
	return nil
}

func (c *countingSink) tally(flow uint32) {
	c.mu.Lock()
	c.n++
	c.by[flow]++
	c.mu.Unlock()
}

func (c *countingSink) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// sinkKinds are the two push-delivery legs of the serve tests: Serve with
// reassembled buffers and ServeViews with zero-copy views.
var sinkKinds = []string{"copy", "view"}

// serveKind registers c on port through Serve or ServeViews.
func serveKind(e *Engine, port int, kind string, c *countingSink) error {
	if kind == "view" {
		return e.ServeViews(port, c)
	}
	return e.Serve(port, c)
}

// serveFunc registers fn on port through Serve (releasing each buffer
// before calling fn) or ServeViews.
func serveFunc(e *Engine, port int, kind string, fn func(flow uint32) error) error {
	if kind == "view" {
		return e.ServeViews(port, SinkVFunc(func(_ int, d DequeuedView) error { return fn(d.Flow) }))
	}
	return e.Serve(port, SinkFunc(func(d Dequeued) error {
		e.ReleaseBuffer(d.Data)
		return fn(d.Flow)
	}))
}

// checkSettled asserts, after Close, that a view leg returned every lent
// segment and that the pool conservation law holds.
func checkSettled(t *testing.T, e *Engine, kind string) {
	t.Helper()
	if lent := e.LentSegments(); kind == "view" && lent != 0 {
		t.Fatalf("%d segments still lent after the view drain", lent)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPortConfigValidation(t *testing.T) {
	base := Config{NumSegments: 64}
	bad := []Config{
		{NumSegments: 64, NumPorts: -1},
		{NumSegments: 64, NumPorts: MaxPorts + 1},
		{NumSegments: 64, PortRate: policy.ShaperConfig{RateBytesPerSec: -5}},
		{NumSegments: 64, PortRate: policy.ShaperConfig{BurstBytes: 100}}, // burst without rate
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	e, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumPorts() != 1 {
		t.Fatalf("default NumPorts = %d, want 1", e.NumPorts())
	}
}

func TestServeDeliversBacklogAndLiveTraffic(t *testing.T) {
	for _, kind := range sinkKinds {
		t.Run("sink="+kind, func(t *testing.T) {
			e, err := New(Config{Shards: 4, NumFlows: 64, NumSegments: 2048, StoreData: true})
			if err != nil {
				t.Fatal(err)
			}
			pkt := make([]byte, 3*queue.SegmentBytes)
			// Backlog before the worker exists.
			for f := uint32(0); f < 16; f++ {
				if _, err := e.EnqueuePacket(f, pkt); err != nil {
					t.Fatal(err)
				}
			}
			sink := newCountingSink(e)
			if err := serveKind(e, 0, kind, sink); err != nil {
				t.Fatal(err)
			}
			waitUntil(t, 5*time.Second, "backlog delivery", func() bool { return sink.count() == 16 })
			// Live traffic must wake the parked worker.
			for f := uint32(16); f < 32; f++ {
				if _, err := e.EnqueuePacket(f, pkt); err != nil {
					t.Fatal(err)
				}
			}
			waitUntil(t, 5*time.Second, "live delivery", func() bool { return sink.count() == 32 })
			st := e.Stats()
			if st.TransmittedPackets != 32 || st.TransmittedPackets != st.DequeuedPackets {
				t.Fatalf("transmitted %d / dequeued %d, want 32/32", st.TransmittedPackets, st.DequeuedPackets)
			}
			if st.TransmittedBytes != 32*uint64(len(pkt)) {
				t.Fatalf("transmitted %d bytes, want %d", st.TransmittedBytes, 32*len(pkt))
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			checkSettled(t, e, kind)
		})
	}
}

func TestMultiPortPartition(t *testing.T) {
	for _, datapath := range []string{"sync", "ring"} {
		t.Run(datapath, func(t *testing.T) {
			const ports = 4
			const flows = 64
			e, err := New(Config{Shards: 4, NumFlows: flows, NumSegments: 4096, StoreData: true, NumPorts: ports})
			if err != nil {
				t.Fatal(err)
			}
			for f := uint32(0); f < flows; f++ {
				if err := e.SetFlowPort(f, int(f)%ports); err != nil {
					t.Fatal(err)
				}
			}
			if datapath == "ring" {
				if err := e.Start(); err != nil {
					t.Fatal(err)
				}
			}
			sinks := make([]*countingSink, ports)
			for p := 0; p < ports; p++ {
				sinks[p] = newCountingSink(e)
				if err := e.Serve(p, sinks[p]); err != nil {
					t.Fatal(err)
				}
			}
			pkt := make([]byte, queue.SegmentBytes)
			const per = 8
			for i := 0; i < per; i++ {
				for f := uint32(0); f < flows; f++ {
					if _, err := e.EnqueuePacket(f, pkt); err != nil {
						t.Fatal(err)
					}
				}
			}
			total := func() int {
				n := 0
				for _, s := range sinks {
					n += s.count()
				}
				return n
			}
			waitUntil(t, 10*time.Second, "all ports drained", func() bool { return total() == flows*per })
			// Strict partition: a port transmitted only its own flows.
			for p, s := range sinks {
				s.mu.Lock()
				for f, n := range s.by {
					if int(f)%ports != p {
						t.Errorf("port %d transmitted flow %d (%d packets) belonging to port %d", p, f, n, int(f)%ports)
					}
				}
				if s.n != flows/ports*per {
					t.Errorf("port %d transmitted %d packets, want %d", p, s.n, flows/ports*per)
				}
				s.mu.Unlock()
			}
			pst := e.PortStats()
			for p := 0; p < ports; p++ {
				if pst[p].TransmittedPackets != uint64(flows/ports*per) {
					t.Errorf("PortStats[%d].TransmittedPackets = %d, want %d", p, pst[p].TransmittedPackets, flows/ports*per)
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestShapedPortPacesDelivery(t *testing.T) {
	for _, kind := range sinkKinds {
		t.Run("sink="+kind, func(t *testing.T) {
			e, err := New(Config{
				Shards: 1, NumFlows: 8, NumSegments: 4096, StoreData: true,
				PortRate: policy.ShaperConfig{RateBytesPerSec: 1 << 20, BurstBytes: 1024}, // 1 MiB/s, 1 KiB burst
			})
			if err != nil {
				t.Fatal(err)
			}
			const pktBytes = 1024
			const packets = 60 // ~60 KiB − 1 KiB burst → ≥ ~57ms at 1 MiB/s
			pkt := make([]byte, pktBytes)
			for i := 0; i < packets; i++ {
				if _, err := e.EnqueuePacket(uint32(i%4), pkt); err != nil {
					t.Fatal(err)
				}
			}
			sink := newCountingSink(e)
			start := time.Now()
			if err := serveKind(e, 0, kind, sink); err != nil {
				t.Fatal(err)
			}
			waitUntil(t, 30*time.Second, "shaped drain", func() bool { return sink.count() == packets })
			elapsed := time.Since(start)
			// The schedule says ~57ms; demand only half to stay robust on loaded
			// CI machines (which can only make it slower, never faster).
			if min := 28 * time.Millisecond; elapsed < min {
				t.Fatalf("shaped port drained %d KiB in %v, want ≥ %v at 1 MiB/s", packets*pktBytes/1024, elapsed, min)
			}
			st := e.Stats()
			if st.Throttled == 0 {
				t.Fatal("shaped drain recorded no throttled waits")
			}
			pst := e.PortStats()[0]
			if pst.RateBytesPerSec != 1<<20 || pst.BurstBytes != 1024 {
				t.Fatalf("shaper config in PortStats = %d/%d", pst.RateBytesPerSec, pst.BurstBytes)
			}
			if pst.ShaperTokens > pst.BurstBytes {
				t.Fatalf("shaper tokens %d above burst %d", pst.ShaperTokens, pst.BurstBytes)
			}
			// The pacing left an inter-departure jitter trace: most of the ~59
			// gaps run on the ~1ms/packet schedule, so the mean sits well above
			// 100µs (a loaded CI machine stretches gaps, never shrinks them) and
			// within the run's own wall clock.
			if pst.GapSamples == 0 || pst.GapSamples >= packets {
				t.Fatalf("shaped drain recorded %d gap samples, want within (0, %d)", pst.GapSamples, packets)
			}
			if pst.MeanGapNs < 100_000 || pst.MeanGapNs > uint64(elapsed.Nanoseconds()) {
				t.Fatalf("mean inter-departure gap %dns, want within [100µs, %v]", pst.MeanGapNs, elapsed)
			}
			if pst.P99GapNs == 0 {
				t.Fatal("paced drain reported a zero p99 inter-departure gap")
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			checkSettled(t, e, kind)
		})
	}
}

// TestUnshapedPortRecordsNoJitter: the jitter meter prices shaper
// pacing; an unshaped port's burst-mode departures must not feed it.
func TestUnshapedPortRecordsNoJitter(t *testing.T) {
	e, err := New(Config{Shards: 1, NumFlows: 8, NumSegments: 512, StoreData: true})
	if err != nil {
		t.Fatal(err)
	}
	sink := newCountingSink(e)
	if err := e.Serve(0, sink); err != nil {
		t.Fatal(err)
	}
	pkt := make([]byte, 256)
	const packets = 32
	for i := 0; i < packets; i++ {
		if _, err := e.EnqueuePacket(uint32(i%4), pkt); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 10*time.Second, "unshaped drain", func() bool { return sink.count() == packets })
	if pst := e.PortStats()[0]; pst.GapSamples != 0 || pst.MeanGapNs != 0 || pst.P99GapNs != 0 {
		t.Fatalf("unshaped port recorded jitter %+v, want none", pst)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPauseHoldsBacklogResumeReleases(t *testing.T) {
	for _, kind := range sinkKinds {
		t.Run("sink="+kind, func(t *testing.T) {
			e, err := New(Config{Shards: 2, NumFlows: 16, NumSegments: 512, StoreData: true})
			if err != nil {
				t.Fatal(err)
			}
			sink := newCountingSink(e)
			if err := serveKind(e, 0, kind, sink); err != nil {
				t.Fatal(err)
			}
			if err := e.Pause(0); err != nil {
				t.Fatal(err)
			}
			if paused, _ := e.Paused(0); !paused {
				t.Fatal("port not reported paused")
			}
			pkt := make([]byte, queue.SegmentBytes)
			for f := uint32(0); f < 8; f++ {
				if _, err := e.EnqueuePacket(f, pkt); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(30 * time.Millisecond)
			if n := sink.count(); n != 0 {
				t.Fatalf("paused port transmitted %d packets", n)
			}
			if st := e.Stats(); st.QueuedSegments != 8 {
				t.Fatalf("paused backlog = %d segments, want 8", st.QueuedSegments)
			}
			if err := e.Resume(0); err != nil {
				t.Fatal(err)
			}
			waitUntil(t, 5*time.Second, "post-resume drain", func() bool { return sink.count() == 8 })
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			checkSettled(t, e, kind)
		})
	}
}

func TestSetFlowPortMovesBacklog(t *testing.T) {
	e, err := New(Config{Shards: 2, NumFlows: 16, NumSegments: 512, StoreData: true, NumPorts: 2})
	if err != nil {
		t.Fatal(err)
	}
	pkt := make([]byte, queue.SegmentBytes)
	for i := 0; i < 4; i++ {
		if _, err := e.EnqueuePacket(5, pkt); err != nil {
			t.Fatal(err)
		}
	}
	if p, err := e.FlowPort(5); err != nil || p != 0 {
		t.Fatalf("FlowPort(5) = (%d, %v), want (0, nil)", p, err)
	}
	// Only port 1 is served: nothing moves while the flow sits on port 0.
	sink := newCountingSink(e)
	if err := e.Serve(1, sink); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if n := sink.count(); n != 0 {
		t.Fatalf("port 1 transmitted %d packets of a port-0 flow", n)
	}
	if err := e.SetFlowPort(5, 1); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "re-homed backlog", func() bool { return sink.count() == 4 })
	if p, _ := e.FlowPort(5); p != 1 {
		t.Fatalf("FlowPort(5) = %d after move, want 1", p)
	}
	pst := e.PortStats()
	if pst[0].ActiveFlows != 0 {
		t.Fatalf("port 0 still reports %d active flows", pst[0].ActiveFlows)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestServeErrorsAndSinkStop(t *testing.T) {
	for _, kind := range sinkKinds {
		t.Run("sink="+kind, func(t *testing.T) {
			e, err := New(Config{Shards: 1, NumFlows: 8, NumSegments: 128, StoreData: true})
			if err != nil {
				t.Fatal(err)
			}
			ok := func(uint32) error { return nil }
			if err := serveFunc(e, 3, kind, ok); err == nil {
				t.Error("out-of-range port accepted")
			}
			if kind == "view" {
				err = e.ServeViews(0, nil)
			} else {
				err = e.Serve(0, nil)
			}
			if err == nil {
				t.Error("nil sink accepted")
			}
			if err := e.SetFlowPort(999, 0); !errors.Is(err, ErrUnknownFlow) {
				t.Errorf("SetFlowPort(999) err = %v, want ErrUnknownFlow", err)
			}
			if err := e.SetFlowPort(0, 7); err == nil {
				t.Error("out-of-range target port accepted")
			}
			if err := e.SetPortRate(0, policy.ShaperConfig{RateBytesPerSec: -1}); err == nil {
				t.Error("invalid shaper config accepted")
			}
			// A sink error stops the worker mid-burst: the erroring packet
			// belongs to the sink, the rest of the picked batch is released (not
			// transmitted), and the port can be served again to finish the job.
			for i := 0; i < 10; i++ {
				if _, err := e.EnqueuePacket(uint32(1+i%4), make([]byte, 8)); err != nil {
					t.Fatal(err)
				}
			}
			var stopped atomic.Bool
			failing := func(uint32) error {
				stopped.Store(true)
				return errors.New("link down")
			}
			if err := serveFunc(e, 0, kind, failing); err != nil {
				t.Fatal(err)
			}
			waitUntil(t, 5*time.Second, "sink error stop", func() bool { return stopped.Load() && !e.ports[0].serving.Load() })
			if tx := e.PortStats()[0].TransmittedPackets; tx != 0 {
				t.Fatalf("failing sink still counted %d transmissions", tx)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("invariants after mid-burst sink failure: %v", err)
			}
			sink2 := newCountingSink(e)
			if err := serveKind(e, 0, kind, sink2); err != nil {
				t.Fatalf("re-Serve after sink stop: %v", err)
			}
			waitUntil(t, 5*time.Second, "remaining backlog", func() bool {
				return e.Stats().QueuedSegments == 0
			})
			if err := serveFunc(e, 0, kind, ok); err == nil {
				t.Error("double Serve accepted")
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if err := serveFunc(e, 0, kind, ok); !errors.Is(err, ErrClosed) {
				t.Errorf("Serve after Close err = %v, want ErrClosed", err)
			}
			checkSettled(t, e, kind)
		})
	}
}

// TestReServeDoesNotCountDowntimeAsGap: the inter-departure jitter meter
// prices pacing, not outages. A shaped port whose sink fails keeps its
// last departure stamp; re-served after a long downtime, its next
// departure must start a fresh gap sequence instead of recording the
// downtime as one gap — through either registration.
func TestReServeDoesNotCountDowntimeAsGap(t *testing.T) {
	for _, kind := range sinkKinds {
		t.Run("sink="+kind, func(t *testing.T) {
			e, err := New(Config{
				Shards: 1, NumFlows: 8, NumSegments: 1024, StoreData: true,
				PortRate: policy.ShaperConfig{RateBytesPerSec: 1 << 20, BurstBytes: 4096}, // ~4 packets per 1ms tick
			})
			if err != nil {
				t.Fatal(err)
			}
			const packets = 40
			const failAfter = 5
			pkt := make([]byte, 256)
			for i := 0; i < packets; i++ {
				if _, err := e.EnqueuePacket(uint32(i%4), pkt); err != nil {
					t.Fatal(err)
				}
			}
			var sent atomic.Int32
			failing := func(uint32) error {
				if sent.Add(1) > failAfter {
					return errors.New("link down")
				}
				return nil
			}
			if err := serveFunc(e, 0, kind, failing); err != nil {
				t.Fatal(err)
			}
			waitUntil(t, 5*time.Second, "sink error stop", func() bool {
				return sent.Load() > failAfter && !e.ports[0].serving.Load()
			})
			const downtime = 200 * time.Millisecond
			time.Sleep(downtime)
			sink := newCountingSink(e)
			if err := serveKind(e, 0, kind, sink); err != nil {
				t.Fatal(err)
			}
			// Shaped service is packet-at-a-time, so the failure cost
			// exactly the erroring packet.
			waitUntil(t, 10*time.Second, "re-served drain", func() bool { return sink.count() == packets-failAfter-1 })
			pst := e.PortStats()[0]
			if pst.GapSamples == 0 {
				t.Fatal("shaped drain recorded no gap samples")
			}
			if pst.P99GapNs >= uint64(downtime) {
				t.Fatalf("p99 inter-departure gap %v after a %v outage: the downtime counted as pacing jitter",
					time.Duration(pst.P99GapNs), downtime)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			checkSettled(t, e, kind)
		})
	}
}

func TestPullAPIDrainsAllPorts(t *testing.T) {
	// The legacy pull path serves every port's flows, rotating.
	e, err := New(Config{Shards: 2, NumFlows: 32, NumSegments: 512, StoreData: true, NumPorts: 3})
	if err != nil {
		t.Fatal(err)
	}
	for f := uint32(0); f < 32; f++ {
		if err := e.SetFlowPort(f, int(f)%3); err != nil {
			t.Fatal(err)
		}
		if _, err := e.EnqueuePacket(f, make([]byte, queue.SegmentBytes)); err != nil {
			t.Fatal(err)
		}
	}
	served := 0
	for {
		batch := e.DequeueNextBatch(7)
		if len(batch) == 0 {
			break
		}
		for _, d := range batch {
			served++
			e.ReleaseBuffer(d.Data)
		}
	}
	if served != 32 {
		t.Fatalf("pull path served %d of 32 packets across 3 ports", served)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPortsConcurrentChurn runs producers, four served ports, runtime
// reconfiguration (pause/resume, reshape, flow re-homing) and both
// datapaths under the race detector, then closes and checks conservation:
// every packet that entered either left through a port or is resident.
func TestPortsConcurrentChurn(t *testing.T) {
	for _, datapath := range []string{"sync", "ring"} {
		t.Run(datapath, func(t *testing.T) {
			for _, kind := range sinkKinds {
				t.Run("sink="+kind, func(t *testing.T) {
					const ports = 4
					const flows = 128
					e, err := New(Config{
						Shards: 4, NumFlows: flows, NumSegments: 2048, StoreData: true,
						NumPorts: ports,
						PortRate: policy.ShaperConfig{RateBytesPerSec: 1 << 28, BurstBytes: 1 << 16},
						Egress:   policy.EgressConfig{Kind: policy.EgressDRR, QuantumBytes: 256},
					})
					if err != nil {
						t.Fatal(err)
					}
					for f := uint32(0); f < flows; f++ {
						if err := e.SetFlowPort(f, int(f)%ports); err != nil {
							t.Fatal(err)
						}
					}
					if datapath == "ring" {
						if err := e.Start(); err != nil {
							t.Fatal(err)
						}
					}
					sinks := make([]*countingSink, ports)
					for p := 0; p < ports; p++ {
						sinks[p] = newCountingSink(e)
						if err := serveKind(e, p, kind, sinks[p]); err != nil {
							t.Fatal(err)
						}
					}
					const producers = 3
					const perProducer = 4000
					var wg sync.WaitGroup
					for p := 0; p < producers; p++ {
						wg.Add(1)
						go func(p int) {
							defer wg.Done()
							pkt := make([]byte, 2*queue.SegmentBytes)
							for i := 0; i < perProducer; i++ {
								f := uint32(p*37+i*11) % flows
								_, err := e.EnqueuePacket(f, pkt)
								if err != nil && !errors.Is(err, queue.ErrNoFreeSegments) {
									t.Errorf("producer: %v", err)
									return
								}
							}
						}(p)
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < 200; i++ {
							p := i % ports
							switch i % 5 {
							case 0:
								_ = e.Pause(p)
							case 1:
								_ = e.Resume(p)
							case 2:
								_ = e.SetPortRate(p, policy.ShaperConfig{RateBytesPerSec: 1 << 30})
							case 3:
								_ = e.SetPortRate(p, policy.ShaperConfig{})
							default:
								f := uint32(i*3) % flows
								_ = e.SetFlowPort(f, (int(f)+1)%ports)
							}
							time.Sleep(100 * time.Microsecond)
						}
						// Leave everything running and unpaused for the drain.
						for p := 0; p < ports; p++ {
							_ = e.Resume(p)
							_ = e.SetPortRate(p, policy.ShaperConfig{})
						}
					}()
					wg.Wait()
					if datapath == "ring" {
						if err := e.Drain(); err != nil {
							t.Fatal(err)
						}
					}
					waitUntil(t, 30*time.Second, "ports to drain the backlog", func() bool {
						st := e.Stats()
						return st.QueuedSegments == 0
					})
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
					st := e.Stats()
					delivered := uint64(0)
					for _, s := range sinks {
						delivered += uint64(s.count())
					}
					if delivered != st.DequeuedPackets || delivered != st.TransmittedPackets {
						t.Fatalf("sinks saw %d packets, engine dequeued %d, transmitted %d",
							delivered, st.DequeuedPackets, st.TransmittedPackets)
					}
					if st.EnqueuedSegments != st.DequeuedSegments {
						t.Fatalf("conservation: enq %d segments != deq %d after full drain",
							st.EnqueuedSegments, st.DequeuedSegments)
					}
					checkSettled(t, e, kind)
				})
			}
		})
	}
}
