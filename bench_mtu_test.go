package npqm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"npqm/internal/traffic"
)

// BenchmarkEngineMTU sweeps packet size — the dimension the original matrix
// holds fixed at 320 bytes — across the two engine shapes and the two
// delivery modes. Small packets measure fixed per-command overhead;
// 1500-byte packets (24 segments) measure the per-segment path the bulk run
// allocation amortizes; the IMIX mix (64/576/1500 weighted 7:4:1) is the
// realistic blend. Shards and datapath stay fixed (4, sync) so the
// packet-size effect is isolated.
//
//   - shape=sharded is the per-packet round trip of BenchmarkEngineSharded:
//     each iteration enqueues one packet and dequeues it back.
//   - shape=pipeline is the ingress/egress shape of
//     BenchmarkEngineShardedPipeline: producers offer with pool-watermark
//     pacing while two consumers drain, and the headline metric is
//     Mdeliv/s — packets delivered inside the timed window.
//   - delivery=copy is the classic datapath: the engine copies the payload
//     into segments on enqueue and reassembles it into a pooled buffer on
//     dequeue. delivery=view is the zero-copy pipeline: producers reserve
//     segment runs and fill them in place, consumers read segment-chain
//     views and release them — the payload crosses the engine without the
//     engine ever copying a byte.
func BenchmarkEngineMTU(b *testing.B) {
	for _, shape := range []string{"sharded", "pipeline"} {
		for _, size := range []string{"64", "1500", "imix"} {
			for _, delivery := range []string{"copy", "view"} {
				b.Run(fmt.Sprintf("shape=%s/pkt=%s/delivery=%s", shape, size, delivery), func(b *testing.B) {
					mixCfg := traffic.SizeMixConfig{Kind: traffic.MixIMIX}
					if size != "imix" {
						mixCfg.Kind = traffic.MixFixed
						if size == "64" {
							mixCfg.Fixed = 64
						} else {
							mixCfg.Fixed = 1500
						}
					}
					probe, err := traffic.NewSizeMix(mixCfg)
					if err != nil {
						b.Fatal(err)
					}
					payload := make([]byte, probe.Max()) // shared, read-only
					maxSegs := (probe.Max() + 63) / 64
					view := delivery == "view"
					if shape == "sharded" {
						benchMTUSharded(b, mixCfg, payload, view)
						return
					}
					benchMTUPipeline(b, mixCfg, payload, maxSegs, probe.Mean(), view)
				})
			}
		}
	}
}

// benchIngest offers one packet: the copy path's segmenting enqueue, or the
// zero-copy path's reserve → fill-in-place → commit.
func benchIngest(cm *ConcurrentQueueManager, f uint32, pkt []byte, view bool) error {
	if !view {
		_, err := cm.EnqueuePacket(f, pkt)
		return err
	}
	r, err := cm.ReservePacket(f, len(pkt))
	if err != nil {
		return err
	}
	off := 0
	r.Range(func(seg []byte) bool {
		off += copy(seg, pkt[off:])
		return true
	})
	return r.Commit()
}

// BenchmarkEngineMTUIngest is the per-layer benchmark of write-in-place
// ingest on each datapath: one goroutine reserves, fills and commits a
// packet per iteration, and every 64 packets drains them with
// DequeueNextViewBatch + ReleaseViews. On the ring datapath Commit posts
// without waiting, so this isolates what the producer pays per packet for
// the reserve round trip and the commit post. The headline is ns/pkt
// (equal to ns/op here: one packet per iteration, drain included).
func BenchmarkEngineMTUIngest(b *testing.B) {
	for _, datapath := range []string{"sync", "ring"} {
		for _, size := range []int{64, 1500} {
			b.Run(fmt.Sprintf("datapath=%s/pkt=%d", datapath, size), func(b *testing.B) {
				cm, err := NewConcurrentEngine(ConcurrentConfig{
					Flows:    DefaultFlows,
					Segments: 1 << 17,
					Shards:   4,
				})
				if err != nil {
					b.Fatal(err)
				}
				if datapath == "ring" {
					if err := cm.Start(); err != nil {
						b.Fatal(err)
					}
					defer cm.Close()
				}
				const burst = 64
				pkt := make([]byte, size)
				fd := benchFlowDist(b, 1)
				pending := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := benchIngest(cm, fd.Next(), pkt, true); err != nil {
						b.Fatal(err)
					}
					if pending++; pending == burst || i == b.N-1 {
						for pending > 0 {
							out := cm.DequeueNextViewBatch(pending)
							if len(out) == 0 {
								b.Fatalf("%d committed packets not served", pending)
							}
							cm.ReleaseViews(out)
							pending -= len(out)
						}
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/pkt")
			})
		}
	}
}

// benchMTUSharded is the enqueue/dequeue round trip: per-packet cost with
// no cross-goroutine handoff, the closest measure of the per-segment path.
func benchMTUSharded(b *testing.B, mixCfg traffic.SizeMixConfig, payload []byte, view bool) {
	cm, err := NewConcurrentEngine(ConcurrentConfig{
		Flows:    DefaultFlows,
		Segments: 1 << 17,
		Shards:   4,
	})
	if err != nil {
		b.Fatal(err)
	}
	var gid atomic.Uint32
	b.SetParallelism(4)
	b.RunParallel(func(pb *testing.PB) {
		seed := uint64(gid.Add(1))
		fd := benchFlowDist(b, seed)
		mc := mixCfg
		mc.Seed = seed
		mix, err := traffic.NewSizeMix(mc)
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			f := fd.Next()
			pkt := payload[:mix.Next()]
			if err := benchIngest(cm, f, pkt, view); err != nil {
				b.Error(err)
				return
			}
			if view {
				v, err := cm.DequeuePacketView(f)
				if err != nil {
					b.Error(err)
					return
				}
				v.Release()
				continue
			}
			data, err := cm.DequeuePacket(f)
			if err != nil {
				b.Error(err)
				return
			}
			cm.ReleaseBuffer(data)
		}
	})
}

// benchMTUPipeline is the ingress/egress shape: producers offer under
// watermark flow control, two consumers drain, deliveries are counted only
// inside the timed window.
func benchMTUPipeline(b *testing.B, mixCfg traffic.SizeMixConfig, payload []byte, maxSegs int, meanBytes float64, view bool) {
	cm, err := NewConcurrentEngine(ConcurrentConfig{
		Flows:    DefaultFlows,
		Segments: 1 << 17,
		Shards:   4,
	})
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var consWG sync.WaitGroup
	for c := 0; c < 2; c++ {
		consWG.Add(1)
		go func() {
			defer consWG.Done()
			for {
				var served int
				if view {
					out := cm.DequeueNextViewBatch(64)
					cm.ReleaseViews(out)
					served = len(out)
				} else {
					out := cm.DequeueNextBatch(64)
					for _, d := range out {
						cm.ReleaseBuffer(d.Data)
					}
					served = len(out)
				}
				if served == 0 {
					select {
					case <-stop:
						return
					default:
						runtime.Gosched()
					}
				}
			}
		}()
	}
	// Watermark sized to the worst case of every producer posting a full
	// 32-packet pacing window of maximum-size packets.
	lowWater := (1<<17)/8 + runtime.GOMAXPROCS(0)*4*32*maxSegs
	var gid atomic.Uint32
	b.SetParallelism(4)
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		seed := uint64(gid.Add(1))
		fd := benchFlowDist(b, seed)
		mc := mixCfg
		mc.Seed = seed
		mix, err := traffic.NewSizeMix(mc)
		if err != nil {
			b.Error(err)
			return
		}
		pace := 0
		for pb.Next() {
			f := fd.Next()
			pkt := payload[:mix.Next()]
			if pace == 0 {
				for cm.FreeSegments() < lowWater {
					runtime.Gosched()
				}
				pace = 32
			}
			pace--
			for {
				err := benchIngest(cm, f, pkt, view)
				if err == nil {
					break
				}
				if !errors.Is(err, ErrNoFreeSegments) {
					b.Error(err)
					return
				}
				runtime.Gosched() // pool full: wait for the consumers
			}
		}
	})
	elapsed := time.Since(start)
	b.StopTimer()
	close(stop)
	consWG.Wait()
	window := cm.Stats().DequeuedPackets
	for {
		if view {
			out := cm.DequeueNextViewBatch(256)
			if len(out) == 0 {
				break
			}
			cm.ReleaseViews(out)
			continue
		}
		out := cm.DequeueNextBatch(256)
		if len(out) == 0 {
			break
		}
		for _, d := range out {
			cm.ReleaseBuffer(d.Data)
		}
	}
	st := cm.Stats()
	b.ReportMetric(float64(window)/elapsed.Seconds()/1e6, "Mdeliv/s")
	b.ReportMetric(float64(st.DequeuedPackets)/float64(b.N), "deliv/op")
	b.ReportMetric(meanBytes, "B/pkt")
}
