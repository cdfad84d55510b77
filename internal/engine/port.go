package engine

// The port-level transmit subsystem. The paper's queue manager feeds
// output ports: its transmission interface drains per-port FIFOs at line
// rate, with the scheduler deciding which flow each port serves next.
// This file is that interface in software. Every flow belongs to exactly
// one port (Config.NumPorts, SetFlowPort; all flows start on port 0),
// each (shard, port) pair owns a two-level scheduling unit (see
// egress.go), and a port served through Serve is driven by its home
// shard's pacer goroutine (see pacer.go): it picks via the configured
// class and flow disciplines, paces against the port's token-bucket
// shaper (see shaper.go), and pushes packets into the registered sink —
// reassembled buffers for a Sink, zero-copy views for a SinkV, through
// one service loop. That is push-mode delivery with backpressure; the
// DequeueNextBatch pull loop survives as the unported path.
//
// Pause/Resume model link-level flow control (a paused port holds its
// backlog and transmits nothing); SetPortRate reshapes at runtime. An
// idle port drops out of its pacer's structures entirely: the enqueue
// path's setActive re-queues it with one atomic flag check, so an idle
// port costs nothing per packet elsewhere and nothing while idle.

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"npqm/internal/policy"
)

// MaxPorts bounds Config.NumPorts: per-port scheduling state is allocated
// per shard, so the port space is a configuration constant, not a dynamic
// resource.
const MaxPorts = 4096

// Sink consumes the packets a served port transmits. Transmit may block —
// that is the backpressure path; the pacer will not pick another packet
// for this port until it returns. Returning a non-nil error stops the
// port's service (the port can be Served again). Transmit always runs on
// the port's home pacer goroutine, never concurrently with itself; note
// that a Transmit that blocks indefinitely also stalls the other ports
// homed to the same pacer.
type Sink interface {
	Transmit(d Dequeued) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(d Dequeued) error

// Transmit implements Sink.
func (f SinkFunc) Transmit(d Dequeued) error { return f(d) }

// sinkBox wraps a port's consumer for atomic publication (atomic.Pointer
// needs a concrete pointed-to type; the interfaces themselves are two
// words). Exactly one of the two fields is set — sink by Serve, sinkV by
// ServeViews. The pacer's one service loop takes its view flag from it
// and branches on it only to deliver (see pacer.deliver).
type sinkBox struct {
	sink  Sink
	sinkV SinkV
}

// port is one output port: shaper, pacer handoff state, and transmit
// counters. The scheduling state lives in the shards (one portSched per
// (shard, port) pair); the service loop lives in the port's home pacer.
type port struct {
	idx int
	sh  *shaper
	pc  *pacer // home pacer; all service for this port runs there

	shardCursor uint32 // rotating start shard; only the home pacer touches it

	// Control words, padded off the read-only header: idle is loaded by
	// every enqueue-path notify (and CASed when set), so it must not share
	// a line with fields the pacer reads per packet. layout_test.go pins
	// the distances.
	_       [hotPad]byte
	paused  atomic.Bool
	serving atomic.Bool             // Serve registered a sink; cleared on error/close
	idle    atomic.Bool             // dropped from the pacer awaiting traffic
	sink    atomic.Pointer[sinkBox] // current sink; replaced by each Serve

	// Transmit counters: written per packet by the home pacer, read by
	// PortStats/Stats. Separated from the producer-CASed control words
	// above and from the next heap neighbour below.
	_         [hotPad]byte
	txPackets atomic.Uint64
	txBytes   atomic.Uint64
	throttled atomic.Uint64 // times the port parked on the shaper wheel

	// Inter-departure jitter, tracked for shaped ports only: the pacer
	// stamps every transmit and the gap to the previous one feeds a sum
	// (for the mean) and a log2 histogram (for the p99), so PortStats
	// can report how tightly the wheel tracks the configured rate.
	// txLastNs == 0 means no previous departure — reset on idle park and
	// on Serve, so idle spells don't count as pacing jitter.
	txLastNs atomic.Int64
	gapCount atomic.Uint64
	gapSumNs atomic.Uint64
	gapHist  [gapBuckets]atomic.Uint64
	_        [hotPad]byte
}

// gapBuckets sizes the log2 inter-departure histogram: bucket b counts
// gaps whose bit length is b (gap ∈ [2^(b-1), 2^b) ns), so the top
// bucket absorbs everything from ~9 minutes up.
const gapBuckets = 40

// noteDeparture records one shaped transmit at now (UnixNano). Called
// only from the port's home pacer; the fields are atomics because
// PortStats reads them cross-goroutine.
func (p *port) noteDeparture(now int64) {
	last := p.txLastNs.Load()
	p.txLastNs.Store(now)
	if last == 0 {
		return
	}
	gap := now - last
	if gap < 0 {
		gap = 0
	}
	p.gapCount.Add(1)
	p.gapSumNs.Add(uint64(gap))
	b := bits.Len64(uint64(gap))
	if b >= gapBuckets {
		b = gapBuckets - 1
	}
	p.gapHist[b].Add(1)
}

// gapStats summarizes the recorded inter-departure gaps: sample count,
// mean, and the p99 read off the log2 histogram (reported as the upper
// bound of the bucket the 99th percentile lands in, so it is exact to a
// factor of two).
func (p *port) gapStats() (samples, meanNs, p99Ns uint64) {
	samples = p.gapCount.Load()
	if samples == 0 {
		return
	}
	meanNs = p.gapSumNs.Load() / samples
	target := (samples*99 + 99) / 100
	var cum uint64
	for b := 0; b < gapBuckets; b++ {
		cum += p.gapHist[b].Load()
		if cum >= target {
			p99Ns = (uint64(1) << b) - 1
			return
		}
	}
	p99Ns = (uint64(1) << (gapBuckets - 1)) - 1
	return
}

// notify re-queues the port on its home pacer if (and only if) it went
// idle. Called from setActive inside shard critical sections, so the
// not-serving and port-busy cases must stay one atomic load: a CAS would
// be a locked read-modify-write on a word every shard's activations share
// (all flows start on port 0), so it runs only once the load reads idle.
func (p *port) notify() {
	if p.idle.Load() && p.idle.CompareAndSwap(true, false) {
		p.pc.enqueue(int32(p.idx))
	}
}

// kick queues the port for pacer attention unconditionally (Serve/Pause/
// Resume/SetPortRate/SetFlowPort): a parked or waiting port re-evaluates;
// for a runnable one the pacer de-duplicates — harmless.
func (p *port) kick() {
	p.pc.enqueue(int32(p.idx))
}

// portAt validates a port index.
func (e *Engine) portAt(port int) (*port, error) {
	if port < 0 || port >= len(e.ports) {
		return nil, fmt.Errorf("engine: port %d out of range [0, %d)", port, len(e.ports))
	}
	return e.ports[port], nil
}

// NumPorts returns the configured output-port count.
func (e *Engine) NumPorts() int { return len(e.ports) }

// SetFlowPort moves flow onto port (all flows start on port 0). A
// backlogged flow moves with its queue: its scheduling membership
// transfers to the new port's unit under its current class, any open
// visit on the old port ends, and banked DRR deficit is forfeited
// exactly as if the flow had drained. Safe while traffic flows; per-flow
// FIFO is unaffected (the flow's shard does not change).
func (e *Engine) SetFlowPort(flow uint32, port int) error {
	p, err := e.portAt(port)
	if err != nil {
		return err
	}
	if int64(flow) >= int64(e.cfg.NumFlows) {
		return ErrUnknownFlow
	}
	s := e.shardOf(flow)
	e.run(s, func() {
		if s.portOf(flow) == port {
			return
		}
		active := s.isActive(flow)
		if active {
			s.clearActive(flow)
		}
		s.flows[flow].port = int32(port)
		if active {
			s.setActive(flow)
		}
	})
	p.kick()
	return nil
}

// FlowPort returns the port flow is currently mapped to.
func (e *Engine) FlowPort(flow uint32) (int, error) {
	if int64(flow) >= int64(e.cfg.NumFlows) {
		return 0, ErrUnknownFlow
	}
	s := e.shardOf(flow)
	var port int
	e.run(s, func() { port = s.portOf(flow) })
	return port, nil
}

// SetPortRate reshapes port at runtime: rate 0 removes shaping, a
// positive rate installs a freshly filled bucket (burst defaulting per
// policy.ShaperConfig). Safe while the port transmits.
func (e *Engine) SetPortRate(port int, cfg policy.ShaperConfig) error {
	p, err := e.portAt(port)
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	p.sh.configure(cfg, time.Now())
	p.kick()
	return nil
}

// Pause stops port's transmission: it drops out of its pacer's rotation,
// its backlog holds. Packets keep accumulating on the port's flows
// (admission still applies). Idempotent.
func (e *Engine) Pause(port int) error {
	p, err := e.portAt(port)
	if err != nil {
		return err
	}
	p.paused.Store(true)
	p.kick()
	return nil
}

// Resume reverses Pause. Idempotent.
func (e *Engine) Resume(port int) error {
	p, err := e.portAt(port)
	if err != nil {
		return err
	}
	p.paused.Store(false)
	p.kick()
	return nil
}

// Paused reports whether port is paused.
func (e *Engine) Paused(port int) (bool, error) {
	p, err := e.portAt(port)
	if err != nil {
		return false, err
	}
	return p.paused.Load(), nil
}

// Serve registers sink as port's transmitter and hands the port to its
// home shard's pacer (starting that pacer's goroutine on first use): the
// pacer picks packets via the configured disciplines, paces them against
// the port's shaper on its timing wheel, and pushes them into sink as
// reassembled buffers until the engine closes or sink returns an error.
// On a sink error, packets already picked for the current burst are
// released — counted as dequeued but not transmitted, like frames lost on
// a failing link — and the port stops until it is served again. One
// service per port; a second Serve or ServeViews on a live port fails.
// Serving any number of ports costs one goroutine per shard, not one per
// port. ServeViews is the same service with zero-copy views.
func (e *Engine) Serve(port int, sink Sink) error {
	if sink == nil {
		return fmt.Errorf("engine: nil sink for port %d", port)
	}
	return e.serve(port, &sinkBox{sink: sink})
}

// serve is the one registration behind Serve and ServeViews.
func (e *Engine) serve(port int, box *sinkBox) error {
	p, err := e.portAt(port)
	if err != nil {
		return err
	}
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	if e.mode.Load() == modeClosed {
		return ErrClosed
	}
	if !p.serving.CompareAndSwap(false, true) {
		return fmt.Errorf("engine: port %d is already being served", port)
	}
	p.sink.Store(box)
	p.txLastNs.Store(0) // a re-serve must not count downtime as a gap
	p.pc.start()
	p.kick()
	return nil
}

// unshapedBatch is how many packets an unshaped port's service round
// picks at most — the same burst the pull loops use, so push-mode
// delivery pays the same per-shard amortization as DequeueNextBatch.
const unshapedBatch = 64

// PortStat is one port's slice of the transmit-side statistics.
type PortStat struct {
	Port               int
	TransmittedPackets uint64
	TransmittedBytes   uint64
	Throttled          uint64 // shaper waits (wheel parks awaiting tokens)
	Paused             bool
	Serving            bool
	ActiveFlows        int   // flows with backlog mapped to this port
	RateBytesPerSec    int64 // 0 = unshaped
	BurstBytes         int64
	ShaperTokens       int64 // current bucket credit; negative = in debt

	// Inter-departure jitter, measured for shaped ports only (idle
	// spells excluded): how tightly the timing wheel tracks the
	// configured rate. P99 is read off a log2 histogram, so it is exact
	// to a factor of two.
	GapSamples uint64
	MeanGapNs  uint64
	P99GapNs   uint64
}

// PortStats returns one entry per port. Counters are cumulative since
// New; the active-flow column is snapshotted per shard (consistent per
// shard, not a global cut).
func (e *Engine) PortStats() []PortStat {
	out := make([]PortStat, len(e.ports))
	now := time.Now()
	for i, p := range e.ports {
		rate, burst, tokens := p.sh.occupancy(now)
		samples, mean, p99 := p.gapStats()
		out[i] = PortStat{
			Port:               i,
			TransmittedPackets: p.txPackets.Load(),
			TransmittedBytes:   p.txBytes.Load(),
			Throttled:          p.throttled.Load(),
			Paused:             p.paused.Load(),
			Serving:            p.serving.Load(),
			RateBytesPerSec:    rate,
			BurstBytes:         burst,
			ShaperTokens:       tokens,
			GapSamples:         samples,
			MeanGapNs:          mean,
			P99GapNs:           p99,
		}
	}
	for _, s := range e.shards {
		s := s
		e.run(s, func() {
			for i := range out {
				out[i].ActiveFlows += s.ps[i].activeFlows
			}
		})
	}
	return out
}
