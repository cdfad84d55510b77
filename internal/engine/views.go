package engine

// The zero-copy scatter-gather datapath. The paper's queue manager never
// reassembles a packet: transmission is a DMA gather over the 64-byte
// segment chain, and reception writes segments into data memory as they
// arrive. This file is the engine-level rendering of both directions:
//
//   - Delivery: DequeuePacketView / DequeueNextView[Batch] /
//     DequeueViewBatch / ServeViews hand consumers queue.PacketView values
//     — the packet's segment chain checked out of the pool in the lent
//     state, its payload read in place through the view's iterator.
//     Releasing the view returns the whole chain to the store in one bulk
//     operation. No reassembly buffer, no copy, no allocation.
//   - Ingest: ReservePacket opens a write-in-place Reservation — the
//     segment run is allocated and linked up front, the producer fills the
//     per-segment slices (the iovecs a socket reader hands to readv), and
//     Commit splices the chain onto the flow's queue in O(1). On the ring
//     datapath EnqueueAsync and Commit post with no completion: Commit
//     returns once the splice is in the shard's ring (see
//     Reservation.Commit for what it is ordered before). Abort hands the
//     untouched run back in one bulk return.
//
// Reference discipline: every view starts with one reference owned by
// whoever the engine handed it to. Pull-API callers (DequeuePacketView,
// DequeueNextView, the batch paths) own their views and must Release each
// exactly once. Push-mode sinks (ServeViews, served by the same pacer
// loop as Serve) do NOT own the view — the engine drops its reference as
// soon as SendView returns — so a sink that completes transmission
// asynchronously (a NIC-style descriptor ring) must Retain before
// returning and Release on completion. Retain/Release are safe from any
// goroutine; double release panics (see queue.PacketView.Release).
//
// Accounting: segments checked out in views or open reservations are in
// the lent state, counted by Stats.LentSegments and by the conservation
// law CheckInvariants enforces (free + queued + floating + lent == pool).
// A view's segments count as dequeued when the view is produced — inside
// the shard's critical section, so the traffic counters never depend on
// when some other goroutine releases — and a reservation's count as
// enqueued at Commit. None of these paths touch Stats.CopiedBytes.

import (
	"fmt"

	"npqm/internal/queue"
)

// PacketView is a zero-copy dequeued packet; see queue.PacketView for the
// iterator and reference-counting surface. Re-exported so engine callers
// need not import internal/queue.
type PacketView = queue.PacketView

// DequeuedView is one packet served by the view egress paths: the flow it
// was queued on, its payload byte count, and the view over its segment
// chain. The byte count comes from the queue accounting, so it is exact
// even when data storage is off (where the copy path can only estimate
// from the segment count).
type DequeuedView struct {
	Flow  uint32
	Bytes int
	View  PacketView
}

// SinkV consumes the packet views a port served through ServeViews
// transmits — the zero-copy counterpart of Sink. SendView may block (that
// is the backpressure path) and always runs on the port's home pacer
// goroutine, never concurrently with itself. Returning a non-nil error
// stops the port's service, exactly as Sink.Transmit does. The engine
// releases its reference to d.View when SendView returns, success or
// error: a sink that needs the view afterwards must Retain it first.
type SinkV interface {
	SendView(port int, d DequeuedView) error
}

// SinkVFunc adapts a function to the SinkV interface.
type SinkVFunc func(port int, d DequeuedView) error

// SendView implements SinkV.
func (f SinkVFunc) SendView(port int, d DequeuedView) error { return f(port, d) }

// --- delivery: per-flow and egress-picked view dequeues ---

// DequeuePacketView removes the head packet of flow as a zero-copy view.
// The caller owns the returned view and must Release it exactly once; the
// segments stay checked out of the pool (lent) until then. On the ring
// datapath the call blocks until the shard's worker has executed the
// command, like DequeuePacket.
func (e *Engine) DequeuePacketView(flow uint32) (PacketView, error) {
	var r result
	if !e.do(e.shardOf(flow), &command{kind: opDequeue, view: true, flow: flow}, &r) {
		return PacketView{}, ErrClosed
	}
	return r.view, r.err
}

// DequeueNextView serves one packet chosen by the egress discipline as a
// zero-copy view, whichever port it belongs to. ok is false when the
// engine holds no packets. The caller owns the view — Release it when
// done. On the synchronous datapath the call allocates nothing at all:
// the view is a value and there is no reassembly buffer. Idle shards are
// skipped as in DequeueNext.
func (e *Engine) DequeueNextView() (DequeuedView, bool) {
	var r result
	if !e.dequeueNextOne(e.nextStart(), anyPort, true, true, &r) {
		return DequeuedView{}, false
	}
	return DequeuedView{Flow: r.flow, Bytes: r.n, View: r.view}, true
}

// DequeueNextViewBatch serves up to max packets as zero-copy views,
// choosing flows by the configured egress discipline across all ports —
// DequeueNextBatch without the reassembly copies, skipping idle shards
// the same way. The caller owns every returned view and must Release each
// exactly once.
func (e *Engine) DequeueNextViewBatch(max int) []DequeuedView {
	if max <= 0 {
		return nil
	}
	f := e.getFanout()
	e.dequeueNext(f, e.nextStart(), anyPort, max, true)
	_, out := f.appendServed(nil, nil)
	e.putFanout(f)
	return out
}

// ReleaseViews releases every view in ds, returning the chains to the
// pool in one bulk transaction per shard instead of one per packet — the
// batch consumer's settlement call after DequeueNextViewBatch. Views
// still referenced by a Retain are skipped exactly as individual Release
// calls would skip them. Each entry's view is cleared, so re-running the
// slice cannot double-release (Flow and Bytes stay readable).
func (e *Engine) ReleaseViews(ds []DequeuedView) {
	var r queue.ViewReleaser
	for i := range ds {
		r.Add(ds[i].View)
		ds[i].View = queue.PacketView{}
	}
	r.Flush()
}

// DequeueViewBatch dequeues the head packet of every listed flow as a
// zero-copy view, bucketing by shard — DequeueBatch without the
// reassembly copies. Results are aligned with flows: views[i] is valid
// exactly when errs[i] is nil, and the caller must Release each valid
// view exactly once. A flow listed twice yields its first two packets in
// order.
func (e *Engine) DequeueViewBatch(flows []uint32) (views []PacketView, errs []error) {
	if len(flows) == 0 {
		return nil, nil
	}
	views = make([]PacketView, len(flows))
	errs = e.dequeueBatch(flows, nil, views)
	return views, errs
}

// --- delivery: push mode ---

// ServeViews registers sink as port's zero-copy transmitter — Serve with
// packet views instead of reassembled buffers, through the same pacer
// loop and under the same rules. The engine drops its reference to each
// view as SendView returns; asynchronous sinks Retain first.
func (e *Engine) ServeViews(port int, sink SinkV) error {
	if sink == nil {
		return fmt.Errorf("engine: nil view sink for port %d", port)
	}
	return e.serve(port, &sinkBox{sinkV: sink})
}

// --- ingest: write-in-place reservations ---

// Reservation is an open write-in-place ingest on the engine: a
// pre-linked, pre-sized segment run the producer fills through Range
// before Commit splices it onto the flow's queue — no staging buffer, no
// copy. The zero value is terminal. A reservation must end in exactly one
// Commit or Abort; later terminal calls return queue.ErrWriterDone.
// Reservations are single-goroutine values (the producer that opened one
// fills and settles it); Abort alone is safe from any goroutine.
type Reservation struct {
	e    *Engine
	s    *shard
	flow uint32
	w    queue.PacketWriter
}

// Valid reports whether the reservation is still open.
func (r *Reservation) Valid() bool { return r.e != nil }

// Flow returns the destination flow.
func (r *Reservation) Flow() uint32 { return r.flow }

// Len returns the reserved payload length in bytes.
func (r *Reservation) Len() int { return r.w.Len() }

// Segments returns the number of reserved segments.
func (r *Reservation) Segments() int { return r.w.Segments() }

// Range calls fn with each reserved segment's writable payload slice in
// packet order, stopping early if fn returns false — the iovecs a socket
// reader hands to readv. See queue.PacketWriter.Range.
func (r *Reservation) Range(fn func(seg []byte) bool) { r.w.Range(fn) }

// ReservePacket opens an n-byte write-in-place reservation on flow: the
// segment run is allocated, linked and charged against admission now, and
// the packet joins the queue when the producer calls Commit on the
// returned Reservation (Abort returns the run untouched). Admission
// behaves exactly as EnqueuePacket's: a policy refusal returns
// ErrAdmissionDrop, and under LQD the arrival may evict packets from the
// globally longest queue to make room. The payload is never copied and
// Stats.CopiedBytes does not move.
func (e *Engine) ReservePacket(flow uint32, n int) (Reservation, error) {
	s := e.shardOf(flow)
	need := (n + queue.SegmentBytes - 1) / queue.SegmentBytes
	var r result
	if err := e.ingest(s, &command{kind: opReserve, flow: flow, arg: n}, need, &r); err != nil {
		return Reservation{}, err
	}
	return Reservation{e: e, s: s, flow: flow, w: r.w}, nil
}

// reserveLocked runs admission then the manager reservation, inside s's
// critical section — enqueueLocked with the payload copy replaced by a
// checked-out run. No traffic counters move here: the packet counts as
// enqueued at Commit, and a manager refusal counts as rejected exactly
// like a refused enqueue.
func (s *shard) reserveLocked(flow uint32, n int) (queue.PacketWriter, error) {
	if s.adm != nil && n > 0 {
		need := (n + queue.SegmentBytes - 1) / queue.SegmentBytes
		if err := s.admitNeedLocked(flow, need); err != nil {
			return queue.PacketWriter{}, err
		}
	}
	w, err := s.m.ReservePacket(queue.QueueID(flow), n)
	if err != nil {
		s.rejected++
	}
	return w, err
}

// commitLocked splices a filled reservation inside s's critical section
// and settles the enqueue-side bookkeeping the reservation deferred.
func (s *shard) commitLocked(flow uint32, w *queue.PacketWriter) error {
	segs := w.Segments()
	if err := w.Commit(); err != nil {
		return err
	}
	s.enqPackets++
	s.enqSegments += uint64(segs)
	s.setActive(flow)
	s.noteEnqueueRes(flow)
	return nil
}

// Commit splices the filled run onto the flow's queue. After a successful
// Commit the reservation is terminal. Committing on a closed engine
// returns ErrClosed with the reservation still open; Abort (which needs no
// datapath) then returns the segments.
//
// On the ring datapath Commit posts the splice to the shard's worker and
// returns without waiting: the splice cannot fail on an open reservation,
// so there is no outcome to wait for. Each shard's ring is FIFO, so the
// packet is visible to every command that reaches the shard after Commit
// returns, from any goroutine: dequeues and egress batches, Len, Stats,
// CheckInvariants, Drain and Close (Close drains every accepted command,
// so no commit is lost). Only the lock-free gauges — LentSegments,
// FreeSegments, RingOccupancy — may lag until the worker runs the splice.
// Pulls skipping idle shards (shard.idle) keep this: the ring accepted
// the splice before the pull loads accepted, so executed equals it only
// in a store execBatch made after running the splice; active was stored
// before that, so the pull's active load returns what that batch (or a
// later one) left, and reads 0 only once the packet has left the shard.
// Start publishes active for a sync-datapath backlog before the flip.
func (r *Reservation) Commit() error {
	if r.e == nil {
		return queue.ErrWriterDone
	}
	// The command carries a copy of the writer; the reservation is reset
	// once the ring accepts the copy or the executor has spliced it.
	c := command{kind: opCommit, flow: r.flow, w: r.w}
	if r.e.post(r.s, &c) {
		*r = Reservation{}
		return nil
	}
	var res result
	if !r.e.do(r.s, &c, &res) {
		return ErrClosed
	}
	if res.err == nil {
		*r = Reservation{}
	}
	return res.err
}

// Abort scrubs the reserved run and returns it to the pool without ever
// touching the queue — safe from any goroutine and on any datapath,
// including after Close. The reservation becomes terminal. Nothing is
// counted: the packet never entered the books.
func (r *Reservation) Abort() error {
	if r.e == nil {
		return queue.ErrWriterDone
	}
	err := r.w.Abort()
	*r = Reservation{}
	return err
}

// LentSegments returns the pool-wide lent population: segments checked
// out in packet views and open reservations right now.
func (e *Engine) LentSegments() int { return e.store.Lent() }
