package engine

import (
	"errors"
)

// This file implements the batched command path. A network processor never
// handles one packet at a time: the dispatch loop pulls a burst from the
// receive ring and issues the whole burst at once. Batching matters to the
// sharded engine for the same reason hardware pipelining matters to the
// MMS — the fixed per-command overhead is paid once per shard per burst
// instead of once per packet: one command per shard touched, executed
// under one mutex acquisition on the synchronous datapath, or posted under
// one shared completion on the ring datapath, so a 64-packet burst costs
// the producer a handful of ring slots and a single wakeup.

// EnqueueReq is one packet of an EnqueueBatch.
type EnqueueReq struct {
	Flow uint32
	Data []byte
}

// errBatchRetry marks a batch slot its shard deliberately left unprocessed
// (a stop-the-bucket condition was hit earlier in the same bucket); the
// caller replays those slots in order through the per-packet path. Never
// escapes to callers.
var errBatchRetry = errors.New("engine: batch slot deferred to per-packet path")

// add files request i under its flow's shard, so each shard is entered
// once per batch.
func (f *fanout) add(e *Engine, flow uint32, i int) {
	p := &f.parts[e.ShardOf(flow)]
	p.idxs = append(p.idxs, int32(i))
	p.want++
}

// EnqueueBatch enqueues every request in batch, bucketing by shard and
// entering each shard once. A nil errs means every packet was accepted;
// otherwise errs is aligned with the batch and errs[i] is nil when batch[i]
// was accepted. Relative order of packets on the same flow is preserved, so
// per-flow FIFO holds across batches too. It returns the total number of
// segments linked.
//
// The all-accepted path performs no allocation: outcomes are recorded in a
// pooled scratch that is recycled when it comes back clean and handed to
// the caller (replaced lazily) when it does not.
//
// When an LQD arrival needs push-out eviction (or the pool's free segments
// are stranded in other shards' caches) the rest of that shard's bucket
// degrades to the per-packet path: eviction must run outside the shard's
// critical section (the victim may live on another shard), and processing
// later same-flow packets inline would break per-flow FIFO.
func (e *Engine) EnqueueBatch(batch []EnqueueReq) (segments int, errs []error) {
	if len(batch) == 0 {
		return 0, nil
	}
	f := e.getFanout()
	if cap(f.errBufs) < len(batch) {
		f.errBufs = make([]error, len(batch))
	}
	errs = f.errBufs[:len(batch)]
	f.reqs, f.errs = batch, errs
	for i := range batch {
		f.add(e, batch[i].Flow, i)
	}
	e.fanOut(f, &command{kind: opEnqueue})
	failed := false
	for i := range f.parts {
		segments += f.parts[i].segs
	}
	for i, err := range errs {
		if err == errBatchRetry { //nolint:errorlint // internal sentinel, never wrapped
			// EnqueuePacket runs the eviction or flush orchestration.
			var n int
			n, err = e.EnqueuePacket(batch[i].Flow, batch[i].Data)
			errs[i] = err
			if err == nil {
				segments += n
			}
		}
		failed = failed || err != nil
	}
	if failed {
		// The scratch escapes to the caller; drop it from the pool so the
		// recycled scratch invariant (all slots nil) holds.
		f.errBufs = nil
	} else {
		errs = nil
	}
	e.putFanout(f)
	return segments, errs
}

// DequeueBatch dequeues the head packet of every listed flow, bucketing by
// shard. Results are aligned with flows: pkts[i] is the reassembled
// payload (from the engine's buffer pool — ReleaseBuffer it when done) and
// errs[i] is nil on success. A flow listed twice yields its first two
// packets in order.
func (e *Engine) DequeueBatch(flows []uint32) (pkts [][]byte, errs []error) {
	if len(flows) == 0 {
		return nil, nil
	}
	pkts = make([][]byte, len(flows))
	errs = e.dequeueBatch(flows, pkts, nil)
	return pkts, errs
}

// dequeueBatch is the shared body of DequeueBatch and DequeueViewBatch:
// one opDequeue command per touched shard, filling pkts (copy delivery)
// or views (view delivery) and the returned errs in place.
func (e *Engine) dequeueBatch(flows []uint32, pkts [][]byte, views []PacketView) []error {
	errs := make([]error, len(flows))
	f := e.getFanout()
	f.flows, f.pkts, f.views, f.errs = flows, pkts, views, errs
	for i, flow := range flows {
		f.add(e, flow, i)
	}
	e.fanOut(f, &command{kind: opDequeue, view: views != nil})
	e.putFanout(f)
	return errs
}
