package engine

import (
	"fmt"

	"npqm/internal/queue"
	"npqm/internal/sched"
	"npqm/internal/stats"
)

// Stats is an aggregate snapshot of engine activity and occupancy across
// all shards. Counters are cumulative since New.
type Stats struct {
	Shards int

	// Traffic counters.
	EnqueuedPackets  uint64
	EnqueuedSegments uint64
	DequeuedPackets  uint64
	DequeuedSegments uint64
	Rejected         uint64 // enqueues refused (pool exhausted or flow capped)

	// Policy counters. Dropped arrivals were refused by the admission
	// policy and never buffered; pushed-out packets were buffered and then
	// evicted (LQD push-out), so conservation reads
	// EnqueuedSegments = DequeuedSegments + PushedOutSegments + QueuedSegments.
	DroppedPackets    uint64
	DroppedSegments   uint64
	PushedOutPackets  uint64
	PushedOutSegments uint64

	// Transmit side (ports served through Serve). Packets delivered by
	// port workers are also counted in DequeuedPackets/Segments — the
	// transmit counters slice that total by delivery path and add the
	// pacing signal. See PortStats for the per-port breakdown.
	TransmittedPackets uint64
	TransmittedBytes   uint64
	Throttled          uint64 // pacer parks waiting for shaper tokens

	// CopiedBytes counts payload bytes that crossed a copying datapath:
	// buffer-based enqueues copy in, buffer-based dequeues copy out, and
	// each charges the bytes it copied. The zero-copy paths — view
	// delivery and write-in-place ingest — never add to it, so a
	// deployment that has fully converted sees this counter stand still
	// while traffic flows. Always zero when data storage is off.
	CopiedBytes uint64

	// CoalescedWakes counts wakeups merged away instead of delivered: ring
	// completion decrements folded into one per-drain flush (see
	// execBatch) plus pacer notifies absorbed by an already-pending wake.
	// High values mean the signaling fabric is doing its job — producers
	// and pacers are being spared cross-core channel operations.
	CoalescedWakes uint64

	// Occupancy.
	FreeSegments   int   // shared-pool free population (depot + caches)
	QueuedSegments int   // segments currently linked into flow queues
	LentSegments   int   // segments checked out in views and open reservations
	BufferedBytes  int64 // payload bytes across all queued segments
	ActiveFlows    int   // flows with at least one queued segment

	// Residence-time sampling (zero unless Config.ResidenceSample > 0):
	// enqueue→dequeue times of sampled packets, in nanoseconds, merged
	// across shards. Quantiles are bucket upper bounds (25µs buckets
	// spanning ~205ms — see residence.go); samples beyond the span report
	// the exact observed maximum.
	ResidenceSamples uint64
	ResidenceP50Ns   float64
	ResidenceP99Ns   float64
	ResidenceMaxNs   float64
}

// ShardStat is the per-shard slice of Stats, for load-balance inspection.
// Segment memory is shared (there is no per-shard pool), so the occupancy
// columns report what this shard's queues hold of the common pool.
type ShardStat struct {
	Shard            int
	EnqueuedPackets  uint64
	DequeuedPackets  uint64
	Rejected         uint64
	DroppedPackets   uint64
	PushedOutPackets uint64
	QueuedSegments   int // segments this shard's queues hold
	BufferedBytes    int64
	ActiveFlows      int

	// Ring-datapath worker accounting (zero on the synchronous datapath),
	// counted once per drained batch: the worker reads no clock.
	// WorkerCommands counts what the shard's *worker* executed — in
	// work-stealing mode that includes commands it took from siblings'
	// rings, while StolenCommands counts what siblings took from this
	// shard's ring. max(WorkerCommands) / sum(WorkerCommands) is the share
	// of the work a skewed load concentrates on one worker; stealing
	// exists to push that toward 1/shards.
	WorkerCommands uint64
	WorkerParks    uint64 // times this worker found no work and waited for it
	StealBatches   uint64 // batches this worker executed from sibling rings
	StolenCommands uint64 // commands siblings executed from this shard's ring
	CoalescedWakes uint64 // completion decrements merged per-drain on this shard
}

// Stats aggregates counters and occupancy across shards. Each shard is
// snapshotted inside its own critical section (the mutex on the sync
// datapath, the worker on the ring datapath); the result is consistent per
// shard but not a global atomic cut (concurrent traffic may move between
// shards' snapshots), which is the standard trade for not stopping the
// world.
func (e *Engine) Stats() Stats {
	st := Stats{Shards: len(e.shards)}
	// One pooled merge target per snapshot: Histogram.Merge reads its
	// argument without mutating it, so each shard's histogram is folded in
	// directly inside that shard's critical section — no per-shard clone,
	// and no 64KB allocation per Stats call for high-frequency samplers.
	var merged *stats.Histogram
	if e.cfg.ResidenceSample > 0 {
		if v := e.histPool.Get(); v != nil {
			merged = v.(*stats.Histogram)
			merged.Reset()
		} else {
			merged = stats.NewHistogram(resHistBuckets, resHistWidthNs)
		}
		defer e.histPool.Put(merged)
	}
	for _, s := range e.shards {
		s := s
		e.run(s, func() {
			s.m.PublishFree() // exact pool occupancy even under deferral
			st.EnqueuedPackets += s.enqPackets
			st.EnqueuedSegments += s.enqSegments
			st.DequeuedPackets += s.deqPackets
			st.DequeuedSegments += s.deqSegments
			st.Rejected += s.rejected
			st.CopiedBytes += s.copiedBytes
			st.DroppedPackets += s.dropPackets
			st.DroppedSegments += s.dropSegments
			st.PushedOutPackets += s.poPackets
			st.PushedOutSegments += s.poSegments
			st.QueuedSegments += s.m.QueuedSegments()
			st.BufferedBytes += int64(s.m.TotalBuffered())
			st.ActiveFlows += s.activeFlows
			if s.res != nil {
				merged.Merge(s.res.hist)
			}
		})
	}
	for _, p := range e.ports {
		st.TransmittedPackets += p.txPackets.Load()
		st.TransmittedBytes += p.txBytes.Load()
		st.Throttled += p.throttled.Load()
	}
	for _, s := range e.shards {
		st.CoalescedWakes += s.coalescedWakes.Load()
	}
	for _, pc := range e.pacers {
		st.CoalescedWakes += pc.coalesced.Load()
	}
	if merged != nil {
		st.ResidenceSamples = merged.N()
		if st.ResidenceSamples > 0 {
			st.ResidenceP50Ns = merged.Quantile(0.50)
			st.ResidenceP99Ns = merged.Quantile(0.99)
			st.ResidenceMaxNs = merged.Max()
		}
	}
	st.FreeSegments = e.store.Free()
	st.LentSegments = e.store.Lent()
	return st
}

// ShardStats returns one entry per shard, for inspecting hash balance.
func (e *Engine) ShardStats() []ShardStat {
	out := make([]ShardStat, len(e.shards))
	for i, s := range e.shards {
		i, s := i, s
		e.run(s, func() {
			out[i] = ShardStat{
				Shard:            i,
				EnqueuedPackets:  s.enqPackets,
				DequeuedPackets:  s.deqPackets,
				Rejected:         s.rejected,
				DroppedPackets:   s.dropPackets,
				PushedOutPackets: s.poPackets,
				QueuedSegments:   s.m.QueuedSegments(),
				BufferedBytes:    int64(s.m.TotalBuffered()),
				ActiveFlows:      s.activeFlows,
			}
		})
		// Worker accounting is atomic — snapshot outside the critical
		// section.
		out[i].WorkerCommands = s.wCmds.Load()
		out[i].WorkerParks = s.wParks.Load()
		out[i].StealBatches = s.wStealBatches.Load()
		out[i].StolenCommands = s.wStolenCmds.Load()
		out[i].CoalescedWakes = s.coalescedWakes.Load()
	}
	return out
}

// ClassStat is one scheduling class's slice of the egress statistics.
type ClassStat struct {
	Class       int
	ActiveFlows int // flows with backlog currently mapped to this class
	Weight      int // class-level WRR/DRR weight
}

// TenantStat is one scheduling tenant's slice of the egress statistics.
type TenantStat struct {
	Tenant      int
	ActiveFlows int // flows with backlog currently mapped to this tenant
	Weight      int // tenant-level WRR/DRR weight
}

// accumTierFlows adds one shard's backlogged-flow counts per unit of
// tier into counts, inside the shard's critical section. When the tier
// is flat (no level of its own) every backlogged flow sits in unit 0.
func accumTierFlows(s *shard, tier int, counts []int) {
	li := -1
	for k := range s.eg.levels {
		if int(s.eg.levels[k].tier) == tier {
			li = k
		}
	}
	if li < 0 {
		for p := range s.ps {
			counts[0] += s.ps[p].activeFlows
		}
		return
	}
	// Flows hang off the innermost level's nodes; a node's unit in the
	// queried tier is recovered from its composite index by stripping
	// the inner tiers' strides.
	stride := int32(1)
	for k := li + 1; k < len(s.eg.levels); k++ {
		stride *= s.eg.levels[k].mod
	}
	mod := s.eg.levels[li].mod
	for p := range s.ps {
		ps := &s.ps[p]
		if !ps.st.Ready() || ps.activeFlows == 0 {
			continue
		}
		last := ps.st.Depth() - 1
		for idx := 0; idx < ps.st.Width(last); idx++ {
			if n := ps.st.Child(last, int32(idx)).Count(); n > 0 {
				counts[(int32(idx)/stride)%mod] += n
			}
		}
	}
}

// tierStats collects per-unit backlog and weights for one tier.
func (e *Engine) tierStats(tier int) ([]int, []int) {
	units := int(e.tierUnits[tier])
	counts := make([]int, units)
	weights := make([]int, units)
	for u := range weights {
		weights[u] = 1
	}
	for si, s := range e.shards {
		si, s := si, s
		e.run(s, func() {
			if si == 0 {
				for u := range weights {
					if w := s.eg.tierWeights[tier][u]; w > 0 {
						weights[u] = int(w)
					}
				}
			}
			accumTierFlows(s, tier, counts)
		})
	}
	return counts, weights
}

// ClassStats returns one entry per scheduling class: how many backlogged
// flows the class holds right now (summed across shards and ports;
// consistent per shard, not a global cut) and its configured weight.
func (e *Engine) ClassStats() []ClassStat {
	counts, weights := e.tierStats(tierClass)
	out := make([]ClassStat, len(counts))
	for c := range out {
		out[c] = ClassStat{Class: c, ActiveFlows: counts[c], Weight: weights[c]}
	}
	return out
}

// TenantStats returns one entry per scheduling tenant: how many
// backlogged flows the tenant holds right now (summed across shards and
// ports; consistent per shard, not a global cut) and its configured
// weight.
func (e *Engine) TenantStats() []TenantStat {
	counts, weights := e.tierStats(tierTenant)
	out := make([]TenantStat, len(counts))
	for t := range out {
		out[t] = TenantStat{Tenant: t, ActiveFlows: counts[t], Weight: weights[t]}
	}
	return out
}

// CheckInvariants validates every shard's queue discipline, the
// two-level active lists, the shared store's free structures, and the engine-wide
// conservation laws: free + queued + floating + lent equals the configured
// pool (lent counts segments checked out in packet views and open
// write-in-place reservations), and every enqueued segment was either
// dequeued, pushed out by the admission policy, or is still resident
// (enqueued = dequeued + pushed-out + resident; a view's segments count as
// dequeued from the moment the view is produced, and a reservation's count
// as enqueued only at Commit). Shards are checked one critical section at
// a time, so it is only a consistent global check when the engine is
// quiescent (drained rings included — call Drain first on the ring
// datapath; views released on other goroutines included — their release
// must happen-before the check).
func (e *Engine) CheckInvariants() error {
	var enq, deq, pushed uint64
	queued, floating := 0, 0
	for i, s := range e.shards {
		i, s := i, s
		var err error
		e.run(s, func() {
			s.m.PublishFree()
			err = s.m.CheckInvariants()
			if err == nil {
				err = e.checkActiveLocked(s, i)
			}
			enq += s.enqSegments
			deq += s.deqSegments
			pushed += s.poSegments
			queued += s.m.QueuedSegments()
			floating += s.m.Floating()
		})
		if err != nil {
			return err
		}
	}
	if err := e.store.CheckInvariants(); err != nil {
		return err
	}
	lent := e.store.Lent()
	if free := e.store.Free(); free+queued+floating+lent != e.cfg.NumSegments {
		return fmt.Errorf("engine: conservation violated: %d free + %d queued + %d floating + %d lent != %d",
			free, queued, floating, lent, e.cfg.NumSegments)
	}
	if enq != deq+pushed+uint64(queued) {
		return fmt.Errorf("engine: segment conservation violated: enqueued %d != dequeued %d + pushed-out %d + resident %d",
			enq, deq, pushed, queued)
	}
	return nil
}

// checkActiveLocked validates the shard's level-stack active lists
// against the queue table, inside the shard's critical section: a flow
// owned by this shard is linked into exactly one scheduling unit's
// innermost rotation iff it has backlog, every linked node holds
// backlogged descendants, every rotation at every level is a
// well-formed circular ring (walking Count steps closes the cycle with
// prev mirroring next), nodes sit only under their own parent, and
// every per-port counter matches what its lists actually hold — which
// together leave no room for a flow linked under a foreign port, tenant
// or class.
func (e *Engine) checkActiveLocked(s *shard, shardIdx int) error {
	count := 0
	for q := 0; q < s.m.NumQueues(); q++ {
		if e.ShardOf(uint32(q)) != shardIdx {
			// The flow table is engine-wide: this entry belongs to another
			// shard's critical section and queue manager.
			continue
		}
		n, err := s.m.Len(queue.QueueID(q))
		if err != nil {
			return err
		}
		if linked := s.isActive(uint32(q)); linked != (n > 0) {
			return fmt.Errorf("engine: shard %d flow %d has %d segments but list membership is %v",
				shardIdx, q, n, linked)
		}
		if n > 0 {
			count++
		}
	}
	if count != s.activeFlows {
		return fmt.Errorf("engine: shard %d lists hold %d flows, counter says %d", shardIdx, count, s.activeFlows)
	}
	perPort := 0
	for p := range s.ps {
		ps := &s.ps[p]
		perPort += ps.activeFlows
		if !ps.st.Ready() {
			if ps.activeFlows != 0 {
				return fmt.Errorf("engine: shard %d port %d counts %d flows with no scheduler state",
					shardIdx, p, ps.activeFlows)
			}
			continue
		}
		flows, err := e.checkStackLocked(s, shardIdx, p, ps)
		if err != nil {
			return err
		}
		if flows != ps.activeFlows {
			return fmt.Errorf("engine: shard %d port %d lists hold %d flows, counter says %d",
				shardIdx, p, flows, ps.activeFlows)
		}
		// Every node, walked or not: linked into its parent's rotation
		// iff its own child rotation holds members.
		for k := 0; k < ps.st.Depth(); k++ {
			for idx := 0; idx < ps.st.Width(k); idx++ {
				on := ps.st.NodeLinked(k, int32(idx))
				if on != (ps.st.Child(k, int32(idx)).Count() > 0) {
					return fmt.Errorf("engine: shard %d port %d level %d node %d linked=%v but holds %d members",
						shardIdx, p, k, idx, on, ps.st.Child(k, int32(idx)).Count())
				}
			}
		}
	}
	if perPort != s.activeFlows {
		return fmt.Errorf("engine: shard %d per-port counters sum to %d, total says %d", shardIdx, perPort, s.activeFlows)
	}
	return nil
}

// checkStackLocked walks one scheduling unit's hierarchy from the root,
// verifying every rotation ring it can reach and returning the number
// of flows linked under the unit. level n (the stack depth) is the flow
// level; parent is the composite index of the node whose child ring is
// being walked (unused at the root).
func (e *Engine) checkStackLocked(s *shard, shardIdx, p int, ps *portSched) (int, error) {
	n := ps.st.Depth()
	var walk func(level int, l *sched.Level, parent int32) (int, error)
	walk = func(level int, l *sched.Level, parent int32) (int, error) {
		cnt := l.Count()
		if cnt == 0 {
			return 0, nil
		}
		var ent sched.Entity
		if level < n {
			ent = ps.st.Ent(level)
		} else {
			ent = s
		}
		total := 0
		id := l.Cursor()
		for i := 0; i < cnt; i++ {
			if level < n {
				if level > 0 && id/s.eg.levels[level].mod != parent {
					return 0, fmt.Errorf("engine: shard %d port %d level %d node %d sits under parent %d, composite index says %d",
						shardIdx, p, level, id, parent, id/s.eg.levels[level].mod)
				}
				sub, err := walk(level+1, ps.st.Child(level, id), id)
				if err != nil {
					return 0, err
				}
				if sub == 0 {
					return 0, fmt.Errorf("engine: shard %d port %d level %d node %d is linked but holds no flows",
						shardIdx, p, level, id)
				}
				total += sub
			} else {
				fs := &s.flows[id]
				if int(fs.port) != p {
					return 0, fmt.Errorf("engine: shard %d flow %d sits on port %d's list but maps to port %d",
						shardIdx, id, p, fs.port)
				}
				if n > 0 {
					var pb [numTiers]int32
					if path := s.pathOf(uint32(id), pb[:0]); path[n-1] != parent {
						return 0, fmt.Errorf("engine: shard %d flow %d sits under node %d but maps to tenant %d class %d (node %d)",
							shardIdx, id, parent, fs.tenant, fs.class, path[n-1])
					}
				}
				total++
			}
			next := ent.Next(id)
			if next == sched.None || ent.Prev(next) != id {
				return 0, fmt.Errorf("engine: shard %d port %d level %d ring broken at %d", shardIdx, p, level, id)
			}
			id = next
		}
		if id != l.Cursor() {
			return 0, fmt.Errorf("engine: shard %d port %d level %d ring does not close in %d steps",
				shardIdx, p, level, cnt)
		}
		return total, nil
	}
	return walk(0, ps.st.Root(), sched.None)
}
