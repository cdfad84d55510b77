// Package engine is the concurrent, sharded queue-manager subsystem: N
// queue.Manager shards drawing from one shared segment store, behind a
// goroutine-safe API with two interchangeable datapaths.
//
// The paper's MMS reaches its 6.1 Gbps by exploiting the independence of
// per-flow state: every command touches one queue's pointers and the shared
// free list, and the hardware pipelines commands because flows do not
// interfere. Software gets the same parallelism by partitioning the flow
// space: flows are hashed onto shards, each shard owns a private Manager,
// and commands for different shards proceed on different cores. Per-flow
// FIFO order is preserved because a flow always maps to the same shard and
// each shard is internally sequential.
//
// Every shard operation is written once, as a command executed inside
// the owning shard's critical section, and reaches the shard through one
// executor (see ring.go). Two datapaths realize that sequencing:
//
//   - Synchronous (the default): the executor runs the command under the
//     owning shard's mutex. Simple, lowest latency when producers are few.
//   - Ring (after Start): the paper's own structure. Producers never touch
//     shard state — they post the same commands into a bounded MPSC ring
//     per shard, exactly as the paper's processing elements post into the
//     MMS command FIFOs, and a per-shard worker goroutine drains its ring
//     in batches, run to completion. The worker is the single writer, so
//     execution takes no mutex; calls that need results wait on pooled
//     completions, while EnqueueAsync is fire-and-forget with outcomes
//     reported through Stats counters.
//
// Segment memory, in both datapaths, is not partitioned — exactly as in the
// paper, where all per-flow queues allocate 64-byte segments from one data
// memory. Every shard allocates from a single segstore.Store through a
// per-shard magazine cache, so shared-buffer admission policies are honest:
// tail-drop, LQD and RED all consult pool-wide occupancy, LQD evicts the
// globally longest queue, and the competitive guarantees stated for one
// global buffer apply. Cross-shard MovePacket is pure pointer relinking on
// the shared slab — no copy, no allocation.
package engine

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"npqm/internal/policy"
	"npqm/internal/queue"
	"npqm/internal/sched"
	"npqm/internal/segstore"
)

// DefaultShards is the shard count used when Config.Shards is zero.
const DefaultShards = 8

// DefaultRingCapacity is the per-shard command-ring capacity used when
// Config.RingCapacity is zero and the ring datapath is started.
const DefaultRingCapacity = 1024

// ErrAdmissionDrop is returned by the enqueue paths when the configured
// admission policy refuses the arrival. The drop is counted in
// Stats.DroppedPackets/DroppedSegments; it is the policy working as
// intended, not a caller error.
var ErrAdmissionDrop = errors.New("engine: packet dropped by admission policy")

// ErrClosed is returned by every datapath call after Close.
var ErrClosed = errors.New("engine: closed")

// ErrUnknownFlow is returned by SetFlowLimit and SetWeight when the flow ID
// lies outside the configured flow space. Like ErrAdmissionDrop it is a
// bare sentinel — classify with errors.Is; it never allocates.
var ErrUnknownFlow = errors.New("engine: unknown flow")

// errWantPushOut is an internal sentinel: the admission policy admitted the
// arrival contingent on push-out eviction, which must run outside the
// arrival shard's critical section (the globally longest queue may live on
// another shard, and shards are never entered nested). The enqueue entry
// points catch it, evict, and retry.
var errWantPushOut = errors.New("engine: admission wants push-out eviction")

// maxEvictAttempts bounds the evict-and-retry loop of an LQD arrival: under
// heavy contention another shard can consume the freed space between the
// eviction and the retry; after this many rounds the arrival is dropped.
const maxEvictAttempts = 8

// maxPooledBufBytes caps the capacity of reassembly buffers kept in the
// engine's pool. A buffer that grew past this (one giant reassembled
// packet) is dropped on ReleaseBuffer instead of pinning its memory forever.
const maxPooledBufBytes = 64 * queue.SegmentBytes

// Datapath modes. The engine starts synchronous, may switch to the ring
// datapath once (Start), and ends closed (Close). Transitions are one-way.
const (
	modeSync int32 = iota
	modeRing
	modeClosed
)

// Config sizes an Engine.
type Config struct {
	// Shards is the number of independent queue.Manager shards. It is
	// rounded up to a power of two; 0 means DefaultShards.
	Shards int
	// NumFlows is the total flow-ID space (0 means queue.DefaultNumQueues,
	// 32K). Every shard accepts the full flow range; the hash decides
	// which shard owns which flow.
	NumFlows int
	// NumSegments is the shared segment pool (required, > 0). All shards
	// allocate from this one pool through per-shard magazine caches, so a
	// single hot flow can consume (nearly) all of it.
	NumSegments int
	// StoreData controls whether payloads are stored (as in queue.Config).
	StoreData bool
	// PerFlowLimit caps every flow at this many segments (0 = uncapped).
	PerFlowLimit int
	// Admission selects the shared-buffer admission policy. The zero value
	// (policy.KindNone) admits everything the pool can hold. Each shard
	// gets a private policy instance consulted inside the shard's critical
	// section; all instances see pool-wide occupancy, so thresholds are
	// fractions of the whole buffer and LQD evicts the globally longest
	// queue.
	Admission policy.Config
	// Egress parameterizes the integrated egress scheduler used by
	// DequeueNextBatch. The zero value is round-robin over active flows;
	// EgressConfig.Levels adds tenant/class scheduling levels above them.
	Egress policy.EgressConfig
	// NumTenants is the tenant count for the outermost scheduling tier
	// (0 or 1 = no tenant level). Shorthand for a round-robin tenant
	// LevelSpec in Egress.Levels; when both are given the unit counts
	// must agree. Flows start in tenant 0, reassignable at runtime with
	// SetFlowTenant.
	NumTenants int
	// NumPorts is the output-port count (0 means 1; at most MaxPorts).
	// Every flow maps to exactly one port — all flows start on port 0,
	// reassignable at runtime with SetFlowPort — and each port is an
	// independent transmit resource: its own scheduling unit per shard,
	// its own shaper, and (via Serve) its own egress worker.
	NumPorts int
	// PortRate is the token-bucket shaper installed on every port at
	// construction (the zero value is unshaped). Individual ports can be
	// reshaped at runtime with SetPortRate.
	PortRate policy.ShaperConfig
	// RingCapacity is the per-shard command-ring depth for the ring
	// datapath (0 means DefaultRingCapacity; rounded up to a power of
	// two). A full ring applies backpressure to producers.
	RingCapacity int
	// ResidenceSample enables residence-time sampling: every Nth packet
	// enqueued on a shard is stamped, and its enqueue→dequeue time lands
	// in the Stats residence histogram. 0 disables sampling (no memory or
	// hot-path cost).
	ResidenceSample int
	// WorkSteal lets ring workers execute commands from a backlogged
	// sibling shard's ring when their own is empty. Shard execution is then
	// serialized by the shard mutex (the owner pays roughly one uncontended
	// lock per drained batch), per-flow FIFO is preserved — pops stay in
	// ring order and are never concurrent — and a zipf-skewed load cannot
	// pin one worker at 100% while the rest idle.
	WorkSteal bool
}

// hotPad separates cross-thread hot words inside engine structs (and from
// their neighbours). Two cache lines, matching internal/ring: adjacent-line
// prefetchers pair 64-byte lines, so 64-byte spacing still false-shares.
// layout_test.go pins the distances.
const hotPad = 128

// shard pairs one single-threaded Manager with its synchronization and
// local counters. On the sync datapath mu guards everything below it; on
// the ring datapath the shard's worker goroutine is the single writer and
// mu is untouched on the hot path. Shards are allocated individually (the
// Engine holds pointers), so their hot state lives on distinct cache lines.
type shard struct {
	mu sync.Mutex
	m  *queue.Manager

	// ring is the shard's command ring, created by Start (nil before).
	ring *cmdRing

	// Cumulative traffic counters.
	enqPackets  uint64
	enqSegments uint64
	deqPackets  uint64
	deqSegments uint64
	rejected    uint64 // enqueues refused (pool exhausted or flow capped)
	copiedBytes uint64 // payload bytes that crossed a copying enqueue or dequeue

	// storeData mirrors Config.StoreData so the copy accounting can run
	// inside shard methods without reaching for the engine.
	storeData bool

	// Policy counters. Dropped arrivals never entered the buffer;
	// pushed-out packets were resident and were evicted, so the
	// conservation law reads enqueued = dequeued + pushed-out + resident.
	dropPackets  uint64 // arrivals refused by the admission policy
	dropSegments uint64
	poPackets    uint64 // resident packets evicted by push-out
	poSegments   uint64

	// Admission policy instance (nil = accept all). admKind/admLimit
	// mirror the config so the tail-drop decision — two integer compares —
	// runs inline without the interface dispatch, which keeps the hot
	// enqueue path within the no-policy budget.
	adm      policy.Admission
	admKind  policy.Kind
	admLimit int

	// Egress state: one scheduling unit (a sched.Stack over the
	// configured tenant/class levels plus the per-unit flow lists) per
	// output port, plus the shard-wide discipline parameters (see
	// egress.go). flows and ports alias engine-wide slices: flowState
	// entries are only touched inside the owning shard's critical
	// section, ports is immutable after New.
	ps          []portSched
	activeFlows int    // total active flows across all ports
	portCursor  uint32 // rotating port for anyPort picks
	flows       []flowState
	ports       []*port
	eg          egressState

	// res samples packet residence times (nil when disabled).
	res *residence

	// Worker accounting and the idle mirrors (see idle), written by the
	// ring datapath once per drained batch and read from any goroutine.
	// Atomics, not plain counters: in work-stealing mode a thief updates
	// this shard's stolen/coalesced words and mirrors while the shard's
	// own worker accounts a steal of its own elsewhere. Padded so these
	// stores cannot bounce the lines holding the mutex or the plain
	// counters above, and so the trailing word does not share with
	// whatever follows the shard allocation.
	_              [hotPad]byte
	wCmds          atomic.Uint64 // commands this shard's worker executed (own and stolen)
	wParks         atomic.Uint64 // times this shard's worker found no work and waited for it
	wStealBatches  atomic.Uint64 // batches this shard's worker executed from siblings' rings
	wStolenCmds    atomic.Uint64 // commands siblings executed from this shard's ring
	coalescedWakes atomic.Uint64 // completion decrements merged into one per-drain flush
	executed       atomic.Uint64 // commands executed from this shard's ring, by owner or thief
	active         atomic.Int64  // activeFlows as the last executed batch left it
	_              [hotPad]byte
}

// Engine is the concurrent sharded queue manager. All methods are safe for
// concurrent use by multiple goroutines.
type Engine struct {
	cfg    Config
	shift  uint // 32 - log2(shards): top hash bits select the shard
	store  *segstore.Store
	shards []*shard
	epoch  time.Time

	// Transmit side: one port object per output port, one pacer slot per
	// shard (the goroutine starts lazily on the first Serve homed
	// there), a stop channel closed exactly once on Close to halt the
	// pacers, and their WaitGroup. flows is the engine-wide dense
	// scheduler state, one entry per flow, owned by the flow's shard.
	ports     []*port
	pacers    []*pacer
	flows     []flowState
	tierUnits [numTiers]int32 // fixed unit counts per tier (tenant, class); 1 = flat
	portStop  chan struct{}
	portWG    sync.WaitGroup

	// mode is the current datapath (modeSync → modeRing → modeClosed);
	// lifeMu serializes the transitions, workers tracks ring workers.
	mode    atomic.Int32
	lifeMu  sync.Mutex
	workers sync.WaitGroup

	egCursor atomic.Uint32 // rotating start shard for DequeueNextBatch

	bufs     sync.Pool // reassembly buffers in *bufBox wrappers, see putBuf
	boxes    sync.Pool // empty *bufBox wrappers awaiting a buffer
	fanPool  sync.Pool // per-shard scratch of the fan-out calls
	callPool sync.Pool // completions of single-shard ring commands
	histPool sync.Pool // residence merge targets for Stats snapshots
}

// bufBox carries a reassembly buffer through the pool. Pooling the raw
// []byte would box its slice header into an interface on every Put — one
// heap allocation per dequeued packet on the delivery hot path.
type bufBox struct{ b []byte }

// New builds an Engine: one shared segment store, one queue manager per
// shard drawing from it through a magazine cache. The engine starts on the
// synchronous datapath; call Start to switch to the ring datapath.
func New(cfg Config) (*Engine, error) {
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("engine: negative Shards %d", cfg.Shards)
	}
	if n := cfg.Shards; n&(n-1) != 0 {
		cfg.Shards = 1 << bits.Len(uint(n))
	}
	if cfg.NumFlows == 0 {
		cfg.NumFlows = queue.DefaultNumQueues
	}
	if cfg.NumSegments <= 0 {
		return nil, fmt.Errorf("engine: NumSegments must be positive, got %d", cfg.NumSegments)
	}
	if cfg.PerFlowLimit < 0 {
		return nil, fmt.Errorf("engine: negative PerFlowLimit %d", cfg.PerFlowLimit)
	}
	if cfg.RingCapacity < 0 {
		return nil, fmt.Errorf("engine: negative RingCapacity %d", cfg.RingCapacity)
	}
	if cfg.RingCapacity == 0 {
		cfg.RingCapacity = DefaultRingCapacity
	}
	if cfg.ResidenceSample < 0 {
		return nil, fmt.Errorf("engine: negative ResidenceSample %d", cfg.ResidenceSample)
	}
	if cfg.NumPorts == 0 {
		cfg.NumPorts = 1
	}
	if cfg.NumPorts < 0 || cfg.NumPorts > MaxPorts {
		return nil, fmt.Errorf("engine: NumPorts %d out of range [1, %d]", cfg.NumPorts, MaxPorts)
	}
	if err := cfg.PortRate.Validate(); err != nil {
		return nil, err
	}
	// cfg.Admission is validated by the SetAdmission call below;
	// cfg.Egress is validated before the tier resolution further down.
	// Scale the magazine size down for pools small relative to the shard
	// count, so the depot always holds enough magazines that no shard can
	// strand a large fraction of the pool in its cache.
	mag := segstore.MagazineSegments
	if perShard := cfg.NumSegments / (4 * cfg.Shards); perShard < mag {
		mag = perShard
		if mag < 1 {
			mag = 1
		}
	}
	store, err := segstore.New(segstore.Config{
		NumSegments:  cfg.NumSegments,
		SegmentBytes: queue.SegmentBytes,
		StoreData:    cfg.StoreData,
		MagazineSize: mag,
	})
	if err != nil {
		return nil, err
	}
	if err := cfg.Egress.Validate(); err != nil {
		return nil, err
	}
	egCfg, tierUnits, err := resolveTierUnits(cfg.Egress.WithDefaults(), cfg.NumTenants)
	if err != nil {
		return nil, err
	}
	cfg.Egress = egCfg
	e := &Engine{
		cfg:       cfg,
		shift:     uint(32 - bits.TrailingZeros(uint(cfg.Shards))),
		store:     store,
		shards:    make([]*shard, cfg.Shards),
		epoch:     time.Now(),
		ports:     make([]*port, cfg.NumPorts),
		pacers:    make([]*pacer, cfg.Shards),
		flows:     make([]flowState, cfg.NumFlows),
		tierUnits: tierUnits,
		portStop:  make(chan struct{}),
	}
	for f := range e.flows {
		e.flows[f].next = sched.None
		e.flows[f].prev = sched.None
	}
	for i := range e.pacers {
		e.pacers[i] = newPacer(e, i)
	}
	for i := range e.ports {
		e.ports[i] = &port{
			idx: i,
			sh:  newShaper(cfg.PortRate, e.epoch),
			// A port homes to one pacer: all its service — every shard's
			// scheduling unit — runs on that pacer's goroutine, so a
			// Sink's Transmit is never concurrent with itself.
			pc: e.pacers[i&(cfg.Shards-1)],
		}
	}
	e.bufs.New = func() any { return &bufBox{b: make([]byte, 0, 4*queue.SegmentBytes)} }
	for i := range e.shards {
		m, err := queue.NewWithStore(queue.Config{NumQueues: cfg.NumFlows}, store.NewCache())
		if err != nil {
			return nil, err
		}
		if cfg.PerFlowLimit > 0 {
			for q := 0; q < cfg.NumFlows; q++ {
				if err := m.SetSegmentLimit(queue.QueueID(q), cfg.PerFlowLimit); err != nil {
					return nil, err
				}
			}
		}
		// Per-port level stacks are allocated lazily on first activity
		// (see portSched), so a wide port space costs nothing up front.
		s := &shard{
			m:         m,
			storeData: cfg.StoreData,
			ps:        make([]portSched, cfg.NumPorts),
			flows:     e.flows,
			ports:     e.ports,
		}
		for t := 0; t < numTiers; t++ {
			s.eg.tierWeights[t] = make([]int32, tierUnits[t])
		}
		s.eg.levels = buildLevels(tierUnits, &s.eg.tierWeights)
		for p := range s.ps {
			s.ps[p].s = s
		}
		e.shards[i] = s
		if cfg.ResidenceSample > 0 {
			s.res = newResidence(cfg.ResidenceSample, cfg.NumFlows, e.epoch)
		}
	}
	if err := e.SetAdmission(cfg.Admission); err != nil {
		return nil, err
	}
	if err := e.SetEgress(cfg.Egress); err != nil {
		return nil, err
	}
	return e, nil
}

// SetAdmission replaces the admission policy on every shard. Each shard
// gets a private instance (RED seeds are derived per shard) swapped in
// inside the shard's critical section, so reconfiguration is safe while
// traffic flows. Counters are not reset. Longest-queue tracking is enabled
// exactly when the policy can return a push-out verdict; the single-writer
// publish deferral is enabled exactly when no policy reads pool occupancy.
func (e *Engine) SetAdmission(cfg policy.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	track := cfg.Kind == policy.KindLQD
	for i, s := range e.shards {
		shardCfg := cfg
		if shardCfg.Seed == 0 {
			shardCfg.Seed = 1
		}
		shardCfg.Seed += uint64(i) * 0x9e3779b97f4a7c15
		adm, err := policy.New(shardCfg)
		if err != nil {
			return err
		}
		s := s
		e.run(s, func() {
			s.adm = adm
			s.admKind = cfg.Kind
			s.admLimit = cfg.Limit
			s.m.SetLongestTracking(track)
			// Only a ring worker is a single writer, and only a policy-free
			// shard has nobody reading pool occupancy between operations.
			s.m.SetDeferPublish(e.mode.Load() == modeRing && cfg.Kind == policy.KindNone)
		})
	}
	return nil
}

// Shards returns the (power-of-two) shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// NumFlows returns the flow-ID space.
func (e *Engine) NumFlows() int { return e.cfg.NumFlows }

// NumSegments returns the total segment pool across all shards.
func (e *Engine) NumSegments() int { return e.cfg.NumSegments }

// ShardOf returns the shard index owning flow — Fibonacci hashing on the
// flow ID, taking the top bits of the product, which mixes well even for
// the sequential flow IDs traffic generators tend to produce.
func (e *Engine) ShardOf(flow uint32) int {
	return int((flow * 0x9E3779B1) >> e.shift)
}

func (e *Engine) shardOf(flow uint32) *shard {
	return e.shards[e.ShardOf(flow)]
}

// EnqueuePacket segments data onto flow, returning the segment count. When
// an admission policy is configured it is consulted first; a refusal
// returns ErrAdmissionDrop, and under LQD the arrival may instead evict
// packets from the globally longest queue — on any shard — to make room.
// On the ring datapath the call blocks until the shard's worker has
// executed the command (use EnqueueAsync to fire and forget).
func (e *Engine) EnqueuePacket(flow uint32, data []byte) (int, error) {
	need := (len(data) + queue.SegmentBytes - 1) / queue.SegmentBytes
	var r result
	err := e.ingest(e.shardOf(flow), &command{kind: opEnqueue, flow: flow, data: data}, need, &r)
	return r.n, err
}

// ingest runs an arrival of need segments (opEnqueue or opReserve) into
// r and settles what its shard could not: an LQD push-out verdict is
// resolved by evicting globally from this goroutine and retrying, and a
// pool whose free segments are stranded in other shards' caches is
// flushed and retried.
func (e *Engine) ingest(s *shard, c *command, need int, r *result) error {
	for attempt := 0; ; attempt++ {
		if !e.do(s, c, r) {
			return ErrClosed
		}
		switch {
		case r.err == nil:
			return nil
		case r.err == errWantPushOut: //nolint:errorlint // internal sentinel, never wrapped
			if attempt >= maxEvictAttempts || !e.evictForSpace(need) {
				// Nothing left to evict (or the freed space kept being
				// stolen): the arrival is dropped after all.
				e.run(s, func() {
					s.dropPackets++
					s.dropSegments += uint64(need)
				})
				return ErrAdmissionDrop
			}
		case attempt < maxEvictAttempts && errors.Is(r.err, queue.ErrNoFreeSegments) && e.store.Free() >= need:
			// The pool holds enough free segments, but they are stranded in
			// other shards' magazine caches. Flush every cache to the depot
			// and retry (bounded — concurrent shards can re-strand frees
			// while we flush); the refused attempts stay counted in
			// Rejected.
			e.flushCaches()
		default:
			return r.err
		}
	}
}

// flushCaches returns every shard's cached free segments to the depot so
// any shard can allocate them. Slow path only: shards are entered one at a
// time, never nested.
func (e *Engine) flushCaches() {
	for _, s := range e.shards {
		s := s
		e.run(s, func() { s.m.FlushFree() })
	}
}

// enqueueLocked runs admission then the manager enqueue, inside s's
// critical section (the mutex on the sync datapath, the worker on the ring
// datapath). Drops return the bare ErrAdmissionDrop sentinel: overloaded
// callers see millions of drops, so the error must not allocate.
// errWantPushOut asks the caller to leave the critical section, evict
// globally, and retry.
func (s *shard) enqueueLocked(flow uint32, data []byte) (int, error) {
	if s.adm != nil && len(data) > 0 {
		need := (len(data) + queue.SegmentBytes - 1) / queue.SegmentBytes
		if err := s.admitNeedLocked(flow, need); err != nil {
			return 0, err
		}
	}
	n, err := s.m.EnqueuePacket(queue.QueueID(flow), data)
	s.noteEnqueue(n, err)
	if err == nil {
		s.noteCopied(len(data))
		s.setActive(flow)
		s.noteEnqueueRes(flow)
	}
	return n, err
}

// admitNeedLocked runs the admission decision for a packet of need segments
// arriving on flow, inside s's critical section, counting drops. It is the
// policy half shared by enqueueLocked and reserveLocked: nil admits,
// ErrAdmissionDrop refuses (counted), and errWantPushOut asks the caller to
// evict globally outside the critical section and retry.
func (s *shard) admitNeedLocked(flow uint32, need int) error {
	if s.admKind == policy.KindTailDrop {
		// Inline fast path: one pool-wide free-count read (an atomic
		// load per cache) and a per-queue cap compare, with no
		// interface dispatch.
		segs, err := s.m.Len(queue.QueueID(flow))
		if err == nil && (need > s.m.FreeSegments() ||
			(s.admLimit > 0 && segs+need > s.admLimit)) {
			s.dropPackets++
			s.dropSegments += uint64(need)
			return ErrAdmissionDrop
		}
		return nil
	}
	switch s.admitLocked(flow, need) {
	case admitDrop:
		s.dropPackets++
		s.dropSegments += uint64(need)
		return ErrAdmissionDrop
	case admitPushOut:
		return errWantPushOut
	}
	return nil
}

// noteCopied charges n payload bytes to the shard's copy counter, inside
// the shard's critical section. Only the copying datapaths call it — the
// view and write-in-place paths never do, which is how Stats.CopiedBytes
// proves a deployment's copy path has gone quiet. No payload memory means
// nothing was copied, so the charge is skipped.
func (s *shard) noteCopied(n int) {
	if s.storeData {
		s.copiedBytes += uint64(n)
	}
}

// admitResult is the outcome of consulting the admission policy.
type admitResult uint8

const (
	admitOK      admitResult = iota // proceed with the enqueue
	admitDrop                       // refuse the arrival
	admitPushOut                    // admit after global eviction (caller handles)
)

// admitLocked consults the admission policy for a packet of need segments
// arriving on this shard, inside s's critical section (s.adm != nil). The
// policy sees pool-wide occupancy. A PushOut verdict is not executed here:
// the globally longest queue may live on another shard, and shards are
// never entered nested, so the caller evicts after leaving this critical
// section.
func (s *shard) admitLocked(flow uint32, need int) admitResult {
	occ, err := s.m.Occupancy(queue.QueueID(flow))
	if err != nil {
		return admitOK // out-of-range flow: let the manager report ErrBadQueue
	}
	if lim, _ := s.m.SegmentLimit(queue.QueueID(flow)); lim > 0 && occ.Segments+need > lim {
		// The manager's per-flow cap will refuse this packet no matter
		// what the policy says; pass it through so the caller sees
		// ErrQueueLimit — and, crucially, so a push-out verdict does not
		// evict an innocent victim for an arrival that cannot land.
		return admitOK
	}
	// Free() walks every cache's atomic mirror; read it once per decision.
	free := s.m.FreeSegments()
	verdict := s.adm.Admit(flow, need,
		policy.QueueState{Segments: occ.Segments},
		policy.PoolState{Free: free, Capacity: s.m.NumSegments()})
	switch verdict {
	case policy.Drop:
		return admitDrop
	case policy.PushOut:
		if free >= need {
			return admitOK // the policy is stricter than the pool; no eviction needed
		}
		return admitPushOut
	}
	return admitOK
}

// evictForSpace implements the global half of LQD: push out head packets of
// the globally longest queue — wherever it lives — until the shared pool
// holds need free segments. Shards are entered one at a time (peek, then
// evict), never nested, so concurrent evictions from different shards
// cannot deadlock. The victim's magazine cache is flushed so the freed
// segments are reachable from the arrival's shard. Returns false when no
// victim remains.
func (e *Engine) evictForSpace(need int) bool {
	for rounds := 0; e.store.Free() < need; rounds++ {
		if rounds > e.cfg.NumSegments {
			return false // livelock guard; cannot trigger without contention
		}
		victim := e.longestShard()
		if victim == nil {
			return false
		}
		var err error
		e.run(victim, func() {
			var q queue.QueueID
			var segs int
			q, segs, err = victim.m.PushOutLongest()
			if err == nil {
				victim.poPackets++
				victim.poSegments += uint64(segs)
				victim.syncActive(uint32(q))
				victim.noteRemoveRes(uint32(q), false)
				victim.m.FlushFree()
			}
		})
		if err != nil {
			return false
		}
	}
	return true
}

// longestShard returns the shard holding the longest queue right now, or
// nil when every queue is empty. Each shard is peeked inside its own
// critical section; with LQD configured the per-shard lookup is O(1) via
// the longest-queue heap.
func (e *Engine) longestShard() *shard {
	var victim *shard
	best := 0
	for _, s := range e.shards {
		s := s
		e.run(s, func() {
			if _, l, ok := s.m.LongestQueue(); ok && l > best {
				best, victim = l, s
			}
		})
	}
	return victim
}

// DequeuePacket removes and reassembles the head packet of flow. The
// returned buffer comes from an internal pool; pass it to ReleaseBuffer
// when done to recycle it (keeping it, or not releasing, is safe but
// allocates more).
func (e *Engine) DequeuePacket(flow uint32) ([]byte, error) {
	var r result
	if !e.do(e.shardOf(flow), &command{kind: opDequeue, flow: flow}, &r) {
		return nil, ErrClosed
	}
	return r.data, r.err
}

// dequeueLocked removes flow's head packet into r inside s's critical
// section and settles its active-list membership and residence sample —
// the body of every per-flow dequeue, copied or as a view.
func (e *Engine) dequeueLocked(s *shard, flow uint32, view bool, r *result) {
	e.take(s, flow, view, r)
	if r.err == nil {
		s.syncActive(flow)
		s.noteRemoveRes(flow, true)
	}
}

// take removes flow's head packet into r inside s's critical section —
// lent as a zero-copy view (r.view), or reassembled into a pooled buffer
// (r.data) — and counts it. r.n is the payload byte count: exact from the
// queue accounting for a view, derived from the segment count for a copy
// when data storage is off. The caller settles the flow's active-list
// membership afterwards, once any scheduler charge has landed.
func (e *Engine) take(s *shard, flow uint32, view bool, r *result) {
	var segs int
	if view {
		r.view, r.err = s.m.DequeuePacketView(queue.QueueID(flow))
		segs, r.n = r.view.Segments(), r.view.Len()
	} else {
		buf := e.getBuf()
		r.data, segs, r.err = s.m.DequeuePacketAppend(queue.QueueID(flow), buf)
		if r.err != nil {
			e.putBuf(buf)
			r.data = nil
		} else {
			s.noteCopied(len(r.data))
			r.n = len(r.data)
			if !s.storeData {
				r.n = segs * queue.SegmentBytes
			}
		}
	}
	s.noteDequeue(segs, r.err)
}

// ReleaseBuffer returns a reassembly buffer obtained from DequeuePacket,
// DequeueBatch or the copy-mode egress paths to the engine's pool. The
// caller must not use buf afterwards. Packet views have their own release
// surface (PacketView.Release), which returns segments rather than buffers.
func (e *Engine) ReleaseBuffer(buf []byte) { e.putBuf(buf) }

// getBuf takes a reassembly buffer from the pool; the emptied wrapper goes
// back to the box pool for the next putBuf.
func (e *Engine) getBuf() []byte {
	box := e.bufs.Get().(*bufBox)
	b := box.b
	box.b = nil
	e.boxes.Put(box)
	return b[:0]
}

// putBuf recycles a reassembly buffer, unless it grew past
// maxPooledBufBytes: pooling one giant reassembled packet would pin its
// memory for the engine's lifetime.
func (e *Engine) putBuf(buf []byte) {
	if c := cap(buf); c == 0 || c > maxPooledBufBytes {
		return
	}
	var box *bufBox
	if v := e.boxes.Get(); v != nil {
		box = v.(*bufBox)
	} else {
		box = new(bufBox)
	}
	box.b = buf[:0]
	e.bufs.Put(box)
}

// MovePacket relinks the head packet of from onto to — pure pointer surgery
// on the shared slab whether or not the flows share a shard. A move leaves
// the traffic counters untouched (the packet neither entered nor left the
// engine) and allocates nothing: the segments are already resident, so
// pool-pressure admission (LQD push-out, RED) does not apply. Only the
// per-queue caps guard the destination — the tail-drop per-queue limit
// (ErrAdmissionDrop) and the per-flow segment cap (ErrQueueLimit); a
// refused move leaves the packet on its source queue.
func (e *Engine) MovePacket(from, to uint32) (int, error) {
	if e.mode.Load() == modeClosed {
		return 0, ErrClosed
	}
	si, di := e.ShardOf(from), e.ShardOf(to)
	if si == di {
		s := e.shards[si]
		var n int
		var err error
		e.run(s, func() { n, err = s.moveLocal(from, to) })
		return n, err
	}
	src, dst := e.shards[si], e.shards[di]
	var ch queue.PacketChain
	var err error
	e.run(src, func() {
		ch, err = src.m.UnlinkHeadPacket(queue.QueueID(from))
		if err == nil {
			src.syncActive(from)
			src.noteRemoveRes(from, false)
		}
	})
	if err != nil {
		return 0, err
	}
	// The chain is in transit, owned by this goroutine; neither shard can
	// see a half-moved packet. From here the move must complete — even if
	// the engine closes underneath us, run falls back to the quiescent
	// mutex path, so the chain is always relinked somewhere.
	e.run(dst, func() {
		if dst.adm != nil && dst.admKind == policy.KindTailDrop && dst.admLimit > 0 {
			if dstSegs, derr := dst.m.Len(queue.QueueID(to)); derr == nil && dstSegs+ch.Segs > dst.admLimit {
				err = ErrAdmissionDrop
			}
		}
		if err == nil {
			err = dst.m.LinkPacketTail(queue.QueueID(to), ch)
			if err == nil {
				dst.setActive(to)
				dst.noteTransferRes(to)
			}
		}
	})
	if err != nil {
		// Restore the packet at the head of its source queue. This is
		// pointer relinking that cannot fail, so a refused move is
		// all-or-nothing — the pre-segstore copy path could lose the
		// packet when the rollback enqueue found the source pool refilled,
		// and miscounted the loss as a push-out.
		e.run(src, func() {
			_ = src.m.LinkPacketHead(queue.QueueID(from), ch)
			src.setActive(from)
			src.noteTransferRes(from)
		})
		return 0, err
	}
	return ch.Segs, nil
}

// moveLocal is the same-shard MovePacket body, inside s's critical section.
func (s *shard) moveLocal(from, to uint32) (int, error) {
	if from != to && s.adm != nil && s.admKind == policy.KindTailDrop && s.admLimit > 0 {
		if _, need, err := s.m.PacketLen(queue.QueueID(from)); err == nil {
			if dstSegs, derr := s.m.Len(queue.QueueID(to)); derr == nil && dstSegs+need > s.admLimit {
				return 0, ErrAdmissionDrop
			}
		}
	}
	n, err := s.m.MovePacket(queue.QueueID(from), queue.QueueID(to))
	if err == nil {
		s.syncActive(from)
		s.syncActive(to)
		if from != to {
			s.noteRemoveRes(from, false)
			s.noteTransferRes(to)
		} else if occ, oerr := s.m.Occupancy(queue.QueueID(from)); oerr == nil && occ.Packets > 1 {
			// Same-queue rotation: the head packet went to the tail.
			s.noteRemoveRes(from, false)
			s.noteTransferRes(from)
		}
	}
	return n, err
}

// DeletePacket drops the head packet of flow, returning its segment count.
func (e *Engine) DeletePacket(flow uint32) (int, error) {
	if e.mode.Load() == modeClosed {
		return 0, ErrClosed
	}
	s := e.shardOf(flow)
	var n int
	var err error
	e.run(s, func() {
		n, err = s.m.DeletePacket(queue.QueueID(flow))
		s.noteDequeue(n, err)
		if err == nil {
			s.syncActive(flow)
			s.noteRemoveRes(flow, false)
		}
	})
	return n, err
}

// Len returns the queued segment count of flow.
func (e *Engine) Len(flow uint32) (int, error) {
	s := e.shardOf(flow)
	var n int
	var err error
	e.run(s, func() { n, err = s.m.Len(queue.QueueID(flow)) })
	return n, err
}

// Occupancy returns the live buffer usage of flow.
func (e *Engine) Occupancy(flow uint32) (queue.Occupancy, error) {
	s := e.shardOf(flow)
	var occ queue.Occupancy
	var err error
	e.run(s, func() { occ, err = s.m.Occupancy(queue.QueueID(flow)) })
	return occ, err
}

// SetFlowLimit caps flow at limit segments (0 removes the cap). Unknown
// flows (outside the configured flow space) report ErrUnknownFlow.
func (e *Engine) SetFlowLimit(flow uint32, limit int) error {
	if int64(flow) >= int64(e.cfg.NumFlows) {
		return ErrUnknownFlow
	}
	s := e.shardOf(flow)
	var err error
	e.run(s, func() { err = s.m.SetSegmentLimit(queue.QueueID(flow), limit) })
	return err
}

// FreeSegments returns the shared pool's free population (depot plus every
// shard's magazine cache). Lock-free; on the ring datapath with no
// admission policy the per-shard mirrors refresh at batch rather than
// per-operation granularity, so the value may lag by a few operations.
func (e *Engine) FreeSegments() int { return e.store.Free() }

// noteEnqueue records an enqueue outcome inside the shard's critical
// section.
func (s *shard) noteEnqueue(segments int, err error) {
	if err != nil {
		s.rejected++
		return
	}
	s.enqPackets++
	s.enqSegments += uint64(segments)
}

// noteDequeue records a dequeue/delete outcome inside the shard's critical
// section.
func (s *shard) noteDequeue(segments int, err error) {
	if err != nil {
		return
	}
	s.deqPackets++
	s.deqSegments += uint64(segments)
}
