package engine

// The integrated egress scheduler — an N-level hierarchy. Each shard
// keeps one scheduling unit per output port; a unit is a sched.Stack
// composing one sched.Level per configured tier (tenant, class) above
// the flow level, so the same code path runs the flat, two-level and
// three-level configurations. SetFlowTenant/SetFlowClass group flows
// into the tiers' units; all levels run the same four disciplines (see
// policy.EgressKind) through one implementation, sched.Level, so
// tenant-level WRR cannot drift from class- or flow-level WRR.
//
// Scheduler state is dense and index-based: every flow owns one
// flowState entry in an engine-wide table (intrusive list links, port,
// tenant, class, weight, DRR deficit — no per-flow maps, no per-port
// bitmaps), so a million flows cost a million small structs rather than
// ports×flows bits, and activation/deactivation/picking are O(1) list
// splices. Intermediate nodes (a tenant, a (tenant, class) pair) are
// dense composite indices into per-level slices inside the Stack.
// Entries are only ever touched inside the owning shard's critical
// section; the table is engine-wide only so the facade can size it
// once.
//
// All egress state lives per shard under the shard lock: a flow always
// hashes to the same shard, so per-flow cursor/credit/deficit state
// never migrates. The discipline arbitrates among the flows of one
// (shard, port) pair; cross-shard fairness comes from rotating the
// shard a batch (or the pacer's scan) starts on, and ports are
// independent transmit resources by construction.

import (
	"fmt"
	"slices"

	"npqm/internal/policy"
	"npqm/internal/queue"
	"npqm/internal/sched"
)

// The egress pick itself runs inside the shard's critical section:
// DequeueNext, DequeueNextBatch and the pacers send a pick-and-dequeue
// command (opDequeueNext) per shard through the executor (see ring.go),
// so on the ring datapath the discipline state is only ever touched by
// the single writer.

// anyPort is the pick-target meaning "serve whichever port has traffic"
// — the legacy pull API (DequeueNext[Batch]) serves all ports, rotating.
const anyPort = -1

// The intermediate tiers, outermost first. A tier with one unit is
// flat — it contributes no scheduling level — so the active levels of
// an engine are the tiers whose unit count exceeds one.
const (
	tierTenant = iota
	tierClass
	numTiers
)

// tierName returns the tier's policy-layer spelling for error messages.
func tierName(tier int) string {
	if tier == tierTenant {
		return policy.TierTenant
	}
	return policy.TierClass
}

// Dequeued is one packet returned by the egress paths: the flow it was
// queued on, its reassembled payload (from the engine's buffer pool —
// ReleaseBuffer it when done; empty when data storage is off), and its
// payload byte count (derived from the segment count when data storage is
// off, so shapers can charge transmissions either way).
type Dequeued struct {
	Flow  uint32
	Data  []byte
	Bytes int
}

// flowState is one flow's dense scheduler state: the intrusive links of
// its innermost active list, its home port, tenant and class, its
// WRR/DRR weight, and its DRR deficit. One entry per flow, engine-wide,
// touched only inside the owning shard's critical section. next ==
// sched.None means the flow is not active (no backlog).
type flowState struct {
	next, prev int32
	port       int32
	tenant     int32
	class      int32
	weight     int32  // 0 = discipline default
	defEpoch   uint32 // deficit is valid only when this matches eg.epoch
	deficit    int64
}

// portSched is one (shard, port) scheduling unit: a sched.Stack over
// the shard's configured levels, built on the port's first active flow
// — the port space can be large (MaxPorts) while only a few ports ever
// own flows, and an unused port must not cost per-level state on every
// shard. Guarded by the shard's critical section. activeFlows > 0
// implies st.Ready().
type portSched struct {
	s           *shard      // back-pointer for the Hierarchy methods
	st          sched.Stack // the level stack (flat when no tier is active)
	audits      [][]int64   // test-only per-level entitlement (see egressState.audit)
	activeFlows int
}

// levelCfg is one active intermediate level's shard-local
// configuration: which tier it is, its discipline, its unit count
// (mod), and the composite node count of the level (the product of the
// unit counts through it — a node at the class level under 8 tenants ×
// 8 classes is tenant*8+class, one of 64).
type levelCfg struct {
	tier    int8
	kind    policy.EgressKind
	quantum int64
	mod     int32
	count   int32
	weights []int32 // aliases egressState.tierWeights[tier]; 0 = weight 1
}

// egressState is one shard's scheduler configuration, guarded by the
// shard's critical section. Per-flow state lives in the dense flowState
// table; per-node rotation state lives in the per-port Stack units.
type egressState struct {
	kind          policy.EgressKind // flow-level discipline
	defaultWeight int
	quantum       int // flow-level DRR bytes per weight unit per visit

	// levels are the active intermediate levels, outermost first —
	// built once at construction (the unit counts are fixed);
	// SetEgress replaces kinds, quanta and weights in place.
	levels []levelCfg
	// tierWeights holds every tier's per-unit weights (len = the
	// tier's unit count, ≥ 1), whether or not the tier is active, so
	// SetClassWeight/SetTenantWeight always have a place to write.
	// Active levels alias their tier's slice.
	tierWeights [numTiers][]int32
	// hasLevelDRR caches whether any intermediate level runs DRR, so
	// the per-packet charge check is one bool load.
	hasLevelDRR bool

	// epoch versions the flowState deficits: SetEgress bumps it instead
	// of zeroing a million entries, and stale deficits read as 0.
	epoch uint32

	// audit, when non-nil (tests only), accumulates the net service
	// entitlement granted to each flow — quantum bytes for DRR, visit
	// packets for WRR — with forfeited credit subtracted back out, so a
	// conservation property can hold the pickers to served == granted −
	// outstanding, exactly. auditLevels mirrors it at the intermediate
	// levels (per-port audits slices, allocated with the Stack).
	audit       []int64
	auditLevels bool
}

// --- sched.Entity / sched.Hierarchy implementations ---

// The shard itself is the flow-level Entity: member ids are flow IDs
// indexing the dense flowState table. Pointer-shaped, so the interface
// conversion in the pick paths does not allocate.

func (s *shard) Next(id int32) int32    { return s.flows[id].next }
func (s *shard) SetNext(id, next int32) { s.flows[id].next = next }
func (s *shard) Prev(id int32) int32    { return s.flows[id].prev }
func (s *shard) SetPrev(id, prev int32) { s.flows[id].prev = prev }

func (s *shard) Weight(id int32) int64 {
	if w := s.flows[id].weight; w > 0 {
		return int64(w)
	}
	return int64(s.eg.defaultWeight)
}

func (s *shard) Deficit(id int32) int64 {
	fs := &s.flows[id]
	if fs.defEpoch != s.eg.epoch {
		return 0
	}
	return fs.deficit
}

func (s *shard) SetDeficit(id int32, d int64) {
	fs := &s.flows[id]
	fs.defEpoch = s.eg.epoch
	fs.deficit = d
}

func (s *shard) HeadBytes(id int32) (int64, bool) {
	bytes, _, err := s.m.PacketLen(queue.QueueID(id))
	if err != nil {
		return 0, false
	}
	return int64(bytes), true
}

func (s *shard) Audit(id int32, delta int64) {
	if s.eg.audit != nil {
		s.eg.audit[id] += delta
	}
}

// The portSched is the Stack's Hierarchy: level parameters and node
// weights come from the shard's level configuration, the leaf
// population is the shard's flow table. Pointer-shaped.

func (ps *portSched) Params(level int) sched.Params {
	lv := &ps.s.eg.levels[level]
	return sched.Params{Kind: lv.kind, Quantum: lv.quantum}
}

func (ps *portSched) Weight(level int, id int32) int64 {
	lv := &ps.s.eg.levels[level]
	if w := lv.weights[id%lv.mod]; w > 0 {
		return int64(w)
	}
	return 1
}

func (ps *portSched) LeafParams() sched.Params { return ps.s.flowParams() }
func (ps *portSched) Leaf() sched.Entity       { return ps.s }

func (ps *portSched) AuditNode(level int, id int32, delta int64) {
	if ps.audits != nil {
		ps.audits[level][id] += delta
	}
}

func (s *shard) flowParams() sched.Params {
	return sched.Params{Kind: s.eg.kind, Quantum: int64(s.eg.quantum)}
}

// pathOf appends flow's composite node index at every active level to
// buf (outermost first): the node at level k is the level-(k−1) node's
// index times the tier's unit count plus the flow's unit in that tier.
// Callers pass a stack-allocated buffer of numTiers capacity.
func (s *shard) pathOf(flow uint32, buf []int32) []int32 {
	fs := &s.flows[flow]
	idx := int32(0)
	for k := range s.eg.levels {
		lv := &s.eg.levels[k]
		u := fs.class
		if lv.tier == tierTenant {
			u = fs.tenant
		}
		idx = idx*lv.mod + u
		buf = append(buf, idx)
	}
	return buf
}

// --- configuration ---

// buildLevels constructs a shard's active-level skeleton from the
// engine's fixed tier unit counts: one levelCfg per tier with more than
// one unit, outermost first, with composite node counts accumulated
// through the nesting. Disciplines and quanta are filled by SetEgress.
func buildLevels(units [numTiers]int32, tw *[numTiers][]int32) []levelCfg {
	var levels []levelCfg
	count := int32(1)
	for t := 0; t < numTiers; t++ {
		if units[t] <= 1 {
			continue
		}
		count *= units[t]
		levels = append(levels, levelCfg{
			tier:    int8(t),
			mod:     units[t],
			count:   count,
			weights: tw[t],
		})
	}
	return levels
}

// resolveTierUnits derives the fixed tier unit counts from the egress
// configuration plus the engine-level NumTenants: each tier's unit
// count comes from its LevelSpec (tenant Units 0 defers to NumTenants;
// class Units 0 means flat), and NumTenants without a tenant spec
// synthesizes a round-robin tenant level. The returned config is the
// normalized one — every active tier has an explicit spec with its
// resolved unit count — so SetEgress's level matching is uniform.
func resolveTierUnits(cfg policy.EgressConfig, numTenants int) (policy.EgressConfig, [numTiers]int32, error) {
	units := [numTiers]int32{1, 1}
	if numTenants < 0 || numTenants > policy.MaxLevelUnits {
		return cfg, units, fmt.Errorf("engine: NumTenants %d out of range [0, %d]", numTenants, policy.MaxLevelUnits)
	}
	if ls := cfg.Level(policy.TierClass); ls != nil && ls.Units > 1 {
		units[tierClass] = int32(ls.Units)
	}
	tu := numTenants
	if ls := cfg.Level(policy.TierTenant); ls != nil {
		if ls.Units > 0 {
			if numTenants > 0 && ls.Units != numTenants {
				return cfg, units, fmt.Errorf("engine: tenant level Units %d does not match NumTenants %d", ls.Units, numTenants)
			}
			tu = ls.Units
		}
		if tu <= 0 {
			tu = 1
		}
		if tu > 1 {
			units[tierTenant] = int32(tu)
		}
		// Normalize: the spec carries its resolved unit count.
		spec := *ls
		spec.Units = tu
		cfg = cfg.WithLevel(spec)
	} else if tu > 1 {
		units[tierTenant] = int32(tu)
		cfg = cfg.WithLevel(policy.LevelSpec{Tier: policy.TierTenant, Kind: policy.EgressRR, Units: tu})
	}
	return cfg, units, nil
}

// SetEgress replaces the egress discipline on every shard, resetting
// rotation, visit and deficit state at every level. The hierarchy's
// unit counts are fixed at construction: a nil Levels leaves the
// intermediate levels' disciplines, quanta and weights untouched (only
// the flow level changes); a non-nil Levels must list every active tier
// (Units 0 or the configured count) and replaces their disciplines —
// each spec's Weights, when non-nil, replace that tier's weights.
// Per-flow weights set with SetWeight survive a discipline change. Safe
// while traffic flows.
func (e *Engine) SetEgress(cfg policy.EgressConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg = cfg.WithDefaults()
	if cfg.Levels != nil {
		var seen [numTiers]bool
		for _, ls := range cfg.Levels {
			t := tierClass
			if ls.Tier == policy.TierTenant {
				t = tierTenant
			}
			units := ls.Units
			if units == 0 {
				units = int(e.tierUnits[t])
			}
			if units != int(e.tierUnits[t]) && !(units == 1 && e.tierUnits[t] <= 1) {
				return fmt.Errorf("engine: %s Units %d does not match the configured %d (the unit space is fixed at construction)",
					ls.Tier, ls.Units, e.tierUnits[t])
			}
			if len(ls.Weights) > int(e.tierUnits[t]) {
				return fmt.Errorf("engine: %d %s weights for %d units", len(ls.Weights), ls.Tier, e.tierUnits[t])
			}
			seen[t] = true
		}
		for t := 0; t < numTiers; t++ {
			if e.tierUnits[t] > 1 && !seen[t] {
				return fmt.Errorf("engine: egress Levels must list the active %s tier (%d units)", tierName(t), e.tierUnits[t])
			}
		}
	}
	for _, s := range e.shards {
		s := s
		e.run(s, func() {
			s.eg.kind = cfg.Kind
			s.eg.defaultWeight = cfg.DefaultWeight
			s.eg.quantum = cfg.QuantumBytes
			if cfg.Levels != nil {
				for _, ls := range cfg.Levels {
					t := int8(tierClass)
					if ls.Tier == policy.TierTenant {
						t = tierTenant
					}
					for k := range s.eg.levels {
						lv := &s.eg.levels[k]
						if lv.tier != t {
							continue
						}
						lv.kind = ls.Kind
						lv.quantum = int64(ls.QuantumBytes)
						if ls.Weights != nil {
							w := s.eg.tierWeights[t]
							for i := range w {
								w[i] = 0
							}
							for i, x := range ls.Weights {
								w[i] = int32(x)
							}
						}
					}
				}
			}
			s.eg.hasLevelDRR = false
			for k := range s.eg.levels {
				if s.eg.levels[k].kind == policy.EgressDRR {
					s.eg.hasLevelDRR = true
				}
			}
			// Invalidate every flow deficit in O(1) instead of walking
			// the flow table.
			s.eg.epoch++
			for p := range s.ps {
				if s.ps[p].st.Ready() {
					s.ps[p].st.Reset()
				}
			}
		})
	}
	return nil
}

// SetWeight sets flow's egress weight for WRR (packets per visit) and DRR
// (quantum multiplier). Weights must be positive; flows default to the
// configured DefaultWeight. Unknown flows (outside the configured flow
// space) report ErrUnknownFlow. Safe while traffic flows.
func (e *Engine) SetWeight(flow uint32, weight int) error {
	if weight <= 0 {
		return fmt.Errorf("engine: non-positive weight %d for flow %d", weight, flow)
	}
	if int64(flow) >= int64(e.cfg.NumFlows) {
		return ErrUnknownFlow
	}
	s := e.shardOf(flow)
	e.run(s, func() { s.flows[flow].weight = int32(weight) })
	return nil
}

// setTierWeight sets a tier unit's weight for that level's WRR (packets
// per visit) and DRR (quantum multiplier) on every shard.
func (e *Engine) setTierWeight(tier, unit, weight int) error {
	if weight <= 0 {
		return fmt.Errorf("engine: non-positive weight %d for %s %d", weight, tierName(tier), unit)
	}
	if unit < 0 || unit >= int(e.tierUnits[tier]) {
		return fmt.Errorf("engine: %s %d out of range [0, %d)", tierName(tier), unit, e.tierUnits[tier])
	}
	for _, s := range e.shards {
		s := s
		e.run(s, func() { s.eg.tierWeights[tier][unit] = int32(weight) })
	}
	return nil
}

// SetClassWeight sets class's weight for class-level WRR (packets per
// visit) and DRR (quantum multiplier) on every shard. Weights must be
// positive; classes default to weight 1 (or the class LevelSpec's
// Weights). Safe while traffic flows.
func (e *Engine) SetClassWeight(class, weight int) error {
	return e.setTierWeight(tierClass, class, weight)
}

// SetTenantWeight sets tenant's weight for tenant-level WRR (packets
// per visit) and DRR (quantum multiplier) on every shard. Weights must
// be positive; tenants default to weight 1 (or the tenant LevelSpec's
// Weights). Safe while traffic flows.
func (e *Engine) SetTenantWeight(tenant, weight int) error {
	return e.setTierWeight(tierTenant, tenant, weight)
}

// NumClasses returns the per-port class count (1 = flat).
func (e *Engine) NumClasses() int { return int(e.tierUnits[tierClass]) }

// NumTenants returns the tenant count (1 = no tenant level).
func (e *Engine) NumTenants() int { return int(e.tierUnits[tierTenant]) }

// setFlowTier moves flow into a tier unit. A backlogged flow moves with
// its queue: it leaves its old unit's active list — ending any open
// visit and forfeiting banked DRR deficit exactly as if it had drained,
// at every hierarchy level — and joins the new unit's rotation at the
// tail. Safe while traffic flows; per-flow FIFO is unaffected (the
// flow's shard does not change).
func (e *Engine) setFlowTier(flow uint32, tier, unit int) error {
	if unit < 0 || unit >= int(e.tierUnits[tier]) {
		return fmt.Errorf("engine: %s %d out of range [0, %d)", tierName(tier), unit, e.tierUnits[tier])
	}
	if int64(flow) >= int64(e.cfg.NumFlows) {
		return ErrUnknownFlow
	}
	s := e.shardOf(flow)
	e.run(s, func() {
		fs := &s.flows[flow]
		cur := &fs.class
		if tier == tierTenant {
			cur = &fs.tenant
		}
		if int(*cur) == unit {
			return
		}
		active := fs.next != sched.None
		if active {
			s.clearActive(flow)
		}
		*cur = int32(unit)
		if active {
			s.setActive(flow)
		}
	})
	return nil
}

// SetFlowClass moves flow into class (all flows start in class 0). See
// setFlowTier for the re-homing semantics.
func (e *Engine) SetFlowClass(flow uint32, class int) error {
	return e.setFlowTier(flow, tierClass, class)
}

// SetFlowTenant moves flow into tenant (all flows start in tenant 0).
// See setFlowTier for the re-homing semantics.
func (e *Engine) SetFlowTenant(flow uint32, tenant int) error {
	return e.setFlowTier(flow, tierTenant, tenant)
}

// FlowClass returns the class flow is currently mapped to.
func (e *Engine) FlowClass(flow uint32) (int, error) {
	if int64(flow) >= int64(e.cfg.NumFlows) {
		return 0, ErrUnknownFlow
	}
	s := e.shardOf(flow)
	var class int
	e.run(s, func() { class = int(s.flows[flow].class) })
	return class, nil
}

// FlowTenant returns the tenant flow is currently mapped to.
func (e *Engine) FlowTenant(flow uint32) (int, error) {
	if int64(flow) >= int64(e.cfg.NumFlows) {
		return 0, ErrUnknownFlow
	}
	s := e.shardOf(flow)
	var tenant int
	e.run(s, func() { tenant = int(s.flows[flow].tenant) })
	return tenant, nil
}

// --- dequeue paths ---

// DequeueNext serves one packet chosen by the egress discipline,
// whichever port it belongs to. ok is false when the engine holds no
// packets. ReleaseBuffer the data when done. On the synchronous datapath
// it allocates nothing beyond the pooled payload buffer, so per-packet
// drain loops stay allocation-free. On the ring datapath idle shards
// (see shard.idle) are skipped without a round trip.
func (e *Engine) DequeueNext() (Dequeued, bool) {
	var r result
	if !e.dequeueNextOne(e.nextStart(), anyPort, false, true, &r) {
		return Dequeued{}, false
	}
	return Dequeued{Flow: r.flow, Data: r.data, Bytes: r.n}, true
}

// dequeueNextOne serves one packet picked on port (anyPort = all) into r,
// trying the shards in turn from start (with skipIdle, not idle ones). It
// reports false when no shard had a packet (or the engine is closed).
func (e *Engine) dequeueNextOne(start, port int, view, skipIdle bool, r *result) bool {
	n := len(e.shards)
	skipIdle = skipIdle && e.mode.Load() == modeRing
	c := command{kind: opDequeueNext, view: view, port: int32(port)}
	for i := 0; i < n; i++ {
		s := e.shards[(start+i)&(n-1)]
		if skipIdle && s.idle() {
			continue
		}
		if !e.do(s, &c, r) {
			return false
		}
		if r.err == nil {
			return true
		}
	}
	return false
}

// nextStart rotates the shard the pull egress calls start on, so shards
// share the egress bandwidth. The shard count is a power of two; masking
// before the int conversion keeps the uint32 cursor wrapping past 2^31
// from going negative on 32-bit platforms.
func (e *Engine) nextStart() int {
	return int((e.egCursor.Add(1) - 1) & uint32(len(e.shards)-1))
}

// DequeueNextBatch serves up to max packets, choosing flows by the
// configured egress discipline across all ports. The starting shard
// rotates per call so shards share the egress bandwidth; within a shard,
// units and flows are picked by the level-stack discipline against the
// active lists. Idle shards are skipped as in DequeueNext. Buffers come
// from the engine pool — ReleaseBuffer each packet's Data when done.
func (e *Engine) DequeueNextBatch(max int) []Dequeued {
	if max <= 0 {
		return nil
	}
	f := e.getFanout()
	e.dequeueNext(f, e.nextStart(), anyPort, max, false)
	out, _ := f.appendServed(nil, nil)
	e.putFanout(f)
	return out
}

// dequeueNext picks up to max packets on port (anyPort = all) into the
// parts of f, for the caller to collect, visiting shards in rotation from
// start. The budget is split across the shards (the first max%n in
// rotation take one extra) and runs as one fan-out; drainNext then tops
// up the shards that filled their split — they may hold more — and the
// shards the split gave nothing (with max < shards, the whole backlog may
// live on one of them), so a backlog concentrated on one shard still
// drains at full batch size. Idle shards are marked in f and skipped by
// both passes; their split share is not handed on, as on sync.
func (e *Engine) dequeueNext(f *fanout, start, port, max int, view bool) {
	n, idle := len(e.shards), 0
	ring := e.mode.Load() == modeRing
	for i := 0; i < n; i++ {
		si := (start + i) & (n - 1)
		p := &f.parts[si]
		p.want = max / n
		if i < max%n {
			p.want++
		}
		if ring && e.shards[si].idle() {
			p.want, p.idle = 0, true
			idle++
		}
	}
	if idle == n {
		return
	}
	e.fanOut(f, &command{kind: opDequeueNext, view: view, port: int32(port)})
	e.drainNext(f, start, port, max, view)
}

// drainNext is the serial pass over the shards in rotation from start:
// every shard whose part is not marked idle and was not given a budget,
// or filled it, is asked for what is left of max (none, once the engine
// is closed). On its own — a pacer serving one port's burst, whose
// fan-out marks no shard idle — it drains shard after shard.
func (e *Engine) drainNext(f *fanout, start, port, max int, view bool) {
	n, got := len(e.shards), 0
	for i := range f.parts {
		got += f.parts[i].served(view)
	}
	f.start = start
	c := command{kind: opDequeueNext, view: view, port: int32(port), f: f}
	for i := 0; i < n && got < max; i++ {
		si := (start + i) & (n - 1)
		p := &f.parts[si]
		if had := p.served(view); !p.idle && (p.want == 0 || had == p.want) {
			c.slot, c.arg = int32(si), max-got
			if !e.do(e.shards[si], &c, &f.r) {
				break
			}
			got += p.served(view) - had
		}
	}
}

// appendServed appends f's delivered packets — copies to out, views to
// outv — shard by shard in rotation order, growing each at most once.
func (f *fanout) appendServed(out []Dequeued, outv []DequeuedView) ([]Dequeued, []DequeuedView) {
	n, total, totalv := len(f.parts), 0, 0
	for i := range f.parts {
		total += len(f.parts[i].deq)
		totalv += len(f.parts[i].deqv)
	}
	out, outv = slices.Grow(out, total), slices.Grow(outv, totalv)
	for i := 0; i < n; i++ {
		p := &f.parts[(f.start+i)&(n-1)]
		out, outv = append(out, p.deq...), append(outv, p.deqv...)
	}
	return out, outv
}

// chargeLevels debits the bytes actually served on flow against every
// DRR intermediate level of the flow's scheduling unit, inside the
// shard's critical section. The picks' fit checks price on peeked
// estimates; charging actuals keeps the level conservation exact
// (served ≡ granted − deficit).
func (s *shard) chargeLevels(flow uint32, bytes int) {
	fs := &s.flows[flow]
	var pb [numTiers]int32
	s.ps[fs.port].st.Charge(s.pathOf(flow, pb[:0]), int64(bytes))
}

// dequeuePicked serves one packet picked by the level-stack discipline
// from shard s into r, inside s's critical section (mutex or worker),
// copied or as a view. port selects the scheduling unit (anyPort rotates
// over all of them). It reports false, with r.err set to
// queue.ErrQueueEmpty, when the shard has nothing servable on that port.
func (e *Engine) dequeuePicked(s *shard, port int, view bool, r *result) bool {
	for {
		flow, debit, ok := s.pickLocked(port)
		if !ok {
			r.err = queue.ErrQueueEmpty
			return false
		}
		e.take(s, flow, view, r)
		if r.err != nil {
			// The list said active but no complete packet is available
			// (raw-segment misuse): deactivate the flow so the pick loop
			// cannot spin on it. The DRR debit is not charged — nothing
			// was served — and any banked deficit is forfeited by
			// clearActive.
			s.clearActive(flow)
			continue
		}
		if debit != 0 {
			// Flow-level DRR: charge the served packet against the flow's
			// deficit. The picker returns the debit rather than
			// pre-deducting so the charge lands if and only if the packet
			// was actually served — and so the bound-exhaustion fallback
			// pays for its packet too, driving the deficit negative
			// instead of transmitting for free (the debt delays the
			// flow's next service until its quanta cover it).
			s.SetDeficit(int32(flow), s.Deficit(int32(flow))-debit)
		}
		if s.eg.hasLevelDRR {
			// Actual bytes (exact from the queue accounting on the view
			// path), so level conservation stays exact.
			s.chargeLevels(flow, r.n)
		}
		s.syncActive(flow)
		s.noteRemoveRes(flow, true)
		r.flow = flow
		return true
	}
}

// ActiveFlows returns the number of flows with queued segments.
func (e *Engine) ActiveFlows() int {
	total := 0
	for _, s := range e.shards {
		s := s
		e.run(s, func() { total += s.activeFlows })
	}
	return total
}

// --- active-list maintenance (caller holds the shard's critical section) ---

// portOf returns the scheduling unit owning flow. The flows table is
// engine-wide but each entry is only touched inside the owning shard's
// critical section.
func (s *shard) portOf(flow uint32) int { return int(s.flows[flow].port) }

func (s *shard) isActive(flow uint32) bool { return s.flows[flow].next != sched.None }

// initPortLocked builds a port's level stack on its first active flow.
func (s *shard) initPortLocked(ps *portSched) {
	var counts [numTiers]int32
	c := counts[:0]
	for k := range s.eg.levels {
		c = append(c, s.eg.levels[k].count)
	}
	ps.st.Init(ps, c)
	if s.eg.auditLevels {
		s.initLevelAuditLocked(ps)
	}
}

// initLevelAuditLocked allocates a port unit's per-level audit slices
// (tests only), sized to each level's composite node count.
func (s *shard) initLevelAuditLocked(ps *portSched) {
	ps.audits = make([][]int64, ps.st.Depth())
	for k := range ps.audits {
		ps.audits[k] = make([]int64, ps.st.Width(k))
	}
}

func (s *shard) setActive(flow uint32) {
	fs := &s.flows[flow]
	if fs.next != sched.None {
		return
	}
	p := int(fs.port)
	ps := &s.ps[p]
	if !ps.st.Ready() {
		s.initPortLocked(ps)
	}
	var pb [numTiers]int32
	ps.st.Activate(int32(flow), s.pathOf(flow, pb[:0]))
	ps.activeFlows++
	s.activeFlows++
	// First traffic for this flow: an idle-parked port wants to know.
	// The flag check is one atomic load; the enqueue to the pacer only
	// happens while the port is actually parked.
	s.ports[p].notify()
}

func (s *shard) clearActive(flow uint32) {
	fs := &s.flows[flow]
	if fs.next == sched.None {
		return
	}
	ps := &s.ps[fs.port]
	var pb [numTiers]int32
	ps.st.Deactivate(int32(flow), s.pathOf(flow, pb[:0]))
	ps.activeFlows--
	s.activeFlows--
}

// syncActive reconciles flow's list membership with its queue occupancy.
func (s *shard) syncActive(flow uint32) {
	n, err := s.m.Len(queue.QueueID(flow))
	if err == nil && n > 0 {
		s.setActive(flow)
	} else {
		s.clearActive(flow)
	}
}

// --- picking (caller holds the shard's critical section) ---

// pickLocked returns the next flow the level-stack discipline serves on
// port (anyPort rotates across ports), plus the flow-level DRR byte
// debit to charge if the packet is actually served (0 for the
// packet-granular disciplines). The scheduler is work-conserving:
// whenever any flow is active on the selected port, a flow is returned.
func (s *shard) pickLocked(port int) (uint32, int64, bool) {
	if s.activeFlows == 0 {
		return 0, 0, false
	}
	if port == anyPort {
		n := len(s.ps)
		for i := 0; i < n; i++ {
			p := int(s.portCursor) % n
			s.portCursor++
			if s.ps[p].activeFlows > 0 {
				return s.pickPort(p)
			}
		}
		return 0, 0, false
	}
	if s.ps[port].activeFlows == 0 {
		return 0, 0, false
	}
	return s.pickPort(port)
}

// pickPort runs the hierarchy for one scheduling unit: the stack's
// levels pick top-down — outermost tier first, flows within the
// innermost winner. The port has at least one active flow. A flat
// configuration's stack has depth 0, so it pays nothing for the
// hierarchy.
func (s *shard) pickPort(port int) (uint32, int64, bool) {
	f, debit, ok := s.ps[port].st.Pick()
	if !ok {
		return 0, 0, false // unreachable while activeFlows > 0
	}
	return uint32(f), debit, true
}
