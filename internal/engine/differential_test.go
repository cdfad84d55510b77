package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"npqm/internal/policy"
)

// TestDatapathsAgree replays one seeded command script on a synchronous,
// a ring and a work-stealing ring engine and holds them to identical
// behaviour after every step: the same delivered (flow, payload)
// sequence, the same call outcomes, the same Stats counters, and clean
// invariants. Every operation is one command whichever datapath executes
// it, so any divergence is a bug in how a datapath reaches its shard.
//
// The script stays deterministic by construction. Batch enqueues (whose
// shards run concurrently on the ring) are only issued while at least
// half the pool is free, so no two shards race for the last magazine and
// no admission decision reads a pool level another shard is changing;
// below that, the same requests go in one at a time, and single-flow
// steps drive the pool to exhaustion under tail-drop and LQD. Every
// ingest starts from flushed magazine caches: which cache a magazine
// lands in is decided by whichever shard pops first, and a packet refused
// because the free segments sit in another shard's cache counts a
// rejected attempt before the engine flushes and retries — a count that
// would follow the pop order rather than the datapath. EnqueueAsync is
// left out: its LQD fallback is shard-local on the ring by design.
func TestDatapathsAgree(t *testing.T) {
	const (
		shards = 4
		flows  = 64
		pool   = 1024
		steps  = 1500
	)
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			names := []string{"sync", "ring", "ring-steal"}
			hs := make([]*diffEngine, len(names))
			for i, name := range names {
				e, err := New(Config{
					Shards: shards, NumFlows: flows, NumSegments: pool, StoreData: true,
					WorkSteal: name == "ring-steal",
				})
				if err != nil {
					t.Fatal(err)
				}
				if name != "sync" {
					if err := e.Start(); err != nil {
						t.Fatal(err)
					}
				}
				hs[i] = &diffEngine{name: name, e: e}
				defer e.Close()
			}
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < steps; step++ {
				// Alternate fill and drain phases so the pool both runs dry
				// (admission, push-out, refusals) and empties out.
				filling := step%500 < 350
				op := pickOp(rng, filling)
				args := newDiffArgs(rng, step, flows)
				if op == "enqueue-batch" && hs[0].e.FreeSegments() < pool/2 {
					op = "enqueue-each"
				}
				for _, h := range hs {
					h.log = h.log[:0]
					h.apply(t, op, args)
				}
				for _, h := range hs[1:] {
					if !slices.Equal(h.log, hs[0].log) {
						t.Fatalf("step %d (%s): %s diverged from sync\n%s: %q\nsync: %q",
							step, op, h.name, h.name, h.log, hs[0].log)
					}
					if got, want := diffStats(h.e), diffStats(hs[0].e); got != want {
						t.Fatalf("step %d (%s): %s stats diverged from sync\n%s: %+v\nsync: %+v",
							step, op, h.name, h.name, got, want)
					}
				}
				for _, h := range hs {
					if err := h.e.CheckInvariants(); err != nil {
						t.Fatalf("step %d (%s): %s: %v", step, op, h.name, err)
					}
				}
			}
			for _, h := range hs {
				h.releaseAll()
				if err := h.e.CheckInvariants(); err != nil {
					t.Fatalf("%s after settling: %v", h.name, err)
				}
				if lent := h.e.LentSegments(); lent != 0 {
					t.Fatalf("%s: %d segments still lent after settling", h.name, lent)
				}
			}
		})
	}
}

// diffEngine is one engine under the differential script plus the
// resources the script holds on it between steps.
type diffEngine struct {
	name  string
	e     *Engine
	views []PacketView  // delivered views not yet released
	res   []Reservation // open reservations, oldest first
	log   []string      // this step's outcomes and deliveries
}

// diffArgs is one step's randomness, drawn once and replayed on every
// engine.
type diffArgs struct {
	flow, flow2 uint32
	n           int
	flowList    []uint32
	reqs        []EnqueueReq
	payload     []byte
	adm         int
	commit      bool
}

func newDiffArgs(rng *rand.Rand, step, flows int) diffArgs {
	a := diffArgs{
		flow:   uint32(rng.Intn(flows)),
		flow2:  uint32(rng.Intn(flows)),
		n:      1 + rng.Intn(12),
		adm:    rng.Intn(3),
		commit: rng.Intn(4) != 0,
	}
	a.payload = diffPayload(step, 0, 1+rng.Intn(400))
	for i := 0; i < a.n; i++ {
		f := uint32(rng.Intn(flows))
		a.flowList = append(a.flowList, f)
		a.reqs = append(a.reqs, EnqueueReq{Flow: f, Data: diffPayload(step, i, 1+rng.Intn(400))})
	}
	return a
}

// diffPayload stamps step and index into a payload of n bytes (n >= 1),
// so every delivery names the enqueue that produced it.
func diffPayload(step, idx, n int) []byte {
	b := bytes.Repeat([]byte{byte(step + idx)}, n+8)
	binary.LittleEndian.PutUint32(b, uint32(step))
	binary.LittleEndian.PutUint32(b[4:], uint32(idx))
	return b[:n+8]
}

func pickOp(rng *rand.Rand, filling bool) string {
	type w struct {
		op          string
		fill, drain int
	}
	ops := []w{
		{"enqueue", 30, 4},
		{"enqueue-batch", 10, 2},
		{"reserve", 8, 2},
		{"settle-reservation", 6, 6},
		{"dequeue", 2, 8},
		{"dequeue-view", 2, 8},
		{"dequeue-batch", 1, 6},
		{"dequeue-view-batch", 1, 6},
		{"dequeue-next", 1, 6},
		{"dequeue-next-view", 1, 6},
		{"dequeue-next-batch", 1, 8},
		{"dequeue-next-view-batch", 1, 8},
		{"release-views", 3, 4},
		{"move", 4, 4},
		{"delete", 1, 4},
		{"set-admission", 2, 2},
	}
	total := 0
	for _, o := range ops {
		if filling {
			total += o.fill
		} else {
			total += o.drain
		}
	}
	r := rng.Intn(total)
	for _, o := range ops {
		wt := o.drain
		if filling {
			wt = o.fill
		}
		if r < wt {
			return o.op
		}
		r -= wt
	}
	panic("unreachable")
}

func (h *diffEngine) note(format string, args ...any) {
	h.log = append(h.log, fmt.Sprintf(format, args...))
}

func (h *diffEngine) deliver(flow uint32, data []byte) {
	h.note("deliver flow=%d %x", flow, data)
}

func (h *diffEngine) deliverView(flow uint32, v PacketView) {
	var b []byte
	v.Range(func(seg []byte) bool {
		b = append(b, seg...)
		return true
	})
	h.deliver(flow, b)
	h.views = append(h.views, v)
}

func (h *diffEngine) apply(t *testing.T, op string, a diffArgs) {
	t.Helper()
	e := h.e
	switch op {
	case "enqueue":
		e.flushCaches()
		n, err := e.EnqueuePacket(a.flow, a.payload)
		h.note("enqueue %d %v", n, err)
	case "enqueue-batch":
		e.flushCaches()
		n, errs := e.EnqueueBatch(a.reqs)
		h.note("enqueue-batch %d %v", n, errs)
	case "enqueue-each":
		for _, r := range a.reqs {
			e.flushCaches()
			n, err := e.EnqueuePacket(r.Flow, r.Data)
			h.note("enqueue %d %v", n, err)
		}
	case "reserve":
		e.flushCaches()
		r, err := e.ReservePacket(a.flow, len(a.payload))
		h.note("reserve %v", err)
		if err == nil {
			off := 0
			r.Range(func(seg []byte) bool {
				off += copy(seg, a.payload[off:])
				return true
			})
			h.res = append(h.res, r)
		}
	case "settle-reservation":
		if len(h.res) == 0 {
			return
		}
		r := &h.res[0]
		if a.commit {
			h.note("commit %v", r.Commit())
		} else {
			h.note("abort %v", r.Abort())
		}
		h.res = h.res[1:]
	case "dequeue":
		data, err := e.DequeuePacket(a.flow)
		h.note("dequeue %v", err)
		if err == nil {
			h.deliver(a.flow, data)
			e.ReleaseBuffer(data)
		}
	case "dequeue-view":
		v, err := e.DequeuePacketView(a.flow)
		h.note("dequeue-view %v", err)
		if err == nil {
			h.deliverView(a.flow, v)
		}
	case "dequeue-batch":
		pkts, errs := e.DequeueBatch(a.flowList)
		h.note("dequeue-batch %v", errs)
		for i, p := range pkts {
			if errs[i] == nil {
				h.deliver(a.flowList[i], p)
				e.ReleaseBuffer(p)
			}
		}
	case "dequeue-view-batch":
		views, errs := e.DequeueViewBatch(a.flowList)
		h.note("dequeue-view-batch %v", errs)
		for i, v := range views {
			if errs[i] == nil {
				h.deliverView(a.flowList[i], v)
			}
		}
	case "dequeue-next":
		d, ok := e.DequeueNext()
		h.note("dequeue-next %v", ok)
		if ok {
			h.deliver(d.Flow, d.Data)
			e.ReleaseBuffer(d.Data)
		}
	case "dequeue-next-view":
		d, ok := e.DequeueNextView()
		h.note("dequeue-next-view %v", ok)
		if ok {
			h.deliverView(d.Flow, d.View)
		}
	case "dequeue-next-batch":
		for _, d := range e.DequeueNextBatch(a.n) {
			h.deliver(d.Flow, d.Data)
			e.ReleaseBuffer(d.Data)
		}
	case "dequeue-next-view-batch":
		for _, d := range e.DequeueNextViewBatch(a.n) {
			h.deliverView(d.Flow, d.View)
		}
	case "release-views":
		h.releaseViews()
	case "move":
		n, err := e.MovePacket(a.flow, a.flow2)
		h.note("move %d %v", n, err)
	case "delete":
		n, err := e.DeletePacket(a.flow)
		h.note("delete %d %v", n, err)
	case "set-admission":
		cfg := []policy.Config{{}, {Kind: policy.KindTailDrop, Limit: 48}, {Kind: policy.KindLQD}}[a.adm]
		if err := e.SetAdmission(cfg); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown op %q", op)
	}
}

func (h *diffEngine) releaseViews() {
	ds := make([]DequeuedView, len(h.views))
	for i, v := range h.views {
		ds[i].View = v
	}
	h.e.ReleaseViews(ds)
	h.views = h.views[:0]
}

func (h *diffEngine) releaseAll() {
	h.releaseViews()
	for i := range h.res {
		_ = h.res[i].Abort()
	}
	h.res = nil
}

// diffCounters is the datapath-independent slice of Stats: every traffic,
// policy and occupancy counter, without the ring's wakeup accounting.
type diffCounters struct {
	EnqueuedPackets, EnqueuedSegments   uint64
	DequeuedPackets, DequeuedSegments   uint64
	Rejected                            uint64
	DroppedPackets, DroppedSegments     uint64
	PushedOutPackets, PushedOutSegments uint64
	CopiedBytes                         uint64
	FreeSegments, QueuedSegments        int
	LentSegments, ActiveFlows           int
	BufferedBytes                       int64
}

func diffStats(e *Engine) diffCounters {
	st := e.Stats()
	return diffCounters{
		EnqueuedPackets: st.EnqueuedPackets, EnqueuedSegments: st.EnqueuedSegments,
		DequeuedPackets: st.DequeuedPackets, DequeuedSegments: st.DequeuedSegments,
		Rejected:       st.Rejected,
		DroppedPackets: st.DroppedPackets, DroppedSegments: st.DroppedSegments,
		PushedOutPackets: st.PushedOutPackets, PushedOutSegments: st.PushedOutSegments,
		CopiedBytes:  st.CopiedBytes,
		FreeSegments: st.FreeSegments, QueuedSegments: st.QueuedSegments,
		LentSegments: st.LentSegments, ActiveFlows: st.ActiveFlows,
		BufferedBytes: st.BufferedBytes,
	}
}
