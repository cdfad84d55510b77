package engine

import (
	"testing"
)

// The idle rule: on the ring datapath a pull skips a shard whose executed
// count has caught its ring's accepted count and whose active mirror is 0.
// These tests pin the two ways it could go wrong — skipping a shard that
// holds a packet, and posting to one that does not.

// idleModes are the ring datapath's two drain modes.
var idleModes = []struct {
	name  string
	steal bool
}{{"ring", false}, {"ring-steal", true}}

func newIdleTest(t *testing.T, steal bool) *Engine {
	t.Helper()
	e, err := New(Config{Shards: 2, NumFlows: 64, NumSegments: 512, StoreData: true, WorkSteal: steal})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// testPostThenPull has one goroutine post a packet and hand its flow to
// the test goroutine, which pulls at once with no Drain in between; the
// poster waits for the pull before posting again. The engine is otherwise
// empty, so every pull must return exactly that packet: a post-and-go
// command accepted before the pull began is never hidden by the idle rule.
func testPostThenPull(t *testing.T, post func(e *Engine, flow uint32) error) {
	const iters = 10_000
	for _, m := range idleModes {
		t.Run(m.name, func(t *testing.T) {
			e := newIdleTest(t, m.steal)
			defer e.Close()
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			posted, pulled := make(chan uint32), make(chan bool)
			go func() {
				defer close(posted)
				for i := 0; i < iters; i++ {
					flow := uint32(i % 64)
					if err := post(e, flow); err != nil {
						t.Error(err)
						return
					}
					posted <- flow
					if !<-pulled {
						return
					}
				}
			}()
			pulls := 0
			for flow := range posted {
				got := e.DequeueNextViewBatch(64)
				e.ReleaseViews(got)
				ok := len(got) == 1 && got[0].Flow == flow
				if !ok {
					t.Errorf("pull %d after posting on flow %d (shard %d) served %d packets, want exactly that one",
						pulls, flow, e.ShardOf(flow), len(got))
				}
				pulls++
				pulled <- ok
			}
			if !t.Failed() && pulls != iters {
				t.Fatalf("%d pulls, want %d", pulls, iters)
			}
		})
	}
}

func TestIdleShardCommitVisibleToNextPull(t *testing.T) {
	testPostThenPull(t, func(e *Engine, flow uint32) error {
		r, err := e.ReservePacket(flow, 100)
		if err != nil {
			return err
		}
		return r.Commit()
	})
}

func TestIdleShardEnqueueAsyncVisibleToNextPull(t *testing.T) {
	payload := make([]byte, 100) // shared and read-only, as EnqueueAsync allows
	testPostThenPull(t, func(e *Engine, flow uint32) error {
		return e.EnqueueAsync(flow, payload)
	})
}

// TestIdleShardStartServesSyncBacklog: a backlog built on the synchronous
// datapath executed no ring command, so only Start's publish of the
// active mirror keeps its shards from reading idle. One pull after Start
// must serve all of it.
func TestIdleShardStartServesSyncBacklog(t *testing.T) {
	const backlog = 40
	for _, m := range idleModes {
		t.Run(m.name, func(t *testing.T) {
			e := newIdleTest(t, m.steal)
			defer e.Close()
			covered := make([]bool, e.Shards())
			for i := 0; i < backlog; i++ {
				flow := uint32(i % 16)
				covered[e.ShardOf(flow)] = true
				if _, err := e.EnqueuePacket(flow, make([]byte, 100)); err != nil {
					t.Fatal(err)
				}
			}
			for si, ok := range covered {
				if !ok {
					t.Fatalf("backlog misses shard %d", si)
				}
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			got := e.DequeueNextViewBatch(2 * backlog)
			e.ReleaseViews(got)
			if len(got) != backlog {
				t.Fatalf("first pull after Start served %d of %d sync-datapath packets", len(got), backlog)
			}
		})
	}
}

// TestIdleShardPullsRunNoCommand: on a started, empty engine every pull
// variant and Drain skip every shard, so no shard's executed count moves.
// The control at the end shows the count does move once a command runs.
func TestIdleShardPullsRunNoCommand(t *testing.T) {
	for _, m := range idleModes {
		t.Run(m.name, func(t *testing.T) {
			e := newIdleTest(t, m.steal)
			defer e.Close()
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			executed := func() []uint64 {
				out := make([]uint64, len(e.shards))
				for i, s := range e.shards {
					out[i] = s.executed.Load()
				}
				return out
			}
			before := executed()
			for i := 0; i < 1000; i++ {
				if _, ok := e.DequeueNext(); ok {
					t.Fatal("DequeueNext served a packet from an empty engine")
				}
				if _, ok := e.DequeueNextView(); ok {
					t.Fatal("DequeueNextView served a packet from an empty engine")
				}
				if got := e.DequeueNextBatch(64); len(got) != 0 {
					t.Fatalf("DequeueNextBatch served %d packets from an empty engine", len(got))
				}
				if got := e.DequeueNextViewBatch(64); len(got) != 0 {
					t.Fatalf("DequeueNextViewBatch served %d packets from an empty engine", len(got))
				}
				if err := e.Drain(); err != nil {
					t.Fatal(err)
				}
			}
			after := executed()
			for i := range before {
				if after[i] != before[i] {
					t.Errorf("shard %d executed %d commands during idle pulls and drains", i, after[i]-before[i])
				}
			}

			const flow = 3
			if err := e.EnqueueAsync(flow, make([]byte, 100)); err != nil {
				t.Fatal(err)
			}
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
			si := e.ShardOf(flow)
			if got := executed()[si]; got <= after[si] {
				t.Fatalf("shard %d executed count %d did not move past %d after a posted enqueue", si, got, after[si])
			}
		})
	}
}
