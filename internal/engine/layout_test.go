package engine

import (
	"testing"
	"unsafe"
)

// The padding audit's enforcement: every cross-thread hot word the
// multi-core pass padded must stay at least hotPad bytes from the fields
// it was separated from. Distances are asserted (not absolute alignment —
// Go's heap does not promise 64-byte base alignment), and hotPad itself
// must cover the adjacent-line prefetcher pair.

func TestHotPadCoversPrefetchPair(t *testing.T) {
	if hotPad < 128 {
		t.Fatalf("hotPad = %d, want >= 128", hotPad)
	}
}

// TestShardLayout: the worker-accounting atomics and idle mirrors are
// written by workers (and thieves) on every drain, while the mutex and
// the plain counters above them are the owner's hot state.
func TestShardLayout(t *testing.T) {
	var s shard
	offRes := unsafe.Offsetof(s.res) // last plain field before the block
	offAcct := unsafe.Offsetof(s.wCmds)
	offLast := unsafe.Offsetof(s.active)

	if d := offAcct - offRes; d < hotPad {
		t.Errorf("layout: shard accounting block only %d bytes past owner state, want >= %d", d, hotPad)
	}
	if d := unsafe.Sizeof(s) - offLast; d < hotPad {
		t.Errorf("layout: shard accounting block only %d bytes from struct end, want >= %d", d, hotPad)
	}
}

// TestPortLayout: the enqueue path loads idle per notify (and CASes it
// when the port is parked); the pacer writes tx counters per packet.
// Neither may share a line with the other or with the read-only header.
func TestPortLayout(t *testing.T) {
	var p port
	offHdr := unsafe.Offsetof(p.shardCursor)
	offCtl := unsafe.Offsetof(p.paused)
	offTx := unsafe.Offsetof(p.txPackets)

	if d := offCtl - offHdr; d < hotPad {
		t.Errorf("layout: port control words only %d bytes past header, want >= %d", d, hotPad)
	}
	if d := offTx - unsafe.Offsetof(p.sink); d < hotPad {
		t.Errorf("layout: port tx counters only %d bytes past control words, want >= %d", d, hotPad)
	}
	if d := unsafe.Sizeof(p) - offTx; d < hotPad {
		t.Errorf("layout: port tx counters only %d bytes from struct end, want >= %d", d, hotPad)
	}
}

// TestPacerLayout: the mailbox (mu/pending/wake/coalesced) takes stores
// from every producer's notify; the wheel state below it belongs to the
// pacer goroutine alone.
func TestPacerLayout(t *testing.T) {
	var pc pacer
	offHdr := unsafe.Offsetof(pc.home)
	offMu := unsafe.Offsetof(pc.mu)
	offWheel := unsafe.Offsetof(pc.state)

	if d := offMu - offHdr; d < hotPad {
		t.Errorf("layout: pacer mailbox only %d bytes past header, want >= %d", d, hotPad)
	}
	if d := offWheel - unsafe.Offsetof(pc.started); d < hotPad {
		t.Errorf("layout: pacer wheel state only %d bytes past mailbox, want >= %d", d, hotPad)
	}
}
