package main

import "testing"

func TestSplitJoinsSpansByPacket(t *testing.T) {
	tr := &tracer{sampleEvery: 1}
	prod, cons := tr.recorder(), tr.recorder()
	prod.keep(span{kind: spanIngest, flow: 3, seq: 7, cause: -1, start: 100, end: 110})
	prod.keep(span{kind: spanIngest, flow: 9, seq: 1, cause: -1, start: 100, end: 110})
	deq := cons.keep(span{kind: spanDequeue, flow: batchFlow, seq: 1, cause: -1, start: 150, end: 170})
	cons.keep(span{kind: spanSink, flow: 3, seq: 7, cause: deq, start: 172, end: 180})
	cons.keep(span{kind: spanSink, flow: 9, seq: 1, cause: deq, start: 180, end: 190}) // not conforming
	cons.keep(span{kind: spanSink, flow: 4, seq: 0, cause: -1, start: 1, end: 2})      // no ingest span
	d := tr.split(8)
	if d.ingest.n != 1 {
		t.Fatalf("joined %d packets, want 1", d.ingest.n)
	}
	got := []int64{d.ingest.vals[0], d.residence.vals[0], d.egress.vals[0], d.sink.vals[0]}
	want := []int64{10, 40, 20, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("split %v, want %v", got, want)
		}
	}
	if kept, lost := tr.kept(); kept != 6 || lost != 0 {
		t.Fatalf("kept %d lost %d", kept, lost)
	}
}
