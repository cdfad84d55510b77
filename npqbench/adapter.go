package main

// Every call the benchmark makes into the npqm facade is in this file, so
// a change to the facade API touches one place and the workload
// definitions stay as they are. Calls are timed here as spans when a
// recorder is given.

import (
	"npqm"
)

// engineCfg is the engine shape a workload asks for.
type engineCfg struct {
	flows, segments, shards int
	ring                    bool // command-ring datapath (Start)
	view                    bool // write-in-place ingest and zero-copy delivery
	admission               npqm.AdmissionConfig
	egress                  npqm.EgressConfig
	ports                   int
	portRate                int64 // bytes/s on every port, 0 = unshaped
}

// adapter is one engine plus the producer's ingest state.
type adapter struct {
	cm     *npqm.ConcurrentQueueManager
	view   bool
	stage  []byte // copy ingest's staging buffer
	fl     filler
	fillFn func([]byte) bool
}

func newAdapter(c engineCfg) (*adapter, error) {
	var rate npqm.ShaperConfig
	if c.portRate > 0 {
		rate = npqm.PortShaper(c.portRate, 0)
	}
	cm, err := npqm.NewConcurrentEngine(npqm.ConcurrentConfig{
		Flows:     c.flows,
		Segments:  c.segments,
		Shards:    c.shards,
		Admission: c.admission,
		Egress:    c.egress,
		Ports:     c.ports,
		PortRate:  rate,
	})
	if err != nil {
		return nil, err
	}
	if c.ring {
		if err := cm.Start(); err != nil {
			cm.Close()
			return nil, err
		}
	}
	a := &adapter{cm: cm, view: c.view, stage: make([]byte, maxPacket)}
	a.fillFn = a.fl.fill
	return a, nil
}

// mapFlow homes flow q on a port, a tenant and a class.
func (a *adapter) mapFlow(q uint32, port, tenant, class int) error {
	if err := a.cm.SetFlowPort(q, port); err != nil {
		return err
	}
	if err := a.cm.SetFlowTenant(q, tenant); err != nil {
		return err
	}
	return a.cm.SetFlowClass(q, class)
}

// ingest offers one packet: EnqueuePacket from a staging buffer, or
// ReservePacket, fill in place and Commit.
func (a *adapter) ingest(rec *recorder, st *stamp) error {
	t0 := rec.now()
	var err error
	var eng int64 // engine time of this ingest
	if !a.view {
		buf := a.stage[:st.n]
		st.fill(buf, 0)
		t1 := rec.now()
		_, err = a.cm.EnqueuePacket(st.flow, buf)
		t2 := rec.now()
		rec.add(spanEnqueue, t1, t2)
		eng = t2 - t1
	} else {
		var r npqm.Reservation
		r, err = a.cm.ReservePacket(st.flow, st.n)
		t1 := rec.now()
		rec.add(spanReserve, t0, t1)
		eng = t1 - t0
		if err == nil {
			a.fl = filler{st: *st}
			r.Range(a.fillFn)
			t2 := rec.now()
			if err = r.Commit(); err != nil {
				_ = r.Abort() // the commit error is the one to report
			}
			t3 := rec.now()
			rec.add(spanCommit, t2, t3)
			eng += t3 - t2
		}
	}
	if rec != nil {
		end := rec.now()
		rec.add(spanIngest, t0, end)
		if err == nil {
			rec.engIngest.add(eng)
			if rec.sampled(st.flow, st.seq) {
				rec.keep(span{kind: spanIngest, flow: st.flow, seq: st.seq, cause: -1, start: t0, end: end})
			}
		}
	}
	return err
}

// delivered is one packet handed to the benchmark, whichever delivery
// path produced it.
type delivered struct {
	flow uint32
	n    int
	data []byte          // copy delivery
	view npqm.PacketView // zero-copy delivery
}

func (d *delivered) chunks(fn func([]byte) bool) {
	if d.data != nil {
		fn(d.data)
		return
	}
	d.view.Range(fn)
}

// puller is the consumer side of pull-mode delivery: it holds the batch
// the last dequeue returned until release.
type puller struct {
	a          *adapter
	copies     []npqm.DequeuedPacket
	views      []npqm.DequeuedView
	n          int
	batch      uint32
	start, end int64 // the last dequeue call
	cause      int32 // its kept span, -1 until a sampled packet needs it
}

func (a *adapter) puller() *puller { return &puller{a: a} }

// dequeue fetches up to max packets picked by the egress scheduler.
func (p *puller) dequeue(rec *recorder, max int) int {
	p.start = rec.now()
	if p.a.view {
		p.views = p.a.cm.DequeueNextViewBatch(max)
		p.n = len(p.views)
	} else {
		p.copies = p.a.cm.DequeueNextBatch(max)
		p.n = len(p.copies)
	}
	p.end = rec.now()
	rec.add(spanDequeue, p.start, p.end)
	p.batch++
	p.cause = -1
	return p.n
}

func (p *puller) packet(i int) delivered {
	if p.a.view {
		v := &p.views[i]
		return delivered{flow: v.Flow, n: v.Bytes, view: v.View}
	}
	c := &p.copies[i]
	return delivered{flow: c.Flow, n: c.Bytes, data: c.Data}
}

// causeSpan keeps the current batch's dequeue span once and returns its
// index, so sampled packets can name it as their cause.
func (p *puller) causeSpan(rec *recorder) int32 {
	if p.cause < 0 {
		p.cause = rec.keep(span{kind: spanDequeue, flow: batchFlow, seq: p.batch, cause: -1, start: p.start, end: p.end})
	}
	return p.cause
}

// release hands the batch back to the engine.
func (p *puller) release(rec *recorder) {
	t0 := rec.now()
	if p.a.view {
		p.a.cm.ReleaseViews(p.views)
	} else {
		for _, d := range p.copies {
			p.a.cm.ReleaseBuffer(d.Data)
		}
	}
	rec.add(spanRelease, t0, rec.now())
	p.n = 0
}

// serve registers fn as port's zero-copy sink; the engine drops its view
// when fn returns.
func (a *adapter) serve(port int, fn func(delivered)) error {
	return a.cm.ServeViews(port, npqm.SinkVFunc(func(_ int, v npqm.DequeuedView) error {
		fn(delivered{flow: v.Flow, n: v.Bytes, view: v.View})
		return nil
	}))
}

// The atomic occupancy getters: safe to sample while traffic flows.
func (a *adapter) freeSegments() int  { return a.cm.FreeSegments() }
func (a *adapter) lentSegments() int  { return a.cm.LentSegments() }
func (a *adapter) ringOccupancy() int { return a.cm.RingOccupancy() }

// The snapshot calls: read only after the measured window, because on the
// ring datapath they post a command to every worker.
func (a *adapter) stats() npqm.EngineStats    { return a.cm.Stats() }
func (a *adapter) portStats() []npqm.PortStat { return a.cm.PortStats() }
func (a *adapter) checkInvariants() error     { return a.cm.CheckInvariants() }

func (a *adapter) close() error { return a.cm.Close() }
