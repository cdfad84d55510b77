package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"npqm"
	"npqm/internal/traffic"
)

// workload is one named traffic shape. Workloads reach the engine only
// through the adapter.
type workload struct {
	name, why string
	eng       engineCfg
	sizes     traffic.SizeMixConfig
	dist      traffic.FlowDistConfig // closed loop: the flow picker
	window    int                    // closed loop: packets in flight
	// inline runs the closed loop's producer and consumer on one
	// goroutine, which pulls a batch whenever the window is full.
	inline bool
	batch  int       // pull consumer's batch size
	qos    *qosShape // open loop, push delivery
	// sampleEvery is the traced run's span sampling period in packets, a
	// power of two sized to keep ~10K sampled packets in a 5 s traced run.
	sampleEvery uint64
}

// qosShape is the open-loop two-tenant overload. Tenant A owns flows
// [0, tenantFlows) and offers aLoad of the ports' capacity spread over all
// of them; tenant B owns [tenantFlows, 2*tenantFlows) and offers bLoad of
// the capacity over its first bFlows flows only, so its queues grow long
// and are the ones LQD pushes out.
type qosShape struct {
	tenantFlows int
	bFlows      int
	classes     int
	aLoad       float64
	bLoad       float64
}

var workloads = []*workload{
	{
		name:        "pps64-copy-sync",
		why:         "64 B packets over 32K uniform flows, sync datapath, copy delivery: per-packet fixed cost (facade, shard lock, queue link, flat pick, copy) dominates",
		eng:         engineCfg{flows: npqm.DefaultFlows, segments: 1 << 16, shards: 2},
		sizes:       traffic.SizeMixConfig{Kind: traffic.MixFixed, Fixed: 64},
		dist:        traffic.FlowDistConfig{Kind: traffic.FlowUniform, Flows: npqm.DefaultFlows},
		window:      512,
		batch:       64,
		sampleEvery: 256,
		// One goroutine both offers and pulls, so the run measures the
		// per-packet fixed cost alone: with a second goroutine the two
		// hand the shard mutexes back and forth, and the park/wake cost
		// of that handoff on a shared 2-vCPU host moved run medians by
		// 20% from one run to the next.
		inline: true,
	},
	{
		name:        "mtu1500-view-ring",
		why:         "1500 B packets (24 segments) over Zipf flows, ring datapath, write-in-place ingest and view delivery: per-segment and cross-goroutine cost dominates",
		eng:         engineCfg{flows: npqm.DefaultFlows, segments: 1 << 15, shards: 2, ring: true, view: true},
		sizes:       traffic.SizeMixConfig{Kind: traffic.MixFixed, Fixed: 1500},
		dist:        traffic.FlowDistConfig{Kind: traffic.FlowZipf, Flows: npqm.DefaultFlows, Skew: 1.2},
		window:      256,
		batch:       64,
		sampleEvery: 32,
	},
	{
		name: "qos-shaped-overload",
		why:  "open-loop IMIX over 2^18 flows, tenant-class-flow hierarchy on 16 shaped ports, LQD on a small pool: a conforming tenant must be isolated from an overloading one",
		eng: engineCfg{
			flows: 1 << 18, segments: 1 << 14, shards: 2, view: true,
			admission: npqm.LQD(),
			egress: npqm.TenantLayer(
				npqm.ClassLayer(npqm.DRREgress(1500), 8, npqm.EgressWRR, 4, 4, 2, 2, 1, 1, 1, 1),
				2, npqm.EgressWRR, 3, 1),
			ports:    16,
			portRate: 1 << 20,
		},
		sizes:       traffic.SizeMixConfig{Kind: traffic.MixIMIX},
		sampleEvery: 8,
		// A offers half of its 3/4 weighted share; B offers 1.5x the
		// capacity A leaves it.
		qos: &qosShape{tenantFlows: 1 << 17, bFlows: 64, classes: 8, aLoad: 0.375, bLoad: 1.5 * 0.625},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	// An untraced run measures segments fresh engines one after another
	// and pools their windows: one engine instance can settle into a
	// faster or slower regime for its whole life (memory placement, lock
	// handoff pattern), and pooling several keeps a run's medians from
	// following one instance.
	segments     = 5
	setupReps    = 3 // set-ups per segment; setup_s is the median of all
	warmup       = 500 * time.Millisecond
	windows      = 20 // measured sub-windows per segment; most metrics are their median
	drainTimeout = 30 * time.Second
	probeEvery   = time.Millisecond // traced runs: occupancy sampling period
)

// snapshot is the process-wide state at one window boundary.
type snapshot struct {
	t           int64 // ns since epoch
	pkts, bytes uint64
	cpuNs       int64
	allocBytes  uint64
}

// occupancy is what the traced run samples from the atomic getters.
type occupancy struct {
	freeMin, lentPeak, usedPeak int
	ringSum, ringPeak, n        int
}

// outcome is everything one run measured.
type outcome struct {
	w       *workload
	setups  []float64 // seconds
	snaps   []snapshot
	rxs     []*receiver
	genLag  *sampler // open loop: ns late per packet
	tally   tally
	stats   npqm.EngineStats
	ports   []npqm.PortStat
	checks  []error
	gcCount uint64
	gcPause uint64 // ns
	maxRSS  int64  // KiB
	cpuRun  int64  // process CPU ns from the end of set-up to the drain
	conform uint32 // flows below this carry conforming traffic
	occ     occupancy
	tr      *tracer
}

// run measures w for dur after set-up and warm-up; tr is nil when untraced.
func run(w *workload, seed uint64, dur time.Duration, tr *tracer) (*outcome, error) {
	if w.qos != nil {
		return runOpen(w, seed, dur, tr)
	}
	return runClosed(w, seed, dur, tr)
}

// setup builds the engine setupReps times, closing all but the last, and
// records each build's time. build covers construction, flow mapping and
// sink registration.
func (o *outcome) setup(build func() (*adapter, error)) (*adapter, error) {
	var a *adapter
	for i := 0; i < setupReps; i++ {
		if a != nil {
			if err := a.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if a, err = build(); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
	}
	return a, nil
}

var allocMetric = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func (o *outcome) snap() snapshot {
	s := snapshot{t: nanotime(), cpuNs: cpuNow()}
	for _, rx := range o.rxs {
		s.pkts += rx.pkts.Load()
		s.bytes += rx.bytes.Load()
	}
	metrics.Read(allocMetric)
	s.allocBytes = allocMetric[0].Value.Uint64()
	return s
}

// measure runs the warm-up and the measured windows on the calling
// goroutine, advancing win so receivers file latency per window. probe,
// when non-nil, is called every probeEvery.
func (o *outcome) measure(win *atomic.Int32, dur time.Duration, probe func()) {
	sleepUntil := func(t int64) {
		for {
			left := time.Duration(t - nanotime())
			if left <= 0 {
				return
			}
			if probe != nil {
				probe()
				left = min(left, probeEvery)
			}
			time.Sleep(left)
		}
	}
	win.Store(-1)
	sleepUntil(nanotime() + int64(warmup))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	o.snaps = append(o.snaps, o.snap())
	start := o.snaps[0].t
	for i := 0; i < windows; i++ {
		win.Store(int32(i))
		sleepUntil(start + int64(dur)*int64(i+1)/windows)
		o.snaps = append(o.snaps, o.snap())
	}
	win.Store(windows)
	runtime.ReadMemStats(&ms1)
	o.gcCount = uint64(ms1.NumGC - ms0.NumGC)
	o.gcPause = ms1.PauseTotalNs - ms0.PauseTotalNs
}

// prober samples the engine's atomic occupancy getters.
func (o *outcome) prober(a *adapter) func() {
	pool := o.w.eng.segments
	o.occ.freeMin = pool
	return func() {
		free, lent, ring := a.freeSegments(), a.lentSegments(), a.ringOccupancy()
		o.occ.freeMin = min(o.occ.freeMin, free)
		o.occ.lentPeak = max(o.occ.lentPeak, lent)
		o.occ.usedPeak = max(o.occ.usedPeak, pool-free-lent)
		o.occ.ringSum += ring
		o.occ.ringPeak = max(o.occ.ringPeak, ring)
		o.occ.n++
	}
}

// finish closes the engine and runs the checks every workload shares.
// cpu0 is the process CPU time when traffic started.
func (o *outcome) finish(a *adapter, cpu0 int64, sent []uint32, next []uint32, conform uint32, push bool) {
	o.cpuRun = cpuNow() - cpu0
	o.conform = conform
	closeErr := a.close()
	o.stats = a.stats()
	o.ports = a.portStats()
	var gaps, conformGaps uint64
	for _, rx := range o.rxs {
		o.tally.delivered += rx.pkts.Load()
		gaps += rx.gaps
		conformGaps += rx.conformGaps
		if rx.err != nil {
			o.checks = append(o.checks, fmt.Errorf("%d packets failed the order or payload check; first: %w", rx.bad, rx.err))
		}
	}
	settle(&o.tally, sent, next, conform, gaps, conformGaps)
	if closeErr != nil {
		o.checks = append(o.checks, fmt.Errorf("close: %w", closeErr))
	}
	if err := checkConservation(o.tally, o.stats, push); err != nil {
		o.checks = append(o.checks, err)
	}
	if err := checkDrained(a.checkInvariants(), a.lentSegments()); err != nil {
		o.checks = append(o.checks, err)
	}
	if err := checkConformingLoss(o.tally); err != nil {
		o.checks = append(o.checks, err)
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		o.maxRSS = ru.Maxrss
	}
}

// runClosed is the closed loop: a producer keeps w.window packets in
// flight and a consumer pulls batches, on two goroutines or, inline, on
// one.
func runClosed(w *workload, seed uint64, dur time.Duration, tr *tracer) (*outcome, error) {
	o := &outcome{w: w, tr: tr}
	dist := w.dist
	dist.Seed = seed
	fd, err := traffic.NewFlowDist(dist)
	if err != nil {
		return nil, err
	}
	sizes := w.sizes
	sizes.Seed = seed
	mix, err := traffic.NewSizeMix(sizes)
	if err != nil {
		return nil, err
	}
	a, err := o.setup(func() (*adapter, error) { return newAdapter(w.eng) })
	if err != nil {
		return nil, err
	}
	prod, cons := tr.recorder(), tr.recorder()
	cpu0 := cpuNow()
	var win atomic.Int32
	next := make([]uint32, w.eng.flows)
	rx := newReceiver(next, uint32(w.eng.flows), &win, windows, 1, cons)
	o.rxs = []*receiver{rx}
	sent := make([]uint32, w.eng.flows)

	var (
		delivered         atomic.Uint64
		stop, done, abort atomic.Bool
		target            atomic.Uint64
		firstErr          error
	)
	t := &o.tally
	window := uint64(w.window)
	// offer ingests one packet, retrying while the pool is exhausted.
	offer := func() {
		flow := fd.Next()
		st := stamp{flow: flow, seq: sent[flow], n: mix.Next()}
		sent[flow]++
		st.t = nanotime()
		for !abort.Load() {
			err := a.ingest(prod, &st)
			if err == nil {
				break
			}
			if errors.Is(err, npqm.ErrNoFreeSegments) {
				t.retries++
				t0 := prod.now()
				runtime.Gosched()
				prod.add(spanWait, t0, prod.now())
				continue
			}
			t.failed++
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		t.offered++
	}
	p := a.puller()
	// pull serves one batch and returns its size.
	pull := func() int {
		n := p.dequeue(cons, w.batch)
		if n == 0 {
			return 0
		}
		for i := 0; i < n; i++ {
			d := p.packet(i)
			rx.take(&d, p)
		}
		p.release(cons)
		delivered.Add(uint64(n))
		return n
	}
	// produce keeps the window full until stopped. Inline, a full window
	// is the cue to pull a batch; otherwise it waits for the consumer.
	produce := func(inline bool) {
		for !stop.Load() {
			if t.offered-delivered.Load() < window {
				offer()
				continue
			}
			if inline {
				pull()
				continue
			}
			t0 := prod.now()
			for t.offered-delivered.Load() >= window && !stop.Load() {
				runtime.Gosched()
			}
			prod.add(spanWait, t0, prod.now())
		}
		target.Store(t.offered - t.failed)
		done.Store(true)
	}
	// consume pulls until every offered packet is delivered.
	consume := func() {
		for !abort.Load() {
			if pull() > 0 {
				continue
			}
			if done.Load() && delivered.Load() >= target.Load() {
				return
			}
			t0 := cons.now()
			runtime.Gosched()
			cons.add(spanIdle, t0, cons.now())
		}
	}
	var wg sync.WaitGroup
	if w.inline {
		wg.Add(1)
		go func() {
			defer wg.Done()
			produce(true)
			consume()
		}()
	} else {
		wg.Add(2)
		go func() {
			defer wg.Done()
			consume()
		}()
		go func() {
			defer wg.Done()
			produce(false)
		}()
	}
	var probe func()
	if tr != nil {
		probe = o.prober(a)
	}
	o.measure(&win, dur, probe)
	stop.Store(true)
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
		abort.Store(true)
		<-drained
		o.checks = append(o.checks, fmt.Errorf("consumer still short of %d packets after %v",
			target.Load()-delivered.Load(), drainTimeout))
	}
	o.tally.conformOffered = o.tally.offered
	if firstErr != nil {
		o.checks = append(o.checks, fmt.Errorf("%d ingests failed; first: %w", o.tally.failed, firstErr))
	}
	o.finish(a, cpu0, sent, next, uint32(w.eng.flows), false)
	return o, nil
}

// runOpen is the open loop: one generator offers both tenants' packets on
// a fixed schedule, sleeping between ticks, and each shaped port pushes
// views into its own receiver.
func runOpen(w *workload, seed uint64, dur time.Duration, tr *tracer) (*outcome, error) {
	q := w.qos
	ports := w.eng.ports
	o := &outcome{w: w, tr: tr, genLag: newSampler(1 << 16)}
	var win atomic.Int32
	next := make([]uint32, w.eng.flows)
	conform := uint32(q.tenantFlows)
	for p := 0; p < ports; p++ {
		o.rxs = append(o.rxs, newReceiver(next, conform, &win, windows, ports, tr.recorder()))
	}
	pickers := func(flows int, s uint64) (*traffic.FlowDist, *traffic.SizeMix, error) {
		fd, err := traffic.NewFlowDist(traffic.FlowDistConfig{Kind: traffic.FlowUniform, Flows: flows, Seed: s})
		if err != nil {
			return nil, nil, err
		}
		sizes := w.sizes
		sizes.Seed = s
		mix, err := traffic.NewSizeMix(sizes)
		return fd, mix, err
	}
	fdA, mixA, err := pickers(q.tenantFlows, seed)
	if err != nil {
		return nil, err
	}
	fdB, mixB, err := pickers(q.bFlows, seed+1)
	if err != nil {
		return nil, err
	}
	a, err := o.setup(func() (*adapter, error) {
		a, err := newAdapter(w.eng)
		if err != nil {
			return nil, err
		}
		for f := 0; f < w.eng.flows; f++ {
			tenant := f / q.tenantFlows
			if err := a.mapFlow(uint32(f), f%ports, tenant, f/ports%q.classes); err != nil {
				a.close()
				return nil, err
			}
		}
		for p, rx := range o.rxs {
			if err := a.serve(p, func(d delivered) { rx.take(&d, nil) }); err != nil {
				a.close()
				return nil, err
			}
		}
		return a, nil
	})
	if err != nil {
		return nil, err
	}

	capacity := float64(ports) * float64(w.eng.portRate) // bytes/s
	pps := capacity * (q.aLoad + q.bLoad) / mixA.Mean()
	interval := 1e9 / pps
	shareA := q.aLoad / (q.aLoad + q.bLoad)

	gen := tr.recorder()
	sent := make([]uint32, w.eng.flows)
	cpu0 := cpuNow()
	var stop atomic.Bool
	var firstErr error
	var genWG sync.WaitGroup
	genWG.Add(1)
	go func() {
		defer genWG.Done()
		t := &o.tally
		start := nanotime()
		for i := 0; !stop.Load(); {
			now := nanotime()
			for ; !stop.Load(); i++ {
				due := start + int64(float64(i)*interval)
				if due > now {
					time.Sleep(time.Duration(due - now))
					break
				}
				// Packet i belongs to tenant A when the running A quota
				// steps up, spreading A evenly through the schedule.
				isA := math.Floor(float64(i+1)*shareA) > math.Floor(float64(i)*shareA)
				var flow uint32
				var n int
				if isA {
					flow, n = fdA.Next(), mixA.Next()
					t.conformOffered++
				} else {
					flow, n = conform+fdB.Next(), mixB.Next()
				}
				// Latency runs from the ingest start here too; how late
				// that start was against the schedule is gen_lag_p99_us.
				// Counting the lag in the latency made its median follow
				// the host's timer wake-up delay (the generator sleeps in
				// ~1 ms steps) and move 35% between runs.
				st := stamp{flow: flow, seq: sent[flow], t: now, n: n}
				sent[flow]++
				o.genLag.add(now - due)
				switch err := a.ingest(gen, &st); {
				case err == nil:
				case errors.Is(err, npqm.ErrAdmissionDrop):
					t.dropped++
				case errors.Is(err, npqm.ErrNoFreeSegments):
					t.refused++
				default:
					t.failed++
					if !isA {
						t.otherFailed++
					}
					if firstErr == nil {
						firstErr = err
					}
				}
				t.offered++
				now = nanotime()
			}
		}
	}()
	var probe func()
	if tr != nil {
		probe = o.prober(a)
	}
	o.measure(&win, dur, probe)
	stop.Store(true)
	genWG.Wait()
	// Let the shaped ports drain the backlog. Stats is safe to poll now:
	// the measured window is over.
	deadline := time.Now().Add(drainTimeout)
	for {
		var got uint64
		for _, rx := range o.rxs {
			got += rx.pkts.Load()
		}
		st := a.stats()
		if st.QueuedSegments == 0 && got == st.DequeuedPackets {
			break
		}
		if time.Now().After(deadline) {
			o.checks = append(o.checks, fmt.Errorf("%d segments still queued after %v", st.QueuedSegments, drainTimeout))
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if firstErr != nil {
		o.checks = append(o.checks, fmt.Errorf("%d ingests failed; first: %w", o.tally.failed, firstErr))
	}
	o.finish(a, cpu0, sent, next, conform, true)
	if err := checkRate(o.rateAttained()); err != nil {
		o.checks = append(o.checks, err)
	}
	return o, nil
}

// rateAttained is the share of the ports' shaped capacity delivered over
// the measured windows, in percent.
func (o *outcome) rateAttained() float64 {
	first, last := o.snaps[0], o.snaps[len(o.snaps)-1]
	capacity := float64(o.w.eng.ports) * float64(o.w.eng.portRate)
	return float64(last.bytes-first.bytes) / (float64(last.t-first.t) / 1e9) / capacity * 100
}
