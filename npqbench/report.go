package main

import (
	"fmt"
	"io"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; benchmark_test.go keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced run's metrics: what a user of the engine sees.
var endToEnd = []metricDef{
	{"throughput_mpps", "Mpps"},
	{"goodput_gbps", "Gbit/s"},
	{"latency_p50_us", "us"},
	{"cpu_ns_per_pkt", "ns/pkt"},
	{"alloc_bytes_per_pkt", "B/pkt"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
}

// ungated are the untraced run's further metrics, printed and recorded
// with --out but kept out of BENCHMARK.json: latency_p99_us moves by
// several times between runs of the ring workload on a shared 2-vCPU host
// (its closed loop has ~2 packets in flight, so the tail is the host's
// wake-up latency), and loss_pct and gen_lag_p99_us read 0 by design on
// some workloads.
var ungated = []metricDef{
	{"latency_p99_us", "us"},
	{"latency_samples", "samples"},
	{"loss_pct", "%"},
	{"gen_lag_p99_us", "us"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reads 0.
var perLayer = []metricDef{
	{"npqm.ingest_ns_p50", "ns"},
	{"npqm.ingest_ns_p99", "ns"},
	{"npqm.reserve_ns_mean", "ns"},
	{"npqm.commit_ns_mean", "ns"},
	{"npqm.dequeue_ns_per_pkt", "ns/pkt"},
	{"npqm.release_ns_per_pkt", "ns/pkt"},
	{"npqm.batch_fill_pct", "%"},
	{"npqm.empty_poll_pct", "%"},
	{"npqm.ingest_wait_ns_per_pkt", "ns/pkt"},
	{"npqm.ingest_retry_per_kpkt", "1/kpkt"},
	{"npqm.sink_ns_per_pkt", "ns/pkt"},
	{"segstore.segs_per_pkt", "seg/pkt"},
	{"segstore.free_min_pct", "%"},
	{"segstore.lent_peak", "segments"},
	{"queue.occupancy_peak_pct", "%"},
	{"policy.drop_pct", "%"},
	{"policy.pushout_pct", "%"},
	{"policy.rejected_pct", "%"},
	{"ring.occupancy_mean", "commands"},
	{"ring.occupancy_peak", "commands"},
	{"ring.coalesced_wakes_per_kpkt", "1/kpkt"},
	{"pacer.throttled_per_kpkt", "1/kpkt"},
	{"pacer.rate_attained_pct", "%"},
	{"pacer.gap_mean_us", "us"},
	{"pacer.gap_p99_us", "us"},
	{"pacer.coalesced_wakes_per_kpkt", "1/kpkt"},
	{"engine.copied_bytes_per_pkt", "B/pkt"},
	{"engine.unattributed_cpu_ns_per_pkt", "ns/pkt"},
	{"go.gc_cycles_per_mpkt", "1/Mpkt"},
	{"go.gc_pause_us_per_mpkt", "us/Mpkt"},
	{"gen.lag_us_p99", "us"},
	{"delay.ingest_us_p50", "us"},
	{"delay.residence_us_p50", "us"},
	{"delay.residence_us_p99", "us"},
	{"delay.egress_us_p50", "us"},
	{"delay.sink_us_p50", "us"},
	{"trace.overhead_pct", "%"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowed holds the per-window series the end-to-end medians come from.
type windowed struct {
	tput, goodput, cpu, alloc, p50, p99 []float64
	latSamples                          uint64
}

func (o *outcome) windowed() windowed {
	var s windowed
	for i := 1; i < len(o.snaps); i++ {
		a, b := o.snaps[i-1], o.snaps[i]
		secs := float64(b.t-a.t) / 1e9
		pkts := float64(b.pkts - a.pkts)
		s.tput = append(s.tput, pkts/secs/1e6)
		s.goodput = append(s.goodput, float64(b.bytes-a.bytes)*8/secs/1e9)
		s.cpu = append(s.cpu, ratio(float64(b.cpuNs-a.cpuNs), pkts))
		s.alloc = append(s.alloc, ratio(float64(b.allocBytes-a.allocBytes), pkts))
		var ss []*sampler
		for _, rx := range o.rxs {
			ss = append(ss, rx.lat[i-1])
		}
		s.latSamples += count(ss)
		if q := quantiles(ss, 0.50, 0.99); q != nil {
			s.p50 = append(s.p50, q[0]/1e3)
			s.p99 = append(s.p99, q[1]/1e3)
		}
	}
	return s
}

// endToEndValues are the untraced metrics of o.
// pooled joins the window series of the segments of one run.
func pooled(segs []*outcome) windowed {
	var p windowed
	for _, o := range segs {
		s := o.windowed()
		p.tput = append(p.tput, s.tput...)
		p.goodput = append(p.goodput, s.goodput...)
		p.cpu = append(p.cpu, s.cpu...)
		p.alloc = append(p.alloc, s.alloc...)
		p.p50 = append(p.p50, s.p50...)
		p.p99 = append(p.p99, s.p99...)
		p.latSamples += s.latSamples
	}
	return p
}

// endToEndValues are the untraced metrics of one run's segments.
func endToEndValues(segs []*outcome) map[string]float64 {
	s := pooled(segs)
	var setups []float64
	var rss int64
	for _, o := range segs {
		setups = append(setups, o.setups...)
		rss = max(rss, o.maxRSS)
	}
	return map[string]float64{
		"throughput_mpps":     median(s.tput),
		"goodput_gbps":        median(s.goodput),
		"latency_p50_us":      median(s.p50),
		"cpu_ns_per_pkt":      median(s.cpu),
		"alloc_bytes_per_pkt": median(s.alloc),
		"max_rss_mb":          float64(rss) / 1024,
		"setup_s":             median(setups),
	}
}

// ungatedValues are the untraced run's further metrics.
func ungatedValues(segs []*outcome) map[string]float64 {
	s := pooled(segs)
	var failed, offered uint64
	var lags []*sampler
	for _, o := range segs {
		failed += o.failed()
		offered += o.tally.offered
		if o.genLag != nil {
			lags = append(lags, o.genLag)
		}
	}
	v := map[string]float64{
		"latency_p99_us":  median(s.p99),
		"latency_samples": float64(s.latSamples),
		"loss_pct":        ratio(float64(failed), float64(offered)) * 100,
		"gen_lag_p99_us":  0, // closed loops have no schedule to lag
	}
	if q := quantiles(lags, 0.99); q != nil {
		v["gen_lag_p99_us"] = q[0] / 1e3
	}
	return v
}

// failed is the run's failure count: conforming packets lost plus
// unexpected API errors on other traffic.
func (o *outcome) failed() uint64 { return o.tally.conformLost + o.tally.otherFailed }

// ledgerRow is one line of the traced run's per-packet CPU account, in ns
// per delivered packet: span self time of one call family, or the
// residual.
type ledgerRow struct {
	name  string
	nsPkt float64
}

func (o *outcome) ledger() (rows []ledgerRow, cpuPkt float64) {
	ns, _ := o.tr.totals()
	pkts := float64(o.tally.delivered)
	per := func(k spanKind) float64 { return ratio(float64(ns[k]), pkts) }
	engineIngest := per(spanEnqueue) + per(spanReserve) + per(spanCommit)
	rows = []ledgerRow{
		{"npqm ingest (EnqueuePacket | ReservePacket+Commit)", engineIngest},
		{"bench fill (stamp + payload write)", per(spanIngest) - engineIngest},
		{"bench wait (window full or pool empty)", per(spanWait)},
		{"npqm dequeue (DequeueNext[View]Batch)", per(spanDequeue)},
		{"bench idle (yield after empty poll)", per(spanIdle)},
		{"npqm release (ReleaseBuffer | ReleaseViews)", per(spanRelease)},
		{"bench sink (read + check)", per(spanSink)},
	}
	cpuPkt = ratio(float64(o.cpuRun), pkts)
	sum := 0.0
	for _, r := range rows {
		sum += r.nsPkt
	}
	// Spans are wall time, so time a goroutine spent off-CPU inside one
	// (parked on a shard mutex, descheduled) counts against the residual,
	// which can then go negative.
	rows = append(rows, ledgerRow{"unattributed (engine goroutines + runtime - off-CPU in spans)", cpuPkt - sum})
	return rows, cpuPkt
}

// perLayerValues are the traced metrics of o; base is the untraced run of
// the same workload, for the tracing overhead.
func perLayerValues(o, base *outcome) map[string]float64 {
	ns, calls := o.tr.totals()
	st := o.stats
	t := o.tally
	pkts := float64(t.delivered)
	offered := float64(t.offered)
	pool := float64(o.w.eng.segments)
	v := map[string]float64{}

	var ing []*sampler
	for _, r := range o.tr.recs {
		ing = append(ing, r.engIngest)
	}
	if q := quantiles(ing, 0.50, 0.99); q != nil {
		v["npqm.ingest_ns_p50"], v["npqm.ingest_ns_p99"] = q[0], q[1]
	}
	v["npqm.reserve_ns_mean"] = ratio(float64(ns[spanReserve]), float64(calls[spanReserve]))
	v["npqm.commit_ns_mean"] = ratio(float64(ns[spanCommit]), float64(calls[spanCommit]))
	v["npqm.dequeue_ns_per_pkt"] = ratio(float64(ns[spanDequeue]), pkts)
	v["npqm.release_ns_per_pkt"] = ratio(float64(ns[spanRelease]), pkts)
	if polls := float64(calls[spanDequeue]); polls > 0 {
		empty := float64(calls[spanIdle])
		v["npqm.batch_fill_pct"] = ratio(pkts, (polls-empty)*float64(o.w.batch)) * 100
		v["npqm.empty_poll_pct"] = empty / polls * 100
	}
	v["npqm.ingest_wait_ns_per_pkt"] = ratio(float64(ns[spanWait]), pkts)
	v["npqm.ingest_retry_per_kpkt"] = ratio(float64(t.retries), offered) * 1000
	v["npqm.sink_ns_per_pkt"] = ratio(float64(ns[spanSink]), pkts)

	v["segstore.segs_per_pkt"] = ratio(float64(st.EnqueuedSegments), float64(st.EnqueuedPackets))
	v["segstore.free_min_pct"] = float64(o.occ.freeMin) / pool * 100
	v["segstore.lent_peak"] = float64(o.occ.lentPeak)
	v["queue.occupancy_peak_pct"] = float64(o.occ.usedPeak) / pool * 100
	v["policy.drop_pct"] = ratio(float64(st.DroppedPackets), offered) * 100
	v["policy.pushout_pct"] = ratio(float64(st.PushedOutPackets), offered) * 100
	v["policy.rejected_pct"] = ratio(float64(st.Rejected), offered) * 100

	v["ring.occupancy_mean"] = ratio(float64(o.occ.ringSum), float64(o.occ.n))
	v["ring.occupancy_peak"] = float64(o.occ.ringPeak)
	// Stats.CoalescedWakes sums ring-completion and pacer-notify merges.
	// No workload runs both the ring datapath and served ports, so the
	// total belongs to whichever of the two the workload uses.
	coalesced := ratio(float64(st.CoalescedWakes), pkts) * 1000
	push := o.w.qos != nil
	if o.w.eng.ring {
		v["ring.coalesced_wakes_per_kpkt"] = coalesced
	}
	if push {
		v["pacer.coalesced_wakes_per_kpkt"] = coalesced
		v["pacer.throttled_per_kpkt"] = ratio(float64(st.Throttled), float64(st.TransmittedPackets)) * 1000
		v["pacer.rate_attained_pct"] = o.rateAttained()
		var gapSum, gapN float64
		var p99s []float64
		for _, p := range o.ports {
			if p.GapSamples == 0 {
				continue
			}
			gapSum += float64(p.MeanGapNs) * float64(p.GapSamples)
			gapN += float64(p.GapSamples)
			p99s = append(p99s, float64(p.P99GapNs))
		}
		v["pacer.gap_mean_us"] = ratio(gapSum, gapN) / 1e3
		v["pacer.gap_p99_us"] = median(p99s) / 1e3
	}
	v["engine.copied_bytes_per_pkt"] = ratio(float64(st.CopiedBytes), pkts)
	rows, _ := o.ledger()
	v["engine.unattributed_cpu_ns_per_pkt"] = rows[len(rows)-1].nsPkt

	first, last := o.snaps[0], o.snaps[len(o.snaps)-1]
	winPkts := float64(last.pkts - first.pkts)
	v["go.gc_cycles_per_mpkt"] = ratio(float64(o.gcCount), winPkts) * 1e6
	v["go.gc_pause_us_per_mpkt"] = ratio(float64(o.gcPause)/1e3, winPkts) * 1e6
	if o.genLag != nil {
		if q := quantiles([]*sampler{o.genLag}, 0.99); q != nil {
			v["gen.lag_us_p99"] = q[0] / 1e3
		}
	}

	d := o.tr.split(o.conform)
	p50 := func(s *sampler) float64 {
		if q := quantiles([]*sampler{s}, 0.50); q != nil {
			return q[0] / 1e3
		}
		return 0
	}
	v["delay.ingest_us_p50"] = p50(d.ingest)
	v["delay.residence_us_p50"] = p50(d.residence)
	if q := quantiles([]*sampler{d.residence}, 0.99); q != nil {
		v["delay.residence_us_p99"] = q[0] / 1e3
	}
	v["delay.egress_us_p50"] = p50(d.egress)
	v["delay.sink_us_p50"] = p50(d.sink)

	// Tracing overhead: lost throughput on the closed loops, extra CPU per
	// packet on the shaped workload, whose throughput the shapers pin.
	bw, tw := base.windowed(), o.windowed()
	if push {
		b := median(bw.cpu)
		v["trace.overhead_pct"] = ratio(median(tw.cpu)-b, b) * 100
	} else {
		b := median(bw.tput)
		v["trace.overhead_pct"] = ratio(b-median(tw.tput), b) * 100
	}
	for _, m := range perLayer {
		if _, ok := v[m.name]; !ok {
			v[m.name] = 0
		}
	}
	return v
}

// printMetrics writes one "name value unit" line per metric.
func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64) {
	for _, m := range defs {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.name, vals[m.name], m.unit)
	}
}

// printLedger writes the traced run's CPU ledger.
func printLedger(w io.Writer, o *outcome, overhead float64) {
	rows, cpuPkt := o.ledger()
	fmt.Fprintf(w, "ledger (ns per delivered packet, traced run; trace.overhead_pct %.2f):\n", overhead)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-62s %10.1f  %6.1f%%\n", r.name, r.nsPkt, ratio(r.nsPkt, cpuPkt)*100)
	}
	fmt.Fprintf(w, "  %-62s %10.1f  %6.1f%%\n", "cpu_ns_per_pkt (whole traced run)", cpuPkt, 100.0)
}

// printDelay writes the sampled packets' delay split beside the paper's
// Table 5 columns.
func printDelay(w io.Writer, o *outcome) {
	d := o.tr.split(o.conform)
	fmt.Fprintf(w, "delay split (us, %d sampled conforming packets; paper Table 5 column in brackets):\n", d.ingest.n)
	rows := []struct {
		name, paper string
		s           *sampler
	}{
		{"ingest call", "execution: enqueue command", d.ingest},
		{"queue residence", "FIFO: waiting to be served", d.residence},
		{"egress call", "execution: dequeue command", d.egress},
		{"sink", "data: payload read out", d.sink},
	}
	if o.w.qos != nil {
		fmt.Fprintln(w, "  (push delivery: the pacer's pick and shaper wait are inside queue residence)")
	}
	for _, r := range rows {
		q := quantiles([]*sampler{r.s}, 0.50, 0.99)
		if q == nil {
			q = []float64{0, 0}
		}
		fmt.Fprintf(w, "  %-16s p50 %10.2f  p99 %10.2f  [%s]\n", r.name, q[0]/1e3, q[1]/1e3, r.paper)
	}
}
