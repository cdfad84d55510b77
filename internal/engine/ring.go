package engine

// Shard operations and the executor that runs them. Every datapath
// operation is one command kind whose body (exec) runs inside the owning
// shard's critical section — the software rendering of the paper's MMS
// command interface, where processing elements post commands into FIFOs
// and one pipeline executes each kind. How a command reaches its shard is
// the executor's business alone (do):
//
//   - Synchronous datapath (the default): the command is built on the
//     caller's stack and exec runs under the shard mutex.
//   - Ring datapath (after Start): every shard owns a bounded MPSC command
//     ring (internal/ring) drained in batches, run to completion, by a
//     worker goroutine — the shard's single writer, so execution takes no
//     mutex. The caller posts the same command with a pooled completion
//     and parks until the worker has executed it; fan-out calls post one
//     command per touched shard under one completion and wake once.
//     EnqueueAsync and Commit post with no completion at all (post): an
//     async enqueue's outcomes (admission drops, pool rejections) are
//     visible in Stats counters, and a commit has no outcome to wait for.
//   - After Close: the workers have exited, so the command runs under the
//     now-uncontended mutex — only control-plane and observation calls
//     (opCall) still execute; datapath commands report ErrClosed.
//
// Cross-shard operations never run inside a command, so shards are never
// entered nested and workers cannot deadlock on each other: the calling
// goroutine orchestrates them as a sequence of single-shard commands (the
// LQD evict-and-retry loop, the cross-shard MovePacket
// unlink/link/rollback). The one concession is a fire-and-forget LQD
// enqueue: its worker cannot block on other shards, so it evicts from its
// own shard's longest queue when the pool is full, and drops (counted)
// when that cannot make room.

import (
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"npqm/internal/policy"
	"npqm/internal/queue"
	"npqm/internal/ring"
)

// workerBatch is how many commands a worker drains per ring pop.
const workerBatch = 256

// cmdRing is the per-shard command ring instantiation.
type cmdRing = ring.Ring[command]

// opKind discriminates commands. The datapath kinds are dedicated (no
// closure allocation); everything slow or control-plane travels as an
// opCall closure.
type opKind uint8

const (
	opEnqueue     opKind = iota // copy-in enqueue; on the ring, a nil completion means fire-and-forget
	opDequeue                   // per-flow dequeue, copied or as a view
	opDequeueNext               // egress-picked dequeue of up to arg packets on port
	opReserve                   // open an arg-byte write-in-place reservation
	opCommit                    // splice a filled reservation onto its queue (ring: posted with no completion)
	opCall                      // run fn inside the shard's critical section
	opBarrier                   // completion only: drain marker
)

// command is one shard operation. A single-shard command leaves its
// outcome in the caller's result (through the completion's result slot on
// the ring); a fan-out command (f != nil) reads and writes its shard's
// part of the shared fanout instead.
type command struct {
	kind opKind
	view bool               // opDequeue, opDequeueNext: deliver zero-copy views
	port int32              // opDequeueNext: scheduling unit to pick from (anyPort = all)
	slot int32              // fan-out: the shard's index into f.parts
	flow uint32             // single-shard kinds: the flow operated on
	arg  int                // opDequeueNext: packet budget; opReserve: byte count
	data []byte             // opEnqueue: the payload
	w    queue.PacketWriter // opCommit: the filled reservation to splice
	f    *fanout
	fn   func()
	co   *call
}

// result is a single-shard command's outcome.
type result struct {
	n    int // opEnqueue: segments linked; dequeues: payload bytes
	err  error
	flow uint32             // opDequeueNext: the flow served
	data []byte             // copy delivery: the reassembled payload
	view PacketView         // view delivery
	w    queue.PacketWriter // opReserve: the open reservation
}

// call is a completion: a countdown decremented by workers as they finish
// the commands carrying it, plus one result slot for a single-shard
// command. The poster initializes pending to the command count plus one
// (its own hold), posts, releases the hold along with any commands it
// failed to post, and parks on done unless its own release reached zero.
// Whoever brings pending to zero sends the single wakeup, so one producer
// batch costs one channel operation no matter how many commands or shards
// it spanned.
type call struct {
	pending atomic.Int32
	done    chan struct{}
	res     result
}

// finishN retires n of c's commands in one countdown decrement. Workers
// call it once per completion per drained batch (see execBatch), so a
// multi-command completion costs its poster one wakeup and the worker one
// atomic per drain, not per command.
func (c *call) finishN(n int32) {
	if c.pending.Add(-n) == 0 {
		c.done <- struct{}{}
	}
}

// waitSpins is how many scheduler yields a completion waiter makes before
// parking on the channel. Yield-polling lets the workers run and finish
// short commands without paying a full park/unpark round trip — on a
// loaded box the completion usually lands within a few yields.
const waitSpins = 64

// wait parks until the countdown's single wakeup arrives.
func (c *call) wait() {
	for i := 0; i < waitSpins; i++ {
		select {
		case <-c.done:
			return
		default:
			runtime.Gosched()
		}
	}
	<-c.done
}

// release drops n holds from the poster side and parks until the workers
// are done (skipping the park when the poster's own release reached zero —
// then every worker had already finished and nobody will signal).
func (c *call) release(n int32) {
	if c.pending.Add(-n) != 0 {
		c.wait()
	}
}

// do runs c inside s's critical section on whatever datapath is current —
// the one executor every shard operation goes through — and leaves a
// single-shard command's outcome in r (nil for opCall, which has none).
// It reports false, without running c, when the engine is closed; opCall
// always runs (after Close on the quiescent mutex path), so control-plane
// and observation calls keep working and a half-done cross-shard move
// always completes.
func (e *Engine) do(s *shard, c *command, r *result) bool {
	for {
		m := e.mode.Load()
		if m == modeRing {
			if e.postWait(s, c, r) {
				return true
			}
			// The ring closed under us. The mode flips to modeClosed only
			// after every worker has exited (see Close), so yield until the
			// flip and then re-resolve.
			runtime.Gosched()
			continue
		}
		if m == modeClosed && c.kind != opCall {
			return false
		}
		s.mu.Lock()
		if e.mode.Load() != m {
			// Start flipped the datapath under us: the workers own the
			// shards now.
			s.mu.Unlock()
			continue
		}
		e.exec(s, c, r)
		s.mu.Unlock()
		return true
	}
}

// postWait posts c to s's worker with a pooled completion and waits for
// it to execute, copying the outcome to r. It reports false when the ring
// refused the post (the engine is closing).
func (e *Engine) postWait(s *shard, c *command, r *result) bool {
	co, _ := e.callPool.Get().(*call)
	if co == nil {
		co = &call{done: make(chan struct{}, 1)}
	}
	co.pending.Store(1)
	c.co = co
	posted := s.ring.Push(*c) == nil
	c.co = nil
	if posted {
		co.wait()
		if r != nil {
			*r = co.res
		}
		co.res = result{}
	}
	e.callPool.Put(co)
	return posted
}

// post pushes c onto s's ring with no completion — the post-and-go path
// of the commands whose caller waits for no outcome (EnqueueAsync,
// Commit) — and reports whether the ring accepted it. It reports false on
// the synchronous datapath and when the ring refused the post because the
// engine is closing; the caller then runs c through do. An accepted
// command is executed before anything posted to s after it: each ring is
// FIFO, and Close drains every accepted command.
func (e *Engine) post(s *shard, c *command) bool {
	return e.mode.Load() == modeRing && s.ring.Push(*c) == nil
}

// run executes fn inside shard s's critical section — the opCall case of
// the executor, used by every control-plane and slow-path operation. fn
// captures its own results and always runs exactly once.
func (e *Engine) run(s *shard, fn func()) {
	e.do(s, &command{kind: opCall, fn: fn}, nil)
}

// fanout is the shared state of a call that spans shards: one part per
// shard, plus the request and result slices the batch kinds index through
// their parts. Pooled (each pacer keeps its own), so a fan-out call
// allocates nothing of its own.
type fanout struct {
	co    call
	parts []part
	start int    // shard the egress rotation starts on
	r     result // scratch for commands run in the caller's goroutine

	reqs    []EnqueueReq // opEnqueue
	flows   []uint32     // opDequeue
	pkts    [][]byte     // opDequeue, copied
	views   []PacketView // opDequeue, views
	errs    []error      // per-request outcomes (aligned with reqs or flows)
	errBufs []error      // EnqueueBatch's recycled error scratch, all-nil between uses
}

// part is one shard's share of a fanout.
type part struct {
	want int     // requests (per-flow batches) or packet budget (egress); 0 = not visited
	idxs []int32 // per-flow batches: this shard's request indices, in order
	segs int     // EnqueueBatch: segments linked
	deq  []Dequeued
	deqv []DequeuedView
}

// served returns how many packets the part's egress commands delivered.
func (p *part) served(view bool) int {
	if view {
		return len(p.deqv)
	}
	return len(p.deq)
}

func newFanout(shards int) *fanout {
	return &fanout{co: call{done: make(chan struct{}, 1)}, parts: make([]part, shards)}
}

func (e *Engine) getFanout() *fanout {
	if f, _ := e.fanPool.Get().(*fanout); f != nil {
		return f
	}
	return newFanout(len(e.shards))
}

func (e *Engine) putFanout(f *fanout) {
	f.reset()
	e.fanPool.Put(f)
}

// reset readies f for its next call, keeping the slices' capacity and
// dropping every reference into the previous call's packets and requests.
func (f *fanout) reset() {
	for i := range f.parts {
		p := &f.parts[i]
		clear(p.deq)
		clear(p.deqv)
		p.want, p.segs = 0, 0
		p.idxs, p.deq, p.deqv = p.idxs[:0], p.deq[:0], p.deqv[:0]
	}
	f.reqs, f.flows, f.pkts, f.views, f.errs = nil, nil, nil, nil, nil
}

// fanOut runs cmd once on every shard whose part has work, each command
// reading its share of f through cmd.slot. On the ring datapath it posts
// them all under f's one completion and waits once; otherwise — and for
// shards whose rings refused the post because the engine is closing — it
// runs them one shard at a time through do. Requests of shards that did
// not run (the engine closed) are marked ErrClosed; the result reports
// whether every shard ran.
func (e *Engine) fanOut(f *fanout, cmd *command) bool {
	cmd.f = f
	from := 0 // first shard not yet handled
	if e.mode.Load() == modeRing {
		want := int32(0)
		for i := range f.parts {
			if f.parts[i].want > 0 {
				want++
			}
		}
		f.co.pending.Store(want + 1)
		posted := int32(0)
		for ; from < len(f.parts); from++ {
			if f.parts[from].want == 0 {
				continue
			}
			cmd.slot, cmd.arg, cmd.co = int32(from), f.parts[from].want, &f.co
			if e.shards[from].ring.Push(*cmd) != nil {
				break
			}
			posted++
		}
		f.co.release(want - posted + 1)
		cmd.co = nil
	}
	all := true
	for si := from; si < len(f.parts); si++ {
		p := &f.parts[si]
		if p.want == 0 {
			continue
		}
		cmd.slot, cmd.arg = int32(si), p.want
		if !e.do(e.shards[si], cmd, &f.r) {
			all = false
			for _, i := range p.idxs {
				f.errs[i] = ErrClosed
			}
		}
	}
	return all
}

// Start switches the engine from the synchronous to the ring datapath:
// it creates one command ring per shard, waits out every synchronous
// operation still holding a shard mutex, and launches the per-shard
// workers, which own their shards from then on. Idempotent; returns
// ErrClosed after Close. Safe to call while traffic flows — calls that
// began on the synchronous datapath finish there before the workers take
// over.
func (e *Engine) Start() error {
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	switch e.mode.Load() {
	case modeClosed:
		return ErrClosed
	case modeRing:
		return nil
	}
	for _, s := range e.shards {
		r, err := ring.New[command](e.cfg.RingCapacity)
		if err != nil {
			return err
		}
		s.ring = r
	}
	e.mode.Store(modeRing)
	// Barrier: every synchronous-path critical section entered before the
	// flip still holds its shard mutex; acquiring and releasing all of them
	// guarantees those sections have finished. Sections entered after the
	// flip re-check the mode under the lock (see do) and bail out, so
	// once this loop completes the workers are the sole shard writers.
	for _, s := range e.shards {
		s.mu.Lock()
	}
	for _, s := range e.shards {
		s.mu.Unlock()
	}
	e.workers.Add(len(e.shards))
	for i := range e.shards {
		go e.worker(i)
	}
	return nil
}

// Drain blocks until every command posted before the call has been
// executed: it fans a barrier command out to every shard ring and waits
// for the full countdown. On the synchronous datapath it is a no-op (nil);
// after Close it reports ErrClosed (Close itself drains).
func (e *Engine) Drain() error {
	switch e.mode.Load() {
	case modeSync:
		return nil
	case modeClosed:
		return ErrClosed
	}
	f := e.getFanout()
	for i := range f.parts {
		f.parts[i].want = 1
	}
	all := e.fanOut(f, &command{kind: opBarrier})
	e.putFanout(f)
	if !all {
		return ErrClosed
	}
	return nil
}

// Close shuts the engine down. On the ring datapath it stops accepting new
// commands, lets the workers drain everything already posted (no packet or
// counter is lost), and waits for them to exit; blocked callers whose
// commands were accepted complete normally, later calls return ErrClosed.
// Port workers spawned by Serve are unparked and waited out last (a Sink
// blocked forever therefore blocks Close). Close is idempotent and safe
// to call concurrently. After Close the observation surface (Stats,
// ShardStats, PortStats, CheckInvariants, Len, Occupancy, ActiveFlows,
// FreeSegments) keeps working against the quiescent state.
func (e *Engine) Close() error {
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	switch e.mode.Load() {
	case modeClosed:
		return nil
	case modeSync:
		e.mode.Store(modeClosed)
		e.stopPorts()
		return nil
	}
	// Order matters: the mode must not read modeClosed while any worker is
	// still draining, because the closed mode is what licenses run() and
	// the observation surface to fall back to the (otherwise unused) shard
	// mutexes. Sealing the rings first makes every new post fail with
	// ErrClosed — so the datapath refuses work throughout the drain window
	// — and only after the last worker has exited does the mode flip, at
	// which point the mutex fallback cannot race a worker.
	for _, s := range e.shards {
		s.ring.Close()
	}
	e.workers.Wait()
	e.mode.Store(modeClosed)
	e.stopPorts()
	return nil
}

// stopPorts unparks every port worker and waits for them to exit; called
// exactly once, under lifeMu, after the mode flipped to modeClosed.
func (e *Engine) stopPorts() {
	close(e.portStop)
	e.portWG.Wait()
}

// Work-stealing tuning. A victim is worth visiting when its ring backlog
// is at least stealThreshold commands (half a drain batch — below that the
// owner clears it faster than a thief can take the mutex), and a thief
// bites off at most stealBatch commands per visit so the owner is never
// starved of its own ring.
const (
	stealThreshold = workerBatch / 2
	stealBatch     = workerBatch / 4
)

// workerScratch is a worker's (or thief's) per-goroutine drain state:
// the command buffer plus the completion-flush table execBatch merges
// countdown decrements into. One allocation per worker, reused per drain.
type workerScratch struct {
	buf []command
	cos []*call
	cnt []int32
}

func newWorkerScratch() *workerScratch {
	return &workerScratch{
		buf: make([]command, workerBatch),
		cos: make([]*call, 0, workerBatch),
		cnt: make([]int32, 0, workerBatch),
	}
}

// execBatch runs a drained batch inside shard s's critical section and
// flushes completion countdowns merged per distinct completion — one
// decrement and at most one producer wakeup per completion per drain,
// instead of one per command. Merged decrements are counted on the shard
// as coalesced wakes. The caller must hold s's consumer role (own ring
// drain, or the shard mutex in work-stealing mode).
func (e *Engine) execBatch(s *shard, cmds []command, w *workerScratch) {
	cos, cnt := w.cos[:0], w.cnt[:0]
	coalesced := uint64(0)
	var scratch result // outcomes nobody waits on
	for i := range cmds {
		c := &cmds[i]
		co := c.co
		r := &scratch
		if co != nil && c.f == nil {
			r = &co.res // a single-shard command's poster reads it
		}
		e.exec(s, c, r)
		if co == nil && r.err != nil && c.kind == opEnqueue {
			e.settleAsync(s, c, r.err)
		}
		if co != nil {
			// Reverse scan: commands sharing a completion are posted in
			// runs, so the previous entry hits first.
			merged := false
			for t := len(cos) - 1; t >= 0; t-- {
				if cos[t] == co {
					cnt[t]++
					coalesced++
					merged = true
					break
				}
			}
			if !merged {
				cos = append(cos, co)
				cnt = append(cnt, 1)
			}
		}
		cmds[i] = command{} // drop payload/closure references promptly
	}
	// Republish the free-count mirror before the flush: the per-operation
	// publish is deferred on the single-writer path, but pool-wide Free()
	// must be fresh by the time a woken producer can observe the batch.
	s.m.PublishFree()
	for i := range cos {
		cos[i].finishN(cnt[i])
		cos[i] = nil // don't pin pooled completions through the scratch
	}
	if coalesced > 0 {
		s.coalescedWakes.Add(coalesced)
	}
	w.cos, w.cnt = cos[:0], cnt
}

// worker is shard si's single writer: it drains the shard's command ring
// in batches, run to completion, until the ring is closed and empty. With
// Config.WorkSteal it is instead the shard's *default* writer — execution
// is serialized by the shard mutex and idle siblings help out
// (workerSteal).
func (e *Engine) worker(si int) {
	defer e.workers.Done()
	s := e.shards[si]
	w := newWorkerScratch()
	if e.cfg.WorkSteal {
		e.workerSteal(si, w)
		return
	}
	// Single-writer fast path: with no admission policy, nothing reads
	// pool-wide occupancy between operations, so the per-op publish of the
	// free-count mirror is deferred while this worker owns the shard.
	s.m.SetDeferPublish(s.admKind == policy.KindNone)
	for {
		t0 := time.Now()
		n, closed := s.ring.PopWait(w.buf)
		t1 := time.Now()
		s.wIdleNs.Add(t1.Sub(t0).Nanoseconds())
		if n > 0 {
			e.execBatch(s, w.buf[:n], w)
			s.wBusyNs.Add(time.Since(t1).Nanoseconds())
		}
		if closed {
			// Republish so the closed-mode observation surface sees exact
			// pool occupancy.
			s.m.SetDeferPublish(false)
			return
		}
	}
}

// workerSteal is the work-stealing variant of the worker loop. Every pop
// and exec on a shard happens under that shard's mutex, which restores
// mutual exclusion between the owner and thieves without giving up
// run-to-completion batching: the owner pays one uncontended lock per
// drained batch. Per-flow FIFO survives because commands leave a ring in
// order and never concurrently, and execution of a ring's commands is
// serialized by its shard's mutex. Deadlock cannot arise: a worker holds
// at most one shard mutex at a time (exec never enters another shard).
func (e *Engine) workerSteal(si int, w *workerScratch) {
	s := e.shards[si]
	s.mu.Lock()
	s.m.SetDeferPublish(s.admKind == policy.KindNone)
	s.mu.Unlock()
	for {
		s.mu.Lock()
		n := s.ring.PopBatch(w.buf)
		if n > 0 {
			t0 := time.Now()
			e.execBatch(s, w.buf[:n], w)
			s.mu.Unlock()
			s.wBusyNs.Add(time.Since(t0).Nanoseconds())
			if s.ring.Len() >= stealThreshold {
				// Still backlogged after a full batch: recruit a parked
				// sibling to steal from us.
				e.recruit(si)
			}
			continue
		}
		s.mu.Unlock()
		if s.ring.Closed() {
			if s.ring.Drained() {
				// Under the mutex: a thief may still be executing commands
				// it popped from our ring.
				s.mu.Lock()
				s.m.SetDeferPublish(false)
				s.mu.Unlock()
				return
			}
			// Sealed but a claimed command is still publishing, or a thief
			// holds the mutex mid-drain; yield and re-check.
			runtime.Gosched()
			continue
		}
		if e.stealRound(si, w) {
			continue
		}
		t0 := time.Now()
		s.ring.WaitReady()
		s.wIdleNs.Add(time.Since(t0).Nanoseconds())
	}
}

// stealRound scans the sibling shards once and executes up to stealBatch
// commands from each backlogged ring it can lock without waiting. Reports
// whether it executed anything (the caller then re-checks its own ring
// before scanning again). TryLock, never Lock: a thief must not queue
// behind the owner — that would serialize the very workers stealing is
// meant to spread.
func (e *Engine) stealRound(si int, w *workerScratch) bool {
	shards := e.shards
	n := len(shards)
	did := false
	for off := 1; off < n; off++ {
		v := shards[(si+off)%n]
		if v.ring.Len() < stealThreshold || !v.mu.TryLock() {
			continue
		}
		k := v.ring.PopBatch(w.buf[:stealBatch])
		if k > 0 {
			t0 := time.Now()
			e.execBatch(v, w.buf[:k], w)
			v.mu.Unlock()
			e.shards[si].wBusyNs.Add(time.Since(t0).Nanoseconds())
			e.shards[si].wStealBatches.Add(1)
			v.wStolenCmds.Add(uint64(k))
			did = true
		} else {
			v.mu.Unlock()
		}
	}
	return did
}

// recruit wakes one parked sibling worker so it can steal from a
// backlogged shard. Cost when nobody is parked: one atomic load per
// sibling, no syscalls.
func (e *Engine) recruit(si int) {
	n := len(e.shards)
	for off := 1; off < n; off++ {
		if e.shards[(si+off)%n].ring.Poke() {
			return
		}
	}
}

// exec runs one command inside shard s's critical section — under the
// shard mutex or on the shard's worker — leaving a single-shard command's
// outcome in r; fan-out commands write their part of c.f instead.
// Completion countdowns are not decremented here: execBatch flushes them
// merged per distinct completion at the end of the drained batch.
func (e *Engine) exec(s *shard, c *command, r *result) {
	if c.f != nil {
		e.execPart(s, c, r)
		return
	}
	switch c.kind {
	case opEnqueue:
		r.n, r.err = s.enqueueLocked(c.flow, c.data)
	case opDequeue:
		e.dequeueLocked(s, c.flow, c.view, r)
	case opDequeueNext:
		e.dequeuePicked(s, int(c.port), c.view, r)
	case opReserve:
		r.w, r.err = s.reserveLocked(c.flow, c.arg)
	case opCommit:
		r.err = s.commitLocked(c.flow, &c.w)
	case opCall:
		c.fn()
	case opBarrier:
		// Completion only.
	}
}

// execPart runs a fan-out command's share of c.f: its shard's bucket of a
// per-flow batch, or its budget of egress picks. r is scratch.
func (e *Engine) execPart(s *shard, c *command, r *result) {
	f := c.f
	p := &f.parts[c.slot]
	switch c.kind {
	case opEnqueue:
		for k, i := range p.idxs {
			n, err := s.enqueueLocked(f.reqs[i].Flow, f.reqs[i].Data)
			if err == errWantPushOut || //nolint:errorlint // internal sentinel, never wrapped
				(err != nil && errors.Is(err, queue.ErrNoFreeSegments) && e.store.Free() > 0) {
				// Push-out eviction or a stranded-cache flush must run
				// outside the critical section: defer the rest of the
				// bucket, in order, to the per-packet path.
				for _, j := range p.idxs[k:] {
					f.errs[j] = errBatchRetry
				}
				return
			}
			f.errs[i] = err
			if err == nil {
				p.segs += n
			}
		}
	case opDequeue:
		for _, i := range p.idxs {
			e.dequeueLocked(s, f.flows[i], c.view, r)
			f.errs[i] = r.err
			if c.view {
				f.views[i] = r.view
			} else {
				f.pkts[i] = r.data
			}
		}
	case opDequeueNext:
		for k := 0; k < c.arg && e.dequeuePicked(s, int(c.port), c.view, r); k++ {
			if c.view {
				p.deqv = append(p.deqv, DequeuedView{Flow: r.flow, Bytes: r.n, View: r.view})
			} else {
				p.deq = append(p.deq, Dequeued{Flow: r.flow, Data: r.data, Bytes: r.n})
			}
		}
	}
}

// settleAsync settles a fire-and-forget enqueue's refusal on the worker.
// Under LQD the arrival is entitled to push-out eviction, whether the
// policy asked for it or the pool ran dry (or its free segments are
// stranded in other shards' caches, which this worker must not touch); the
// rejection the attempt counted is withdrawn, because the eviction path
// settles the packet's fate exactly once.
func (e *Engine) settleAsync(s *shard, c *command, err error) {
	switch {
	case err == errWantPushOut: //nolint:errorlint // internal sentinel, never wrapped
	case s.admKind == policy.KindLQD && errors.Is(err, queue.ErrNoFreeSegments):
		s.rejected--
	default:
		return // refused and counted
	}
	_, _ = e.enqueueEvictLocal(s, c.flow, c.data)
}

// enqueueEvictLocal handles an LQD push-out verdict for a fire-and-forget
// enqueue. The worker cannot leave its shard to evict the globally longest
// queue (workers never enter other shards — that is what makes them
// deadlock-free), so it approximates LQD locally: push out its own shard's
// longest queue until the arrival fits, else drop. Blocking enqueues get
// the exact global eviction, orchestrated by the calling goroutine.
func (e *Engine) enqueueEvictLocal(s *shard, flow uint32, data []byte) (int, error) {
	need := (len(data) + queue.SegmentBytes - 1) / queue.SegmentBytes
	for round := 0; round < maxEvictAttempts; round++ {
		q, segs, err := s.m.PushOutLongest()
		if err != nil {
			break
		}
		s.poPackets++
		s.poSegments += uint64(segs)
		s.syncActive(uint32(q))
		s.noteRemoveRes(uint32(q), false)
		n, err := s.enqueueLocked(flow, data)
		switch {
		case err == errWantPushOut: //nolint:errorlint // internal sentinel, never wrapped
			continue
		case err != nil && errors.Is(err, queue.ErrNoFreeSegments):
			// Still short (the evicted packet was smaller than the
			// arrival): un-count the retry's rejection and evict again.
			s.rejected--
			continue
		default:
			return n, err
		}
	}
	s.dropPackets++
	s.dropSegments += uint64(need)
	return 0, ErrAdmissionDrop
}

// EnqueueAsync posts a fire-and-forget enqueue of data onto flow: the call
// returns as soon as the command is in the shard's ring (blocking only for
// ring backpressure), and the outcome — linked, dropped by admission, or
// refused by the pool — is visible in Stats counters rather than returned.
// The engine reads data when the command executes, not when it is posted:
// the caller must not mutate the buffer until the command has been
// processed (after Drain or Close, or once observable via counters).
// Reusing one read-only payload buffer across posts is fine. The only
// error is ErrClosed. On the synchronous datapath it degrades to an
// immediate enqueue whose outcome is likewise only counted.
func (e *Engine) EnqueueAsync(flow uint32, data []byte) error {
	s := e.shardOf(flow)
	c := command{kind: opEnqueue, flow: flow, data: data}
	if e.post(s, &c) {
		return nil
	}
	var r result
	if !e.do(s, &c, &r) {
		return ErrClosed
	}
	if r.err == errWantPushOut { //nolint:errorlint // internal sentinel, never wrapped
		// Fall back to the blocking path for the eviction dance. Every
		// outcome it can produce is counted — except a Close landing
		// mid-eviction, which must surface here or the packet would vanish
		// with no trace in the counters.
		if _, err := e.EnqueuePacket(flow, data); errors.Is(err, ErrClosed) {
			return ErrClosed
		}
	}
	return nil
}

// RingOccupancy returns the summed occupancy of all shard command rings —
// the backlog the workers have yet to execute. Zero on the synchronous
// datapath.
func (e *Engine) RingOccupancy() int {
	if e.mode.Load() != modeRing {
		return 0
	}
	total := 0
	for _, s := range e.shards {
		total += s.ring.Len()
	}
	return total
}
