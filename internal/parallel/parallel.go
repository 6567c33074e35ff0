// Package parallel is the placement pipeline's deterministic multi-core
// execution layer: a chunked parallel-for over a FIXED shard decomposition,
// so that every result — including floating-point reductions — is
// byte-identical for any worker count and any goroutine schedule.
//
// The determinism contract rests on two rules:
//
//  1. Work is split into exactly NumShards contiguous chunks whose
//     boundaries depend only on the item count, never on the worker count
//     or on runtime scheduling. Each shard is executed exactly once.
//  2. A kernel that reduces (sums demand maps, accumulates totals) writes
//     into shard-private state, and the caller merges the shards in
//     ascending shard-index order after For returns. The floating-point
//     summation tree is therefore a pure function of the input size:
//     Workers=1 and Workers=N walk the identical tree.
//
// Kernels whose writes are disjoint per item (one output row per input
// row, one gradient slot per pin or per cell) need no shard state at all
// and are bitwise-identical to a plain serial loop by construction. A
// gradient that a net-parallel pass would scatter-add into cells is
// instead written per pin and gathered per cell in a second pass that
// adds the terms in the order the reduction tree prescribes.
//
// Workers=1 never involves another goroutine: the shards run inline, in
// order, on the calling goroutine — serial execution with the same
// summation tree. Workers>1 lends the call helpers from one process-wide
// pool of long-lived goroutines; which goroutine runs a shard never
// matters, so the pool changes timing only, never results.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// NumShards is the fixed shard count of every chunked parallel-for. It is
// a property of the algorithm, not of the machine: raising it would change
// the reduction tree (and the low-order float bits of every reduced
// result), so it is a constant rather than a tuning knob. It also caps the
// useful worker count.
const NumShards = 16

// Resolve maps an Options.Workers-style setting to the effective worker
// count: 0 (or negative) selects runtime.NumCPU(); the result is clamped
// to [1, NumShards].
func Resolve(workers int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers < 1 {
		workers = 1
	}
	if workers > NumShards {
		workers = NumShards
	}
	return workers
}

// Range returns the half-open item range [start, end) of one shard for n
// items. Boundaries depend only on n and the shard index.
func Range(shard, n int) (start, end int) {
	return shard * n / NumShards, (shard + 1) * n / NumShards
}

// Timing reports the cost of one or more For calls: Wall is elapsed time,
// Busy is the summed in-shard execution time across workers. Busy/Wall is
// the effective parallelism actually achieved.
type Timing struct {
	Wall time.Duration
	Busy time.Duration
}

// Add accumulates another timing sample into t.
func (t *Timing) Add(u Timing) {
	t.Wall += u.Wall
	t.Busy += u.Busy
}

// Speedup returns the effective parallelism Busy/Wall (1 when no work was
// recorded).
func (t Timing) Speedup() float64 {
	if t.Wall <= 0 || t.Busy <= 0 {
		return 1
	}
	return float64(t.Busy) / float64(t.Wall)
}

// For executes fn once per non-empty shard of the fixed NumShards
// decomposition of [0, n), on the calling goroutine plus at most
// Resolve(workers)-1 pool helpers, and returns how long the call took.
// fn(shard, start, end) must confine its writes to shard-private state
// (indexed by shard) or to locations owned by items in [start, end); it
// must not touch other shards' state.
//
// Shards are handed out dynamically (load balancing), which is safe under
// the determinism contract because each shard's result lands in its own
// slot regardless of which goroutine computed it, or in what order.
func For(workers, n int, fn func(shard, start, end int)) Timing {
	t, _ := ForCtx(context.Background(), workers, n, fn)
	return t
}

// ForCtx is For with cooperative cancellation: the context is checked on
// entry and before every shard claim, and the first non-nil ctx.Err() seen
// is returned. Shards already started always run to completion and no
// shard starts after ForCtx returns, but on a non-nil error an unknown
// SUBSET of shards has executed — the caller must treat every output
// buffer the kernel wrote as garbage and either discard it or rebuild it
// from scratch. Determinism is unaffected on the nil-error path: all
// shards ran, exactly as For.
//
// The caller always runs shards itself. It borrows helpers from the
// process-wide pool only when the pool is free; a call made while another
// call holds the pool (a concurrent placement, or a For nested inside a
// shard) runs every shard inline, in order, exactly as Workers=1 does.
func ForCtx(ctx context.Context, workers, n int, fn func(shard, start, end int)) (Timing, error) {
	if n <= 0 {
		return Timing{}, ctx.Err()
	}
	t0 := time.Now()
	if helpers := min(Resolve(workers), runtime.GOMAXPROCS(0), n) - 1; helpers > 0 && pool.owner.CompareAndSwap(false, true) {
		busy, cancelled := pool.run(ctx, helpers, n, fn)
		t := Timing{Wall: time.Since(t0), Busy: busy}
		if cancelled {
			return t, ctx.Err()
		}
		return t, nil
	}
	for s := 0; s < NumShards; s++ {
		if err := ctx.Err(); err != nil {
			wall := time.Since(t0)
			return Timing{Wall: wall, Busy: wall}, err
		}
		if lo, hi := Range(s, n); lo < hi {
			fn(s, lo, hi)
		}
	}
	wall := time.Since(t0)
	return Timing{Wall: wall, Busy: wall}, nil
}

// spinWindow is how long an idle helper polls for the next job before it
// parks, and how long a caller polls for its helpers to leave a job before
// it blocks. It bridges the serial gaps between the parallel calls of one
// objective evaluation: on the four flat bench designs 98% of the gaps
// between consecutive calls are shorter than 200 µs (87% under 50 µs; most
// of the rest fall between 50 and 200 µs).
const spinWindow = 200 * time.Microsecond

// idleRetire is how long a parked helper waits for a job before it exits.
// It stays well under the 5 s poll of testutil.AssertNoGoroutineLeak, so a
// finished placement leaves no goroutines behind for long.
const idleRetire = time.Second

// pool is the process-wide set of long-lived helper goroutines behind
// ForCtx. One call at a time owns it: the owner publishes its job, runs
// shards itself, closes the job and waits until every helper that joined
// has left. Helpers are started on demand, spin for spinWindow after a job
// waiting for the next one, then park, and exit after idleRetire parked.
var pool = newHelperPool()

type helperPool struct {
	owner atomic.Bool // held by the ForCtx call whose job is published

	// gen numbers the jobs: odd while the owner's job is open, even once
	// it is closed. A helper enters a job by raising active and then
	// re-reading gen; the owner closes the job by bumping gen and then
	// waits for active to drop to zero. Either the helper sees the job
	// closed and backs out without touching it, or the owner sees the
	// helper and waits for it — so no shard starts after the owner returns.
	gen    atomic.Uint64
	active atomic.Int32

	// The job. The plain fields are written by the owner only before it
	// opens the job and after every helper has left it.
	fn        func(shard, start, end int)
	n         int
	done      <-chan struct{}
	next      atomic.Int32 // next shard to claim
	slots     atomic.Int32 // helpers still allowed to join
	busy      atomic.Int64 // summed in-shard time, ns
	cancelled atomic.Bool

	mu      sync.Mutex
	wake    sync.Cond    // parked helpers wait here for a job or retirement
	left    sync.Cond    // a blocked owner waits here for active == 0
	live    atomic.Int32 // helpers alive; changed under mu
	parked  atomic.Int32 // helpers in park
	blocked atomic.Bool  // the owner waits on left
}

func newHelperPool() *helperPool {
	p := &helperPool{}
	p.wake.L = &p.mu
	p.left.L = &p.mu
	return p
}

// run executes one job as the pool's owner with up to helpers helpers and
// returns the summed in-shard time and whether a claimer saw ctx done.
func (p *helperPool) run(ctx context.Context, helpers, n int, fn func(shard, start, end int)) (time.Duration, bool) {
	p.fn, p.n, p.done = fn, n, ctx.Done()
	p.next.Store(0)
	p.slots.Store(int32(helpers))
	p.busy.Store(0)
	p.cancelled.Store(false)
	p.gen.Add(1) // open
	defer p.release()
	p.summon(helpers)
	t0 := time.Now()
	p.shards()
	p.busy.Add(int64(time.Since(t0)))
	p.gen.Add(1) // closed
	p.await()
	return time.Duration(p.busy.Load()), p.cancelled.Load()
}

// release hands the pool back. When fn panicked on the owner the job is
// still open: stop further claims and wait for the helpers to leave first.
func (p *helperPool) release() {
	if p.gen.Load()&1 == 1 {
		p.next.Store(NumShards)
		p.gen.Add(1)
		p.await()
	}
	p.fn, p.done = nil, nil
	p.owner.Store(false)
}

// shards claims and runs shards of the open job until none is left or the
// job's context is done.
func (p *helperPool) shards() {
	for {
		if p.done != nil {
			select {
			case <-p.done:
				p.cancelled.Store(true)
				return
			default:
			}
		}
		s := int(p.next.Add(1)) - 1
		if s >= NumShards {
			return
		}
		if lo, hi := Range(s, p.n); lo < hi {
			p.fn(s, lo, hi)
		}
	}
}

// summon gets up to k helpers to the open job: spinning helpers find it by
// themselves, parked ones are signalled, missing ones are started.
func (p *helperPool) summon(k int) {
	if p.parked.Load() == 0 && int(p.live.Load()) >= k {
		return
	}
	p.mu.Lock()
	for i := min(k, int(p.parked.Load())); i > 0; i-- {
		p.wake.Signal()
	}
	for int(p.live.Load()) < k {
		p.live.Add(1)
		go p.helper()
	}
	p.mu.Unlock()
}

// await returns once no helper is inside the closed job: it polls for
// spinWindow, then blocks until the last helper to leave wakes it.
func (p *helperPool) await() {
	for t0 := time.Now(); p.active.Load() != 0; runtime.Gosched() {
		if time.Since(t0) > spinWindow {
			p.mu.Lock()
			p.blocked.Store(true)
			for p.active.Load() != 0 {
				p.left.Wait()
			}
			p.blocked.Store(false)
			p.mu.Unlock()
			return
		}
	}
}

// helper is the body of one pool helper: join each new job, spin for the
// next one, park, and return after idleRetire without a job.
func (p *helperPool) helper() {
	retire := time.AfterFunc(idleRetire, p.wakeAll)
	retire.Stop()
	var last uint64 // the newest job this helper has seen
	for {
		for t0 := time.Now(); ; runtime.Gosched() {
			if g := p.gen.Load(); g&1 == 1 && g != last {
				p.join(g)
				last = g
				t0 = time.Now()
			} else if time.Since(t0) > spinWindow {
				break
			}
		}
		if !p.park(last, retire) {
			return
		}
	}
}

// join runs shards of job g if it is still open and has a free slot.
func (p *helperPool) join(g uint64) {
	p.active.Add(1)
	if p.gen.Load() == g && p.slots.Add(-1) >= 0 {
		t0 := time.Now()
		p.shards()
		p.busy.Add(int64(time.Since(t0)))
	}
	if p.active.Add(-1) == 0 && p.blocked.Load() {
		p.mu.Lock()
		p.left.Broadcast()
		p.mu.Unlock()
	}
}

// park blocks until a job newer than last opens (true) or idleRetire has
// passed without one (false: the helper retires).
func (p *helperPool) park(last uint64, retire *time.Timer) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.parked.Add(1)
	defer p.parked.Add(-1)
	t0 := time.Now()
	retire.Reset(idleRetire)
	defer retire.Stop()
	for {
		if g := p.gen.Load(); g&1 == 1 && g != last {
			return true
		}
		if time.Since(t0) >= idleRetire {
			p.live.Add(-1)
			return false
		}
		p.wake.Wait()
	}
}

// wakeAll wakes every parked helper so each can check its idle time.
func (p *helperPool) wakeAll() {
	p.mu.Lock()
	p.wake.Broadcast()
	p.mu.Unlock()
}

// SumShards folds per-shard partial sums in ascending shard order.
func SumShards(parts *[NumShards]float64) float64 {
	var s float64
	for _, v := range parts {
		s += v
	}
	return s
}
