package parallel

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// useProcs raises GOMAXPROCS to at least n for the test, so the pool path
// runs even on a one-CPU host (ForCtx never borrows more helpers than
// GOMAXPROCS-1).
func useProcs(t *testing.T, n int) {
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// shardedSum is the canonical reduction: per-shard partial sums of vals
// folded in shard order.
func shardedSum(workers int, vals []float64) float64 {
	var parts [NumShards]float64
	For(workers, len(vals), func(shard, lo, hi int) {
		var s float64
		for _, v := range vals[lo:hi] {
			s += v
		}
		parts[shard] = s
	})
	return SumShards(&parts)
}

func sinVals(n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Sin(float64(i)) * 1e3
	}
	return vals
}

func TestPoolConcurrentCallersIdentical(t *testing.T) {
	useProcs(t, 2)
	vals := sinVals(5003)
	ref := shardedSum(1, vals)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := shardedSum(2, vals); math.Float64bits(got) != math.Float64bits(ref) {
					t.Errorf("concurrent sum %v differs from serial %v", got, ref)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPoolNestedForRunsInline(t *testing.T) {
	useProcs(t, 2)
	const n = 64
	var outer [n]atomic.Int32
	var nested atomic.Int32
	For(2, n, func(shard, lo, hi int) {
		for i := lo; i < hi; i++ {
			outer[i].Add(1)
		}
		if shard != 5 {
			return
		}
		// The outer call holds the pool, so this call runs inline: its
		// shards come in order on this goroutine, and the unsynchronized
		// slice append is race-free.
		var order []int
		For(2, n, func(s, _, _ int) { order = append(order, s) })
		for i, s := range order {
			if s != i {
				t.Errorf("nested For ran shards %v, want 0..%d in order", order, NumShards-1)
				break
			}
		}
		nested.Store(int32(len(order)))
	})
	if got := nested.Load(); got != NumShards {
		t.Errorf("nested For ran %d shards, want %d", got, NumShards)
	}
	for i := range outer {
		if v := outer[i].Load(); v != 1 {
			t.Fatalf("outer item %d visited %d times", i, v)
		}
	}
}

func TestPoolCancelMidCall(t *testing.T) {
	useProcs(t, 2)
	for rep := 0; rep < 50; rep++ {
		ctx, cancel := context.WithCancel(context.Background())
		var returned atomic.Bool
		var late atomic.Int32
		_, err := ForCtx(ctx, 2, 1000, func(shard, _, _ int) {
			if returned.Load() {
				late.Add(1)
			}
			if shard == 2 {
				cancel()
			}
			time.Sleep(20 * time.Microsecond)
		})
		returned.Store(true)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("rep %d: ForCtx returned %v, want context.Canceled", rep, err)
		}
		// The next pool call starts only after every helper of the
		// cancelled one has left it.
		shardedSum(2, sinVals(100))
		if n := late.Load(); n != 0 {
			t.Fatalf("rep %d: %d shards started after ForCtx returned", rep, n)
		}
	}
}

// goid is the calling goroutine's id, parsed from its stack header.
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

func TestPoolPanicInCallerShardReleasesPool(t *testing.T) {
	useProcs(t, 2)
	caller := goid()
	callerPanics := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		For(2, 1000, func(_, _, _ int) {
			if goid() == caller {
				panic("boom")
			}
		})
		return false
	}
	// The helper may claim every shard before the caller claims one; the
	// call then returns normally, so try again.
	for attempt := 0; !callerPanics(); attempt++ {
		if attempt == 100 {
			t.Fatal("the caller ran no shard in 100 calls")
		}
	}
	if pool.owner.Load() || pool.active.Load() != 0 || pool.gen.Load()&1 != 0 {
		t.Fatalf("pool not released after a panic: owner=%v active=%d gen=%d",
			pool.owner.Load(), pool.active.Load(), pool.gen.Load())
	}
	vals := sinVals(4099)
	if got, want := shardedSum(2, vals), shardedSum(1, vals); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("sum after the panic %v differs from serial %v", got, want)
	}
}

func TestPoolHelpersRetire(t *testing.T) {
	useProcs(t, 4)
	For(NumShards, 1000, func(_, _, _ int) {})
	if live := pool.live.Load(); live < 1 {
		t.Fatalf("no helper alive right after a Workers=%d call", NumShards)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pool.live.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d helpers still alive %v after the last call", pool.live.Load(), 5*time.Second)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPoolSteadyStateAllocatesNothing(t *testing.T) {
	useProcs(t, 2)
	vals := sinVals(4096)
	var parts [NumShards]float64
	fn := func(shard, lo, hi int) {
		var s float64
		for _, v := range vals[lo:hi] {
			s += v
		}
		parts[shard] = s
	}
	if a := testing.AllocsPerRun(1000, func() { For(2, len(vals), fn) }); a != 0 {
		t.Errorf("For(2, %d) allocates %v times per call, want 0", len(vals), a)
	}
}
