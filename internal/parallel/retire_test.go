package parallel_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/testutil"
)

// TestPlacementLeavesNoHelpers places a design with Workers=16 and checks
// with the shared leak watch that the pool's helpers retire afterwards.
func TestPlacementLeavesNoHelpers(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 8 {
		// Seven helpers: more than the leak watch's +2 tolerance.
		runtime.GOMAXPROCS(8)
		defer runtime.GOMAXPROCS(prev)
	}
	base := testutil.GoroutineBaseline()
	d := synth.MustGenerate("tiny_hot")
	opt := core.Options{Mode: core.ModeOurs, Tech: core.AllTechniques(), Workers: 16}
	if _, err := core.Place(d, opt); err != nil {
		t.Fatal(err)
	}
	testutil.AssertNoGoroutineLeak(t, base)
}
