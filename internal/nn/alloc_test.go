package nn

import (
	"testing"

	"tinymlops/internal/tensor"
)

// TestForwardBatchZeroAlloc asserts the compiled float32 serving path is
// allocation-free in the steady state: after one warmup call (which
// compiles the program and sizes every buffer), repeated ForwardBatch
// calls must not allocate at all. EnterPool reproduces the serving
// context — inside a bounded worker the matmul kernels run serially, so
// the assertion is independent of the host's core count.
func TestForwardBatchZeroAlloc(t *testing.T) {
	rng := tensor.NewRNG(7)
	fixtures := []struct {
		name string
		net  *Network
		in   *tensor.Tensor
	}{
		{
			"dense-bn-act",
			NewNetwork([]int{64},
				NewDense(64, 128, rng), NewBatchNorm1D(128), NewReLU(),
				NewDense(128, 32, rng), NewTanh(), NewDense(32, 10, rng), NewSoftmax()),
			tensor.Randn(rng, 1, 16, 64),
		},
		{
			"conv-pool-dense",
			NewNetwork([]int{1, 12, 12},
				NewConv2D(1, 4, 3, 3, 1, 1, rng), NewReLU(), NewMaxPool2D(2, 2),
				NewFlatten(), NewDense(4*6*6, 10, rng)),
			tensor.Randn(rng, 1, 8, 1, 12, 12),
		},
	}
	exit := tensor.EnterPool()
	defer exit()
	for _, fx := range fixtures {
		scratch := NewScratch()
		fx.net.ForwardBatch(fx.in, scratch) // warmup: compile + size buffers
		allocs := testing.AllocsPerRun(100, func() {
			fx.net.ForwardBatch(fx.in, scratch)
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state ForwardBatch allocates %.1f allocs/op, want 0", fx.name, allocs)
		}
	}
}

// TestInMemoryCodecAllocs pins the allocation counts of the in-memory
// model paths every update takes: costing a delta, decoding an artifact
// and cloning a network. They read straight from the byte slice and copy
// layer by layer, with no bufio buffers and no encode/decode round trip
// inside Clone. A count above its pin is a regression.
func TestInMemoryCodecAllocs(t *testing.T) {
	old := deltaFixtureNet(1)
	target := old.Clone()
	target.Layers()[7].(*Dense).W.Value.Data[0] = 42
	delta, err := EncodeDelta(old, target)
	if err != nil {
		t.Fatal(err)
	}
	artifact := marshalOrDie(t, old)
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"CostOfDelta", 4, func() {
			if _, err := CostOfDelta(delta, 8); err != nil {
				t.Fatal(err)
			}
		}},
		{"UnmarshalNetwork", 125, func() {
			if _, err := UnmarshalNetwork(artifact); err != nil {
				t.Fatal(err)
			}
		}},
		{"Clone", 73, func() { old.Clone() }},
	} {
		if got := testing.AllocsPerRun(50, c.fn); got > c.max {
			t.Errorf("%s: %.0f allocs/op, pinned at %.0f", c.name, got, c.max)
		}
	}
}
