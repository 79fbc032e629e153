package nn

import (
	"bytes"
	"slices"
	"testing"

	"tinymlops/internal/tensor"
)

// cloneFixture is a small trainable network featuring one layer kind.
type cloneFixture struct {
	kind string
	net  *Network
	x    *tensor.Tensor
	y    []int
}

// cloneFixtures returns one fixture per layer kind the model format
// carries. Each has already taken a training step, so its gradients are
// non-zero, its batch-norm statistics have moved and its dropout RNG has
// advanced: a Clone that copied any of that would diverge from a decode.
func cloneFixtures(tb testing.TB) []cloneFixture {
	tb.Helper()
	rng := tensor.NewRNG(11)
	mlp := func(mid ...Layer) *Network {
		layers := append([]Layer{NewDense(4, 8, rng)}, mid...)
		return NewNetwork([]int{4}, append(layers, NewDense(8, 3, rng))...)
	}
	flat := tensor.Randn(rng, 1, 16, 4)
	img := tensor.Randn(rng, 1, 16, 1*6*6).Reshape(16, 1, 6, 6)
	fixtures := []cloneFixture{
		{kind: "dense", net: NewNetwork([]int{4}, NewDense(4, 3, rng)), x: flat},
		{kind: "conv2d", net: NewNetwork([]int{1, 6, 6},
			NewConv2D(1, 2, 3, 3, 1, 1, rng), NewFlatten(), NewDense(2*6*6, 3, rng)), x: img},
		{kind: "maxpool2d", net: NewNetwork([]int{1, 6, 6},
			NewConv2D(1, 2, 3, 3, 1, 1, rng), NewMaxPool2D(2, 2), NewFlatten(), NewDense(2*3*3, 3, rng)), x: img},
		{kind: "batchnorm1d", net: mlp(NewBatchNorm1D(8)), x: flat},
		{kind: "dropout", net: mlp(NewDropout(0.5, tensor.NewRNG(5))), x: flat},
		{kind: "flatten", net: NewNetwork([]int{1, 2, 2}, NewFlatten(), NewDense(4, 3, rng)),
			x: flat.Reshape(16, 1, 2, 2)},
		{kind: "relu", net: mlp(NewReLU()), x: flat},
		{kind: "sigmoid", net: mlp(NewSigmoid()), x: flat},
		{kind: "tanh", net: mlp(NewTanh()), x: flat},
		{kind: "softmax", net: NewNetwork([]int{4}, NewDense(4, 3, rng), NewSoftmax()), x: flat},
	}
	for i := range fixtures {
		fx := &fixtures[i]
		fx.y = make([]int, fx.x.Dim(0))
		for j := range fx.y {
			fx.y[j] = j % 3
		}
		trainStep(tb, fx.net, fx)
		if !hasKind(fx.net, fx.kind) {
			tb.Fatalf("fixture %s lacks its layer kind", fx.kind)
		}
	}
	return fixtures
}

func hasKind(n *Network, kind string) bool {
	for _, l := range n.Layers() {
		if l.Kind() == kind {
			return true
		}
	}
	return false
}

// trainStep runs one full-batch SGD step with a fixed shuffle seed.
func trainStep(tb testing.TB, n *Network, fx *cloneFixture) {
	tb.Helper()
	if _, err := Train(n, fx.x, fx.y, TrainConfig{
		Epochs: 1, BatchSize: fx.x.Dim(0), Optimizer: NewSGD(0.1).WithMomentum(0.9), RNG: tensor.NewRNG(3),
	}); err != nil {
		tb.Fatal(err)
	}
}

// TestCloneMatchesDecodeRoundTrip pins Clone to the network a
// MarshalBinary/UnmarshalNetwork round trip rebuilds, for every layer kind:
// same bytes, independent state, zero gradients of the right shape, and
// the same network after one training step (which pins the dropout
// layer's RNG reseed).
func TestCloneMatchesDecodeRoundTrip(t *testing.T) {
	for _, fx := range cloneFixtures(t) {
		t.Run(fx.kind, func(t *testing.T) {
			src := marshalOrDie(t, fx.net)
			clone := fx.net.Clone()
			if got := marshalOrDie(t, clone); !bytes.Equal(got, src) {
				t.Fatal("Clone marshals differently from its source")
			}

			for _, p := range clone.Params() {
				if !slices.Equal(p.Grad.Shape(), p.Value.Shape()) {
					t.Fatalf("%s grad shape %v, value shape %v", p.Name, p.Grad.Shape(), p.Value.Shape())
				}
				for _, g := range p.Grad.Data {
					if g != 0 {
						t.Fatalf("%s grad not zeroed", p.Name)
					}
				}
			}

			// Mutating every serialized tensor of the clone (weights and
			// batch-norm running statistics) must leave the source alone.
			for _, ts := range clone.stateTensors() {
				for i := range ts.Data {
					ts.Data[i] += 1
				}
			}
			if got := marshalOrDie(t, fx.net); !bytes.Equal(got, src) {
				t.Fatal("mutating the clone changed the source")
			}

			cloned := fx.net.Clone()
			decoded, err := UnmarshalNetwork(src)
			if err != nil {
				t.Fatal(err)
			}
			trainStep(t, cloned, &fx)
			trainStep(t, decoded, &fx)
			if !bytes.Equal(marshalOrDie(t, cloned), marshalOrDie(t, decoded)) {
				t.Fatal("a training step on the clone and on the decoded copy diverged")
			}
		})
	}
}

// unknownLayer is a layer type the model format cannot carry.
type unknownLayer struct{ ReLU }

func (unknownLayer) Kind() string { return "unknown" }

func TestClonePanicsOnUnknownLayer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Clone accepted a layer type the model format cannot carry")
		}
	}()
	NewNetwork([]int{4}, &unknownLayer{}).Clone()
}
