package nn

import (
	"slices"

	"tinymlops/internal/tensor"
)

// inferInto is the optional fast path behind Network.ForwardBatch: write
// the inference-mode (train=false) output for x into dst without touching
// any layer state. dst has shape [batch, Describe(in).OutShape...] and may
// hold stale values from a previous call, so implementations must write
// every element. Because the contract forbids state writes, any number of
// goroutines may drive the fast path through one shared network.
type inferInto interface {
	InferInto(dst, x *tensor.Tensor)
}

// inferIntoWS is the workspace-backed variant of inferInto for layers
// whose kernel needs per-call scratch beyond the output buffer (conv's
// im2col unroll). ForwardBatch sizes ws with workspaceFloats and keeps it
// in the Scratch, so these layers are allocation-free in the steady state
// too.
type inferIntoWS interface {
	workspaceFloats(in []int) (int, error)
	inferIntoWS(dst, x *tensor.Tensor, ws []float32)
}

// Scratch holds the reusable per-layer activation buffers behind
// Network.ForwardBatch, plus the compiled batch program (see fuse.go) the
// fast path executes. One Scratch serves one goroutine and one network;
// buffers are grown on first use and reused while shapes repeat, so a
// steady-state inference loop allocates nothing at all.
type Scratch struct {
	bufs    []*tensor.Tensor
	prog    *program
	progNet *Network
}

// NewScratch returns an empty scratch space.
func NewScratch() *Scratch { return &Scratch{} }

// buffer returns the cached buffer for layer idx reshaped to shape,
// reallocating only when the element count changed.
func (s *Scratch) buffer(idx int, shape []int) *tensor.Tensor {
	for len(s.bufs) <= idx {
		s.bufs = append(s.bufs, nil)
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	if b := s.bufs[idx]; b != nil && b.Size() == n {
		if !slices.Equal(b.Shape(), shape) {
			b = tensor.FromSlice(b.Data, shape...)
			s.bufs[idx] = b
		}
		return b
	}
	b := tensor.New(shape...)
	s.bufs[idx] = b
	return b
}

// ForwardBatch runs inference on a batch of B examples ([B, example
// shape...]) through the network's batched fast path: layers implementing
// the InferInto contract write into reusable scratch buffers, everything
// else falls back to Forward(x, false). The output is bit-identical to
// Forward(x, false) — and therefore to B single-example Forward calls —
// because every fast path preserves its layer's exact floating-point
// accumulation order; only allocation and caching behavior differ.
//
// The returned tensor aliases scratch storage and is valid until the next
// call with the same Scratch; clone it to retain it. A nil scratch
// allocates fresh buffers. When every layer takes the fast path the pass
// performs no writes to the network, so concurrent goroutines may share
// one Network with per-goroutine Scratches — the property the fleet engine
// relies on to serve thousands of simulated devices from one model.
func (n *Network) ForwardBatch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	if s == nil {
		s = NewScratch()
	}
	// Fast path: execute the compiled program for this (network, batch,
	// shape) triple, recompiling only when one of them changed. Fused
	// epilogues preserve each absorbed layer's exact arithmetic, so the
	// program's output is bit-identical to the layer-by-layer path below.
	if p := s.prog; p != nil && s.progNet == n && p.batch == x.Dim(0) &&
		slices.Equal(p.inShape, x.Shape()[1:]) {
		return p.run(x)
	}
	if p, ok := n.compileBatch(x.Dim(0), x.Shape()[1:]); ok {
		s.prog, s.progNet = p, n
		return p.run(x)
	}
	s.prog, s.progNet = nil, nil
	return n.forwardBatchSlow(x, s)
}

// forwardBatchSlow is the uncompiled layer-by-layer path, kept for layer
// kinds (or shape errors) the program compiler does not cover.
func (n *Network) forwardBatchSlow(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	b := x.Dim(0)
	perExample := x.Shape()[1:]
	for i, l := range n.layers {
		// Shape-only and identity layers need no buffer at all.
		if _, isFlatten := l.(*Flatten); isFlatten {
			x = x.Reshape(b, -1)
			perExample = x.Shape()[1:]
			continue
		}
		if _, isDropout := l.(*Dropout); isDropout {
			continue // inverted dropout is the identity at inference time
		}
		if fast, ok := l.(inferIntoWS); ok {
			if info, err := l.Describe(perExample); err == nil {
				if wsn, werr := fast.workspaceFloats(perExample); werr == nil {
					dst := s.buffer(i, append([]int{b}, info.OutShape...))
					// Workspace slots live past the layer-output slots.
					ws := s.buffer(len(n.layers)+i, []int{wsn})
					fast.inferIntoWS(dst, x, ws.Data)
					x = dst
					perExample = info.OutShape
					continue
				}
			}
		}
		if fast, ok := l.(inferInto); ok {
			if info, err := l.Describe(perExample); err == nil {
				dst := s.buffer(i, append([]int{b}, info.OutShape...))
				fast.InferInto(dst, x)
				x = dst
				perExample = info.OutShape
				continue
			}
		}
		x = l.Forward(x, false)
		perExample = x.Shape()[1:]
	}
	return x
}
