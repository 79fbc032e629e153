package nn

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"tinymlops/internal/tensor"
)

// deltaMagic identifies the weight-delta wire format: a per-tensor patch
// that upgrades one serialized network to another of identical topology.
// Same-topology OTA updates (a retrained base, a fine-tuned head) ship as
// deltas instead of full artifacts; the registry computes them, the rollout
// controller accounts their transfer cost, and the device applies them.
const deltaMagic = "TMLD1\n"

// Per-tensor delta encodings. Sparse stores (index, value) pairs for the
// changed elements; dense stores every element. The encoder picks whichever
// is smaller, so a head-only fine-tune ships a few hundred bytes while a
// full retrain degrades gracefully to dense (≈ the full tensor).
const (
	deltaDense  = 0
	deltaSparse = 1
)

// TopologySignature summarizes the network's architecture and all
// non-tensor layer configuration (shapes, strides, epsilons) without the
// weights. Two networks with equal signatures serialize to artifacts that
// differ only in tensor data, which is exactly the precondition for a
// weight delta to reproduce the target bit-exactly.
func (n *Network) TopologySignature() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "in%v", n.InputShape)
	for _, l := range n.layers {
		switch v := l.(type) {
		case *Dense:
			fmt.Fprintf(&b, "|dense(%d,%d)", v.In, v.Out)
		case *Conv2D:
			fmt.Fprintf(&b, "|conv2d(%d,%d,%d,%d,%d,%d)", v.InC, v.OutC, v.KH, v.KW, v.Stride, v.Pad)
		case *MaxPool2D:
			fmt.Fprintf(&b, "|maxpool2d(%d,%d)", v.K, v.Stride)
		case *BatchNorm1D:
			// Eps and Momentum are serialized config, so they are topology
			// for delta purposes: a delta cannot patch them.
			fmt.Fprintf(&b, "|batchnorm1d(%d,%x,%x)", v.F, math.Float32bits(v.Eps), math.Float32bits(v.Momentum))
		case *Dropout:
			fmt.Fprintf(&b, "|dropout(%x)", math.Float32bits(v.P))
		default:
			fmt.Fprintf(&b, "|%s", l.Kind())
		}
	}
	return b.String()
}

// stateTensors returns every tensor the binary model format serializes, in
// encode order: trainable parameters plus batch-norm running statistics.
func (n *Network) stateTensors() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range n.layers {
		switch v := l.(type) {
		case *Dense:
			out = append(out, v.W.Value, v.B.Value)
		case *Conv2D:
			out = append(out, v.W.Value, v.B.Value)
		case *BatchNorm1D:
			out = append(out, v.Gamma.Value, v.Beta.Value, v.RunMean, v.RunVar)
		}
	}
	return out
}

// EncodeDelta computes the weight delta that transforms oldNet's state into
// newNet's. The networks must have identical topology (TopologySignature).
// Changed elements store the new value's raw bits, so applying the delta to
// oldNet reproduces newNet bit-exactly — including NaN payloads.
func EncodeDelta(oldNet, newNet *Network) ([]byte, error) {
	sig := oldNet.TopologySignature()
	if got := newNet.TopologySignature(); got != sig {
		return nil, fmt.Errorf("nn: delta topology mismatch: %q vs %q", sig, got)
	}
	oldTs, newTs := oldNet.stateTensors(), newNet.stateTensors()
	var w bytes.Buffer
	w.WriteString(deltaMagic)
	writeString(&w, sig)
	writeU32(&w, uint32(len(oldTs)))
	for ti := range oldTs {
		ov, nv := oldTs[ti].Data, newTs[ti].Data
		if len(ov) != len(nv) {
			return nil, fmt.Errorf("nn: delta tensor %d size %d vs %d", ti, len(ov), len(nv))
		}
		var changed []int
		for i := range ov {
			if math.Float32bits(ov[i]) != math.Float32bits(nv[i]) {
				changed = append(changed, i)
			}
		}
		writeU32(&w, uint32(len(ov)))
		// Sparse costs 8 bytes per change, dense 4 per element.
		if len(changed)*8 < len(ov)*4 {
			w.WriteByte(deltaSparse)
			writeU32(&w, uint32(len(changed)))
			for _, i := range changed {
				writeU32(&w, uint32(i))
				writeF32(&w, nv[i])
			}
		} else {
			w.WriteByte(deltaDense)
			for _, v := range nv {
				writeF32(&w, v)
			}
		}
	}
	return w.Bytes(), nil
}

// ApplyDelta returns a new network equal to oldNet with the delta applied.
// It fails if the delta was encoded against a different topology, so a
// device cannot corrupt its model with a patch meant for another variant.
// The input network is not modified.
func ApplyDelta(oldNet *Network, delta []byte) (*Network, error) {
	r := bytes.NewReader(delta)
	got := make([]byte, len(deltaMagic))
	if _, err := io.ReadFull(r, got); err != nil {
		return nil, fmt.Errorf("nn: delta header: %w", err)
	}
	if string(got) != deltaMagic {
		return nil, fmt.Errorf("nn: not a TMLD1 delta stream")
	}
	sig, err := readDeltaString(r)
	if err != nil {
		return nil, err
	}
	if want := oldNet.TopologySignature(); sig != want {
		return nil, fmt.Errorf("nn: delta targets topology %q, model is %q", sig, want)
	}
	count, err := readU32(r)
	if err != nil {
		return nil, err
	}
	out := oldNet.Clone()
	ts := out.stateTensors()
	if int(count) != len(ts) {
		return nil, fmt.Errorf("nn: delta has %d tensors, model has %d", count, len(ts))
	}
	for ti := range ts {
		data := ts[ti].Data
		total, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if int(total) != len(data) {
			return nil, fmt.Errorf("nn: delta tensor %d size %d, model has %d", ti, total, len(data))
		}
		mode, err := r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("nn: delta tensor %d mode: %w", ti, err)
		}
		switch mode {
		case deltaDense:
			for i := range data {
				v, err := readF32(r)
				if err != nil {
					return nil, err
				}
				data[i] = v
			}
		case deltaSparse:
			nc, err := readU32(r)
			if err != nil {
				return nil, err
			}
			if int(nc) > len(data) {
				return nil, fmt.Errorf("nn: delta tensor %d claims %d changes of %d elements", ti, nc, len(data))
			}
			for c := uint32(0); c < nc; c++ {
				idx, err := readU32(r)
				if err != nil {
					return nil, err
				}
				if int(idx) >= len(data) {
					return nil, fmt.Errorf("nn: delta tensor %d index %d out of range", ti, idx)
				}
				v, err := readF32(r)
				if err != nil {
					return nil, err
				}
				data[idx] = v
			}
		default:
			return nil, fmt.Errorf("nn: delta tensor %d unknown mode %d", ti, mode)
		}
	}
	return out, nil
}

// DeltaCost is the modeled transfer and flash footprint of shipping a
// delta at a given weight precision, mirroring how Metrics.SizeBytes
// models the packed size of a float32-stored artifact.
type DeltaCost struct {
	// ShipBytes go over the radio: packed changed weights plus 4-byte
	// indices for sparse tensors, packed full tensors for dense ones.
	ShipBytes int
	// FlashBytes are rewritten on device: only the changed weights (sparse)
	// or the whole tensor (dense), at packed precision.
	FlashBytes int
	// ChangedParams / TotalParams summarize sparsity for reporting.
	ChangedParams int
	TotalParams   int
}

// CostOfDelta parses an encoded delta and returns its modeled cost at the
// given weight bit width (≤ 0 means 32). The cost model matches SizeBytes
// semantics: weights ship and flash at packed precision even though the
// registry stores float32 artifacts for exactness.
func CostOfDelta(delta []byte, bits int) (DeltaCost, error) {
	if bits <= 0 {
		bits = 32
	}
	r := bytes.NewReader(delta)
	got := make([]byte, len(deltaMagic))
	if _, err := io.ReadFull(r, got); err != nil {
		return DeltaCost{}, fmt.Errorf("nn: delta header: %w", err)
	}
	if string(got) != deltaMagic {
		return DeltaCost{}, fmt.Errorf("nn: not a TMLD1 delta stream")
	}
	if _, err := readDeltaString(r); err != nil {
		return DeltaCost{}, err
	}
	count, err := readU32(r)
	if err != nil {
		return DeltaCost{}, err
	}
	packed := func(n int) int { return (n*bits + 7) / 8 }
	// A small fixed allowance for the header and per-tensor metadata.
	cost := DeltaCost{ShipBytes: 64}
	for ti := uint32(0); ti < count; ti++ {
		total, err := readU32(r)
		if err != nil {
			return DeltaCost{}, err
		}
		cost.TotalParams += int(total)
		mode, err := r.ReadByte()
		if err != nil {
			return DeltaCost{}, fmt.Errorf("nn: delta tensor %d mode: %w", ti, err)
		}
		switch mode {
		case deltaDense:
			if err := skip(r, int64(total)*4); err != nil {
				return DeltaCost{}, fmt.Errorf("nn: delta tensor %d: %w", ti, err)
			}
			cost.ChangedParams += int(total)
			cost.ShipBytes += packed(int(total))
			cost.FlashBytes += packed(int(total))
		case deltaSparse:
			nc, err := readU32(r)
			if err != nil {
				return DeltaCost{}, err
			}
			if err := skip(r, int64(nc)*8); err != nil {
				return DeltaCost{}, fmt.Errorf("nn: delta tensor %d: %w", ti, err)
			}
			cost.ChangedParams += int(nc)
			cost.ShipBytes += 4*int(nc) + packed(int(nc))
			cost.FlashBytes += packed(int(nc))
		default:
			return DeltaCost{}, fmt.Errorf("nn: delta tensor %d unknown mode %d", ti, mode)
		}
	}
	return cost, nil
}

// readDeltaString reads a length-prefixed string without the 1 KiB bound of
// readString: topology signatures of deep networks can exceed it.
func readDeltaString(r decReader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("nn: implausible delta signature length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", fmt.Errorf("nn: read delta signature: %w", err)
	}
	return string(b), nil
}

// skip advances r past n bytes, failing with io.EOF when fewer remain.
func skip(r *bytes.Reader, n int64) error {
	if n > int64(r.Len()) {
		return io.EOF
	}
	_, err := r.Seek(n, io.SeekCurrent)
	return err
}
