package nn

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"

	"tinymlops/internal/tensor"
)

// netMagic identifies the network serialization format. The format is
// stable little-endian binary: magic, input shape, layer count, then per
// layer the kind string, kind-specific config and parameter tensors. It is
// the artifact format the model registry stores and hashes.
const netMagic = "TMLN1\n"

// MarshalBinary serializes the network (architecture, weights and, for
// batch norm, running statistics).
func (n *Network) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := n.encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Encode writes the network to w in the binary model format.
func (n *Network) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := n.encode(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// encWriter is what the encoders write to: a bufio.Writer over a real
// stream, or the bytes.Buffer of an in-memory encode.
type encWriter interface {
	io.Writer
	io.ByteWriter
	io.StringWriter
}

// decReader is what the decoders read from: a bufio.Reader over a real
// stream, or a bytes.Reader over an in-memory artifact.
type decReader interface {
	io.Reader
	io.ByteReader
}

func (n *Network) encode(w encWriter) error {
	if _, err := w.WriteString(netMagic); err != nil {
		return fmt.Errorf("nn: encode: %w", err)
	}
	writeU32(w, uint32(len(n.InputShape)))
	for _, d := range n.InputShape {
		writeU32(w, uint32(d))
	}
	writeU32(w, uint32(len(n.layers)))
	for i, l := range n.layers {
		if err := encodeLayer(w, l); err != nil {
			return fmt.Errorf("nn: encode layer %d (%s): %w", i, l.Kind(), err)
		}
	}
	return nil
}

// UnmarshalNetwork parses a network serialized by MarshalBinary. The
// encoding is canonical: bytes after the network are rejected, so every
// accepted artifact re-marshals to exactly its input.
func UnmarshalNetwork(data []byte) (*Network, error) {
	r := bytes.NewReader(data)
	net, err := decodeNetwork(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("nn: %d trailing bytes after model", r.Len())
	}
	return net, nil
}

// DecodeNetwork reads a network in the binary model format from r, which
// must end with it: like UnmarshalNetwork, it rejects trailing bytes.
func DecodeNetwork(r io.Reader) (*Network, error) {
	br := bufio.NewReader(r)
	net, err := decodeNetwork(br)
	if err != nil {
		return nil, err
	}
	switch _, err := br.ReadByte(); {
	case err == nil:
		return nil, errors.New("nn: trailing bytes after model")
	case err != io.EOF:
		return nil, fmt.Errorf("nn: decode trailer: %w", err)
	}
	return net, nil
}

func decodeNetwork(r decReader) (*Network, error) {
	got := make([]byte, len(netMagic))
	if _, err := io.ReadFull(r, got); err != nil {
		return nil, fmt.Errorf("nn: decode header: %w", err)
	}
	if string(got) != netMagic {
		return nil, errors.New("nn: not a TMLN1 model stream")
	}
	rank, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if rank == 0 || rank > 8 {
		return nil, fmt.Errorf("nn: implausible input rank %d", rank)
	}
	inShape := make([]int, rank)
	for i := range inShape {
		d, err := readU32(r)
		if err != nil {
			return nil, err
		}
		inShape[i] = int(d)
	}
	count, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if count > 4096 {
		return nil, fmt.Errorf("nn: implausible layer count %d", count)
	}
	net := &Network{InputShape: inShape, layers: make([]Layer, 0, count)}
	for i := uint32(0); i < count; i++ {
		l, err := decodeLayer(r)
		if err != nil {
			return nil, fmt.Errorf("nn: decode layer %d: %w", i, err)
		}
		net.Add(l)
	}
	return net, nil
}

func encodeLayer(w encWriter, l Layer) error {
	writeString(w, l.Kind())
	switch v := l.(type) {
	case *Dense:
		writeU32(w, uint32(v.In))
		writeU32(w, uint32(v.Out))
		return writeTensors(w, v.W.Value, v.B.Value)
	case *Flatten, *ReLU, *Sigmoid, *Tanh, *Softmax:
		return nil
	case *Conv2D:
		for _, d := range []int{v.InC, v.OutC, v.KH, v.KW, v.Stride, v.Pad} {
			writeU32(w, uint32(d))
		}
		return writeTensors(w, v.W.Value, v.B.Value)
	case *MaxPool2D:
		writeU32(w, uint32(v.K))
		writeU32(w, uint32(v.Stride))
		return nil
	case *BatchNorm1D:
		writeU32(w, uint32(v.F))
		writeF32(w, v.Eps)
		writeF32(w, v.Momentum)
		return writeTensors(w, v.Gamma.Value, v.Beta.Value, v.RunMean, v.RunVar)
	case *Dropout:
		writeF32(w, v.P)
		return nil
	default:
		return fmt.Errorf("unknown layer type %T", l)
	}
}

func decodeLayer(r decReader) (Layer, error) {
	kind, err := readString(r)
	if err != nil {
		return nil, err
	}
	switch kind {
	case "dense":
		in, err := readU32(r)
		if err != nil {
			return nil, err
		}
		out, err := readU32(r)
		if err != nil {
			return nil, err
		}
		d := &Dense{In: int(in), Out: int(out)}
		ts, err := readTensors(r, 2)
		if err != nil {
			return nil, err
		}
		d.W, d.B = newParam("weight", ts[0]), newParam("bias", ts[1])
		return d, nil
	case "flatten":
		return NewFlatten(), nil
	case "relu":
		return NewReLU(), nil
	case "sigmoid":
		return NewSigmoid(), nil
	case "tanh":
		return NewTanh(), nil
	case "softmax":
		return NewSoftmax(), nil
	case "conv2d":
		cfg := make([]int, 6)
		for i := range cfg {
			v, err := readU32(r)
			if err != nil {
				return nil, err
			}
			cfg[i] = int(v)
		}
		c := &Conv2D{InC: cfg[0], OutC: cfg[1], KH: cfg[2], KW: cfg[3], Stride: cfg[4], Pad: cfg[5]}
		ts, err := readTensors(r, 2)
		if err != nil {
			return nil, err
		}
		c.W, c.B = newParam("weight", ts[0]), newParam("bias", ts[1])
		return c, nil
	case "maxpool2d":
		k, err := readU32(r)
		if err != nil {
			return nil, err
		}
		s, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if k < 1 || s < 1 {
			return nil, fmt.Errorf("maxpool2d window %d stride %d must be >= 1", k, s)
		}
		return NewMaxPool2D(int(k), int(s)), nil
	case "batchnorm1d":
		f, err := readU32(r)
		if err != nil {
			return nil, err
		}
		eps, err := readF32(r)
		if err != nil {
			return nil, err
		}
		mom, err := readF32(r)
		if err != nil {
			return nil, err
		}
		ts, err := readTensors(r, 4)
		if err != nil {
			return nil, err
		}
		bn := &BatchNorm1D{F: int(f), Eps: eps, Momentum: mom}
		bn.Gamma, bn.Beta = newParam("gamma", ts[0]), newParam("beta", ts[1])
		bn.RunMean, bn.RunVar = ts[2], ts[3]
		return bn, nil
	case "dropout":
		p, err := readF32(r)
		if err != nil {
			return nil, err
		}
		if p < 0 || p >= 1 {
			return nil, fmt.Errorf("dropout probability %v out of [0,1)", p)
		}
		// A deserialized dropout layer gets a fixed-seed RNG; inference is
		// unaffected (dropout is identity at inference) and callers that
		// resume training can replace it.
		return NewDropout(p, tensor.NewRNG(0)), nil
	default:
		return nil, fmt.Errorf("unknown layer kind %q", kind)
	}
}

func writeTensors(w io.Writer, ts ...*tensor.Tensor) error {
	for _, t := range ts {
		if _, err := t.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}

func readTensors(r io.Reader, n int) ([]*tensor.Tensor, error) {
	out := make([]*tensor.Tensor, n)
	for i := range out {
		var t tensor.Tensor
		if _, err := t.ReadFrom(r); err != nil {
			return nil, err
		}
		out[i] = &t
	}
	return out, nil
}

// writeU32 writes v little-endian. Write errors are not returned: a
// bufio.Writer records the first one and Flush reports it, and a
// bytes.Buffer cannot fail.
func writeU32(w io.ByteWriter, v uint32) {
	for i := 0; i < 4; i++ {
		w.WriteByte(byte(v >> (8 * i))) //nolint:errcheck // see above
	}
}

func readU32(r io.ByteReader) (uint32, error) {
	var v uint32
	for i := 0; i < 4; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, fmt.Errorf("nn: read u32: %w", err)
		}
		v |= uint32(b) << (8 * i)
	}
	return v, nil
}

func writeF32(w io.ByteWriter, v float32) { writeU32(w, math.Float32bits(v)) }

func readF32(r io.ByteReader) (float32, error) {
	v, err := readU32(r)
	return math.Float32frombits(v), err
}

func writeString(w encWriter, s string) {
	writeU32(w, uint32(len(s)))
	w.WriteString(s) //nolint:errcheck // see writeU32
}

func readString(r decReader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > 1024 {
		return "", fmt.Errorf("nn: implausible string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", fmt.Errorf("nn: read string: %w", err)
	}
	return string(b), nil
}
